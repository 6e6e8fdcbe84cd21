"""The sampling engine: estimate persistence sets and measures.

A campaign draws m_max i.i.d. n-tuples from a space (any object with the
four members listed in ``persets.spaces``; entries sampled with
replacement: that is exactly the n-fold product measure), computes the
degree-k diagram of every tuple from its n(n-1)/2 distances (the O(n^2)
kernel when n = 2k+2, else the oracle), and aggregates the nontrivial
(t_b, t_d) points plus a scalar count of trivial (empty) diagrams.  The
empty diagram is never encoded as a (0, 0) point.

Determinism contract: tuples are partitioned into fixed-size chunks and
chunk c is generated from SeedSequence(seed, spawn_key=(c,)); the merge
concatenates chunk results in chunk order, so the output is bit-identical
for any worker count.  Workers are separate processes (numpy releases
little of the GIL here).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import graphs as graphs_mod
from . import spaces as spaces_mod
from .errors import (
    EmptySample,
    MalformedFile,
    RegionMismatch,
    UnsupportedCombination,
)
from .metric import (DistanceMatrix, read_csv, read_json, read_matrix_csv, squareform, whole, write_csv,
                     write_json)
from .oracle import MAX_POINTS, vr_diagram
from .principal import principal_of_pairs

CHUNK = 1 << 16
BLOCK = 1 << 13  # tuples per prepare call, per pair_distance call and per kernel call


@dataclass(frozen=True, eq=False)
class PersistenceSetSample:
    space: str
    n: int
    k: int
    tuples_drawn: int
    points: np.ndarray  # (m, 2) nontrivial (t_b, t_d) pairs
    trivial_count: int
    seed: int
    kept_tuples: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def nontrivial_fraction(self) -> float:
        """The share of tuples whose diagram is not empty (a diagram may hold several points)."""
        return (self.tuples_drawn - self.trivial_count) / self.tuples_drawn if self.tuples_drawn else 0.0


@dataclass(frozen=True, eq=False)
class Histogram2D:
    counts: np.ndarray  # (bins_b, bins_d) integer counts
    range_b: tuple[float, float]
    range_d: tuple[float, float]
    empty_mass: int
    total: int  # trivial mass + binned points (clipped draws drop out)

    @property
    def bin_area(self) -> float:
        (b0, b1), (d0, d1) = self.range_b, self.range_d
        nb, nd = self.counts.shape
        return ((b1 - b0) / nb) * ((d1 - d0) / nd)


@dataclass(frozen=True)
class FiniteSpace(spaces_mod.RawPoints):
    """A finite dataset as a sampling space: points are (count, 1) row indices."""

    matrix: DistanceMatrix

    @property
    def descriptor(self) -> str:
        return f"finite:{self.matrix.n}"

    def sample_points(self, rng, count):
        return rng.integers(0, self.matrix.n, size=(count, 1))

    def pair_distance(self, p, q):
        return self.matrix.entries[p[..., 0], q[..., 0]]


def space_of(space):
    """A space object as given, or the one a string names: a graph JSON file
    (a path ending in ``.json``), a distance-matrix CSV (a path ending in
    ``.csv``), a graph family or a model space descriptor."""
    if not isinstance(space, str):
        return space
    if space.endswith(".json"):
        return graphs_mod.read_graph_json(space)
    if space.endswith(".csv"):
        return FiniteSpace(read_matrix_csv(space))
    if graphs_mod.is_family(space):
        return graphs_mod.parse_family(space)
    return spaces_mod.parse_space(space)


def sample_tuples(space, rng, count: int, n: int):
    """``count`` n-tuples, (count, n, D), and their pair list, (n(n-1)/2, count).

    The tuples are drawn in one call, then walked in blocks of BLOCK:
    ``prepare`` gets each block once, as an (n, B, D) view, and every
    ``pair_distance`` call gets two of the n positions it returns, so
    temporaries stay at B values per coordinate.
    """
    pts = space.sample_points(rng, count * n).reshape(count, n, -1)
    pairs = np.empty((n * (n - 1) // 2, count))
    ij = list(zip(*np.triu_indices(n, 1)))
    for b in range(0, count, BLOCK):
        at = space.prepare(pts[b:b + BLOCK].swapaxes(0, 1))
        for p, (i, j) in enumerate(ij):
            pairs[p, b:b + BLOCK] = space.pair_distance(at[i], at[j])
        del at  # the next block's prepare reuses this memory instead of faulting in new pages
    return pts, pairs


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _run_chunk(space, n, k, seed, chunk_index, count, keep):
    """The nontrivial points of one chunk, its trivial count and, if ``keep``, the
    tuple of each point; the O(n^2) kernel when n = 2k+2, else the oracle."""
    rng = _chunk_rng(seed, chunk_index)
    pts, dists = sample_tuples(space, rng, count, n)
    if n == 2 * k + 2:
        tb, td = np.empty(count), np.empty(count)
        for b in range(0, count, BLOCK):
            tb[b:b + BLOCK], td[b:b + BLOCK] = principal_of_pairs(dists[:, b:b + BLOCK], n)
        per_tuple = tb < td
        pairs = np.column_stack([tb[per_tuple], td[per_tuple]])
    else:
        # sampled matrices are metric by construction; skip re-validation
        dgms = [vr_diagram(DistanceMatrix(m), k).points for m in squareform(dists, n)]
        per_tuple = np.array([len(d) for d in dgms], dtype=np.intp)
        pairs = np.asarray([p for d in dgms for p in d], dtype=float).reshape(-1, 2)
    kept = np.repeat(pts, per_tuple, axis=0) if keep else None
    return pairs, count - int(np.count_nonzero(per_tuple)), kept


def sample_persistence_set(
    space,
    n: int,
    k: int,
    m_max: int,
    seed: int,
    workers: int = 1,
    keep_nontrivial_tuples: bool = False,
) -> PersistenceSetSample:
    """Estimate the (n, k) persistence set / measure with m_max tuples.

    ``space`` is a space object or any string ``space_of`` resolves.
    n = 2k+2 is the principal path (the O(n^2) kernel, chunks of CHUNK
    tuples); any other k+2 <= n <= oracle.MAX_POINTS runs every tuple
    through the brute-force oracle, in chunks of 1024, flattening all
    diagram points (row i of ``kept_tuples`` is then the tuple of
    ``points[i]``, repeated per point).  The pool holds at most
    ``workers``, the chunk count and the machine's CPU count processes.
    """
    space = space_of(space)
    if m_max < 1 or workers < 1 or seed < 0:
        raise UnsupportedCombination(f"m_max and workers must be >= 1 and seed >= 0, "
                                     f"got m_max={m_max}, workers={workers}, seed={seed}")
    principal = n == 2 * k + 2
    if k < 0 or not (principal or k + 2 <= n <= MAX_POINTS):
        raise UnsupportedCombination(
            f"n={n}, k={k}: need k >= 0 and either n = 2k+2 (the principal kernel) "
            f"or k+2 <= n <= {MAX_POINTS} (the oracle)"
        )

    chunk = CHUNK if principal else 1024
    counts = [chunk] * (m_max // chunk)
    if m_max % chunk:
        counts.append(m_max % chunk)

    tasks = [(space, n, k, seed, c, cnt, keep_nontrivial_tuples) for c, cnt in enumerate(counts)]
    # under fork the pool starts all its workers at the first submit
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_run_chunk, *zip(*tasks), chunksize=1))
    else:
        results = [_run_chunk(*t) for t in tasks]

    points = np.concatenate([r[0] for r in results], axis=0)
    trivial = sum(r[1] for r in results)
    kept = np.concatenate([r[2] for r in results]) if keep_nontrivial_tuples else None
    return PersistenceSetSample(
        space=space.descriptor,
        n=n,
        k=k,
        tuples_drawn=m_max,
        points=points,
        trivial_count=trivial,
        seed=seed,
        kept_tuples=kept,
    )


# ---------------------------------------------------------------------------
# Histogramming and density comparison
# ---------------------------------------------------------------------------

def histogram(
    sample: PersistenceSetSample,
    bins_b: int = 100,
    bins_d: int = 100,
    range_b: Optional[tuple[float, float]] = None,
    range_d: Optional[tuple[float, float]] = None,
) -> Histogram2D:
    """2-D counts of the nontrivial points; trivial mass stays scalar.

    The default range is the data's bounding box, so counts + empty mass
    equal the tuples drawn when n = 2k+2; with a caller-supplied range,
    points outside it are excluded from counts and total alike.  The
    recorded ranges are the outer bin edges numpy used, which widens a
    zero-width range by 0.5 on each side.  A sample with n != 2k+2 is
    binned per diagram point: a tuple whose diagram holds several points
    adds one count for each.
    """
    if bins_b < 1 or bins_d < 1:
        raise RegionMismatch("bins must be >= 1")
    pts = sample.points
    if range_b is None:
        range_b = (float(pts[:, 0].min()), float(pts[:, 0].max())) if len(pts) else (0.0, 1.0)
    if range_d is None:
        range_d = (float(pts[:, 1].min()), float(pts[:, 1].max())) if len(pts) else (0.0, 1.0)
    counts, edges_b, edges_d = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=(bins_b, bins_d), range=(range_b, range_d)
    )
    counts = counts.astype(np.int64)
    return Histogram2D(
        counts=counts,
        range_b=(float(edges_b[0]), float(edges_b[-1])),
        range_d=(float(edges_d[0]), float(edges_d[-1])),
        empty_mass=sample.trivial_count,
        total=sample.trivial_count + int(counts.sum()),
    )


def density_l1_error(
    hist: Histogram2D,
    density: Callable[[np.ndarray, np.ndarray], np.ndarray],
    subsamples: int = 32,
) -> float:
    """L1 distance between the empirical and analytic nontrivial densities.

    Both sides are compared on the nontrivial-mass scale: the empirical
    per-bin density is count/(total tuples * bin area), which integrates
    to the nontrivial fraction, and ``density`` must integrate to the same
    fraction (the trivial mass is excluded from both sides rather than
    renormalized to 1; renormalizing would just multiply the error by the
    reciprocal fraction).  Analytic bin averages use a subsample grid.
    """
    counts = hist.counts
    if counts.sum() == 0:
        raise RegionMismatch("histogram holds no nontrivial mass")
    nb, nd = counts.shape
    (b0, b1), (d0, d1) = hist.range_b, hist.range_d
    wb, wd = (b1 - b0) / nb, (d1 - d0) / nd

    s = subsamples
    off = (np.arange(s) + 0.5) / s
    tb = b0 + (np.arange(nb)[:, None] + off[None, :]) * wb  # (nb, s)
    td = d0 + (np.arange(nd)[:, None] + off[None, :]) * wd  # (nd, s)
    vals = density(
        tb[:, None, :, None].repeat(nd, axis=1),
        td[None, :, None, :].repeat(nb, axis=0),
    )
    analytic = vals.reshape(nb, nd, s * s).mean(axis=2)
    if float(analytic.sum() * wb * wd) <= 0.0:
        raise RegionMismatch("analytic density vanishes on the histogram box")

    empirical = counts / (hist.total * wb * wd)
    return float(np.abs(empirical - analytic).sum() * wb * wd)


# ---------------------------------------------------------------------------
# Coordinate functions and their distribution functions
# ---------------------------------------------------------------------------

COORDINATES = ("totalPersistence", "birth", "death")


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous empirical distribution function."""

    values: np.ndarray  # sorted unique jump locations
    cdf: np.ndarray  # cumulative probability after each jump

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.values, t, side="right")
        out = np.where(idx > 0, self.cdf[np.maximum(idx - 1, 0)], 0.0)
        return out if out.shape else float(out)

    def l1_distance(self, other: "StepCDF") -> float:
        """Integral of |H1 - H2| (finite: both reach 1)."""
        grid = np.union1d(self.values, other.values)
        if len(grid) == 0:
            return 0.0
        left = grid
        right = np.append(grid[1:], grid[-1])
        widths = right - left
        diff = np.abs(self(left) - other(left))
        return float((diff * widths).sum())


def coordinate_cdf(sample: PersistenceSetSample, coordinate: str = "totalPersistence") -> StepCDF:
    """Distribution function of a diagram coordinate under the campaign.

    The empty diagram contributes coordinate value 0 (its maximal
    persistence; also the convention used for birth and death).  Only a
    principal sample (n = 2k+2) has one point per nonempty diagram; any
    other is refused.
    """
    if sample.tuples_drawn == 0:
        raise EmptySample("cannot build a CDF from zero tuples")
    if sample.n != 2 * sample.k + 2:
        raise UnsupportedCombination(f"coordinate_cdf needs one-point diagrams, n = 2k+2; "
                                     f"the sample has n={sample.n}, k={sample.k}")
    if coordinate not in COORDINATES:
        raise UnsupportedCombination(f"coordinate must be one of {COORDINATES}")
    pts = sample.points
    if coordinate == "totalPersistence":
        vals = pts[:, 1] - pts[:, 0]
    elif coordinate == "birth":
        vals = pts[:, 0]
    else:
        vals = pts[:, 1]
    vals = np.concatenate([vals, np.zeros(sample.trivial_count)])
    uniq, counts = np.unique(vals, return_counts=True)
    cdf = np.cumsum(counts) / len(vals)
    return StepCDF(values=uniq, cdf=cdf)


# ---------------------------------------------------------------------------
# The two-point mm-space, exactly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoPointMeasure:
    empty_mass: float
    point_mass: float
    location: tuple[float, float]


def two_point_measure(alpha: float, delta: float, n: int) -> TwoPointMeasure:
    """Degree-0 persistence measure of the two-point mm-space, closed form.

    An n-tuple sees only one of the two points with probability
    alpha^n + (1-alpha)^n (the empty reduced diagram); otherwise the
    diagram is the single point (0, delta).  The empty mass vanishes as n
    grows: the measure concentrates.
    """
    if not (0.0 < alpha < 1.0) or delta <= 0 or n < 1:
        raise UnsupportedCombination("need 0 < alpha < 1, delta > 0, n >= 1")
    w = alpha**n + (1.0 - alpha) ** n
    return TwoPointMeasure(empty_mass=w, point_mass=1.0 - w, location=(0.0, delta))


def sample_two_point_empty_fraction(alpha: float, n: int, m_max: int, seed: int) -> float:
    """Monte-Carlo estimate of the two-point empty mass (for validation)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.random((m_max, n)) < alpha
    ones = draws.sum(axis=1)
    return float(np.mean((ones == 0) | (ones == n)))


# ---------------------------------------------------------------------------
# Sample and histogram files: a CSV plus its required JSON sidecar <csv>.json
# ---------------------------------------------------------------------------

SAMPLE_HEADER = "t_b,t_d"
# sidecar key: (PersistenceSetSample field, converter); one table for writer and reader
_SIDECAR = {"tuples": ("tuples_drawn", whole), "trivial": ("trivial_count", whole),
            "seed": ("seed", whole), "space": ("space", str), "n": ("n", whole), "k": ("k", whole)}


def write_sample(sample: PersistenceSetSample, csv_path) -> None:
    write_csv(csv_path, sample.points, header=SAMPLE_HEADER)
    write_json(str(csv_path) + ".json", {key: getattr(sample, f) for key, (f, _) in _SIDECAR.items()})


def read_sample(csv_path) -> PersistenceSetSample:
    points = read_csv(csv_path, SAMPLE_HEADER)
    bad = np.flatnonzero(~(np.isfinite(points).all(axis=1) & (points[:, 0] < points[:, 1])))
    if len(bad):
        raise MalformedFile(f"{csv_path}: point {bad[0] + 1} is {tuple(points[bad[0]].tolist())}, "
                            "not finite with t_b < t_d")
    meta = read_json(str(csv_path) + ".json", {key: t for key, (_, t) in _SIDECAR.items()})
    return PersistenceSetSample(points=points, **{f: meta[key] for key, (f, _) in _SIDECAR.items()})


def write_histogram(hist: Histogram2D, csv_path) -> None:
    write_csv(csv_path, hist.counts)
    write_json(str(csv_path) + ".json", {
        "range_b": list(hist.range_b),
        "range_d": list(hist.range_d),
        "empty_mass": hist.empty_mass,
        "total": hist.total,
        "bins": list(hist.counts.shape),
    })


# ---------------------------------------------------------------------------
# SVG plots: fixed 720x720 viewport, deterministic geometry
# ---------------------------------------------------------------------------

_SVG_SIZE = 720
_SVG_MARGIN = 60


def _axes(lo, hi, angular: bool) -> list[tuple[float, str]]:
    if angular:
        step = math.pi / 4.0
        k0 = math.ceil(lo / step - 1e-9)
        k1 = math.floor(hi / step + 1e-9)
        names = {0: "0", 1: "π/4", 2: "π/2", 3: "3π/4", 4: "π",
                 5: "5π/4", 6: "3π/2", 7: "7π/4", 8: "2π"}
        return [(k * step, names.get(k, f"{k}π/4")) for k in range(k0, k1 + 1)]
    ticks = np.linspace(lo, hi, 5)
    return [(float(t), f"{t:.3g}") for t in ticks]


def _svg_open(title: str, lo, hi, angular):
    """Header, title and axes of a plot of [lo, hi]^2: its lines and (x, y) pixel maps."""
    span = hi - lo
    inner = _SVG_SIZE - 2 * _SVG_MARGIN

    def sx(v):
        return _SVG_MARGIN + (v - lo) / span * inner

    def sy(v):
        return _SVG_SIZE - _SVG_MARGIN - (v - lo) / span * inner

    m, sz = _SVG_MARGIN, _SVG_SIZE
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{sz}" height="{sz}" viewBox="0 0 {sz} {sz}">',
        f'<rect width="{sz}" height="{sz}" fill="white"/>',
        f'<text x="{sz // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{m}" y="{m}" width="{inner}" height="{inner}" fill="none" stroke="black"/>',
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    for v, label in _axes(lo, hi, angular):
        lines.append(f'<line x1="{sx(v):.1f}" y1="{sz - m}" x2="{sx(v):.1f}" y2="{sz - m + 6}" stroke="black"/>')
        lines.append(f'<text x="{sx(v):.1f}" y="{sz - m + 20}" text-anchor="middle" font-size="11">{label}</text>')
        lines.append(f'<line x1="{m - 6}" y1="{sy(v):.1f}" x2="{m}" y2="{sy(v):.1f}" stroke="black"/>')
        lines.append(f'<text x="{m - 9}" y="{sy(v):.1f}" text-anchor="end" font-size="11" dy="4">{label}</text>')
    return lines, sx, sy


def _svg_close(lines, path, template: str, *columns) -> None:
    """Write the frame, one ``template`` line per row of the ``columns`` (one ``%`` call, no line if empty), the end."""
    n = len(columns[0])
    marks = ["\n".join([template] * n) % tuple(np.column_stack(columns).ravel().tolist())] if n else []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + marks + ["</svg>"]) + "\n")


def svg_scatter(points: np.ndarray, path, angular: bool = True, title: str = "", max_points: int = 20000) -> None:
    """Scatter plot of (t_b, t_d) pairs on the square [0, max]^2, all points
    formatted by one ``%.1f`` template: the bytes of one f-string per point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) > max_points:
        stride = int(math.ceil(len(pts) / max_points))
        pts = pts[::stride]
    hi = float(pts.max()) * 1.05 if len(pts) else 1.0
    lines, sx, sy = _svg_open(title, 0.0, hi, angular)
    _svg_close(lines, path, '<circle cx="%.1f" cy="%.1f" r="1.4" fill="#1565c0" fill-opacity="0.5"/>',
               sx(pts[:, 0]), sy(pts[:, 1]))


def svg_heatmap(hist: Histogram2D, path, angular: bool = True, title: str = "") -> None:
    """Heatmap of a 2-D histogram; darker bins carry more mass.  The per-bin
    arithmetic runs on whole columns (the same IEEE operations) into one template."""
    counts, peak = hist.counts, hist.counts.max()
    (b0, b1), (d0, d1) = hist.range_b, hist.range_d
    lines, sx, sy = _svg_open(title, min(b0, d0), max(b1, d1), angular)
    wb, wd = (b1 - b0) / counts.shape[0], (d1 - d0) / counts.shape[1]
    i, j = np.nonzero(counts)  # row-major
    x, y = sx(b0 + i * wb), sy(d0 + (j + 1) * wd)
    w, h = sx(b0 + (i + 1) * wb) - x, sy(d0 + j * wd) - y
    _svg_close(lines, path, '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#b71c1c" fill-opacity="%.3f"/>',
               x, y, w, h, 0.15 + 0.85 * (counts[i, j] / peak))
