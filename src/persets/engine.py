"""The sampling engine: estimate principal persistence sets and measures.

A campaign draws m_max i.i.d. n-tuples from a space (any object with the
three members listed in ``persets.spaces``; entries sampled with
replacement: that is exactly the n-fold product measure), pushes the
n(n-1)/2 distances of every tuple through the O(n^2) principal-diagram
kernel, and aggregates the nontrivial (t_b, t_d) points plus a scalar
count of trivial (empty) diagrams.  The empty diagram is never encoded
as a (0, 0) point.

Determinism contract: tuples are partitioned into fixed-size chunks and
chunk c is generated from SeedSequence(seed, spawn_key=(c,)); the merge
concatenates chunk results in chunk order, so the output is bit-identical
for any worker count.  Workers are separate processes (numpy releases
little of the GIL here).
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import graphs as graphs_mod
from . import spaces as spaces_mod
from .errors import (
    EmptySample,
    RegionMismatch,
    UnsupportedCombination,
)
from .metric import DistanceMatrix, read_csv, read_json, squareform, whole, write_csv, write_json
from .oracle import vr_diagram
from .principal import principal_of_pairs

CHUNK = 1 << 16


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
        return len(self.points) / self.tuples_drawn if self.tuples_drawn else 0.0


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
class FiniteSpace:
    """A finite dataset as a sampling space: points are (count, 1) row indices."""

    matrix: DistanceMatrix

    @property
    def descriptor(self) -> str:
        return f"finite:{self.matrix.n}"

    def sample_points(self, rng, count):
        return rng.integers(0, self.matrix.n, size=(count, 1))

    def pair_distance(self, p, q):
        return self.matrix.entries[p[..., 0], q[..., 0]]


def _space_of(space):
    """A space object, or the model or graph family a descriptor string names."""
    if not isinstance(space, str):
        return space
    if space.strip().split(":")[0].lower() in graphs_mod.FAMILIES:
        return graphs_mod.parse_family(space)
    return spaces_mod.parse_space(space)


def sample_tuples(space, rng, count: int, n: int):
    """``count`` n-tuples, (count, n, D), and their pair list, (n(n-1)/2, count).

    One ``pair_distance`` call per pair keeps its temporaries at (count, D).
    """
    pts = space.sample_points(rng, count * n).reshape(count, n, -1)
    pairs = np.empty((n * (n - 1) // 2, count))
    for p, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
        pairs[p] = space.pair_distance(pts[:, i], pts[:, j])
    return pts, pairs


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _run_chunk(space, n, k, seed, chunk_index, count, keep):
    """The nontrivial points of one chunk, its trivial count and, if ``keep``, the
    tuple of each point; the O(n^2) kernel when n = 2k+2, else the oracle."""
    rng = _chunk_rng(seed, chunk_index)
    pts, dists = sample_tuples(space, rng, count, n)
    if n == 2 * k + 2:
        tb, td = principal_of_pairs(dists, n)
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
    oracle_fallback: bool = False,
    keep_nontrivial_tuples: bool = False,
) -> PersistenceSetSample:
    """Estimate the (n, k) persistence set / measure with m_max tuples.

    n = 2k+2 is the principal path; other combinations with n <= 12
    run every tuple through the brute-force oracle when
    ``oracle_fallback`` is set, flattening all diagram points (row i of
    ``kept_tuples`` is then the tuple of ``points[i]``, repeated per point).
    """
    space = _space_of(space)
    if m_max < 1 or workers < 1:
        raise UnsupportedCombination("m_max and workers must be >= 1")
    if n < 2 or k < 0:
        raise UnsupportedCombination(f"need n >= 2 and k >= 0, got n={n}, k={k}")
    principal = n == 2 * k + 2
    if not principal and not (oracle_fallback and n <= 12):
        raise UnsupportedCombination(
            f"n={n}, k={k}: principal sampling needs n = 2k+2; "
            "pass oracle_fallback=True for n <= 12"
        )

    chunk = CHUNK if principal else 1024
    counts = [chunk] * (m_max // chunk)
    if m_max % chunk:
        counts.append(m_max % chunk)

    tasks = [(space, n, k, seed, c, cnt, keep_nontrivial_tuples) for c, cnt in enumerate(counts)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    equal the tuples drawn; with a caller-supplied range, points outside
    it are excluded from counts and total alike.
    """
    if bins_b < 1 or bins_d < 1:
        raise RegionMismatch("bins must be >= 1")
    pts = sample.points
    if range_b is None:
        range_b = (float(pts[:, 0].min()), float(pts[:, 0].max())) if len(pts) else (0.0, 1.0)
    if range_d is None:
        range_d = (float(pts[:, 1].min()), float(pts[:, 1].max())) if len(pts) else (0.0, 1.0)
    counts, _, _ = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=(bins_b, bins_d), range=(range_b, range_d)
    )
    counts = counts.astype(np.int64)
    return Histogram2D(
        counts=counts,
        range_b=(float(range_b[0]), float(range_b[1])),
        range_d=(float(range_d[0]), float(range_d[1])),
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
    persistence; also the convention used for birth and death).
    """
    if sample.tuples_drawn == 0:
        raise EmptySample("cannot build a CDF from zero tuples")
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


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<text x="{_SVG_SIZE // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]


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


def _svg_frame(lines, lo, hi, angular):
    span = hi - lo
    inner = _SVG_SIZE - 2 * _SVG_MARGIN

    def sx(v):
        return _SVG_MARGIN + (v - lo) / span * inner

    def sy(v):
        return _SVG_SIZE - _SVG_MARGIN - (v - lo) / span * inner

    m, sz = _SVG_MARGIN, _SVG_SIZE
    lines.append(f'<rect x="{m}" y="{m}" width="{inner}" height="{inner}" fill="none" stroke="black"/>')
    lines.append(
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        'stroke="#999" stroke-dasharray="4 3"/>'
    )
    for v, label in _axes(lo, hi, angular):
        lines.append(f'<line x1="{sx(v):.1f}" y1="{sz - m}" x2="{sx(v):.1f}" y2="{sz - m + 6}" stroke="black"/>')
        lines.append(f'<text x="{sx(v):.1f}" y="{sz - m + 20}" text-anchor="middle" font-size="11">{label}</text>')
        lines.append(f'<line x1="{m - 6}" y1="{sy(v):.1f}" x2="{m}" y2="{sy(v):.1f}" stroke="black"/>')
        lines.append(f'<text x="{m - 9}" y="{sy(v):.1f}" text-anchor="end" font-size="11" dy="4">{label}</text>')
    return sx, sy


def svg_scatter(points: np.ndarray, path, angular: bool = True, title: str = "", max_points: int = 20000) -> None:
    """Scatter plot of (t_b, t_d) pairs on the square [0, max]^2."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) > max_points:
        stride = int(math.ceil(len(pts) / max_points))
        pts = pts[::stride]
    hi = float(pts.max()) * 1.05 if len(pts) else 1.0
    lines = _svg_header(title)
    sx, sy = _svg_frame(lines, 0.0, hi, angular)
    for b, d in pts:
        lines.append(f'<circle cx="{sx(b):.1f}" cy="{sy(d):.1f}" r="1.4" fill="#1565c0" fill-opacity="0.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def svg_heatmap(hist: Histogram2D, path, angular: bool = True, title: str = "") -> None:
    """Heatmap of a 2-D histogram; darker bins carry more mass."""
    counts = hist.counts
    peak = counts.max()
    lo = min(hist.range_b[0], hist.range_d[0])
    hi = max(hist.range_b[1], hist.range_d[1])
    lines = _svg_header(title)
    sx, sy = _svg_frame(lines, lo, hi, angular)
    nb, nd = counts.shape
    wb = (hist.range_b[1] - hist.range_b[0]) / nb
    wd = (hist.range_d[1] - hist.range_d[0]) / nd
    if peak > 0:
        for i in range(nb):
            for j in range(nd):
                c = counts[i, j]
                if c == 0:
                    continue
                x = sx(hist.range_b[0] + i * wb)
                y = sy(hist.range_d[0] + (j + 1) * wd)
                w = sx(hist.range_b[0] + (i + 1) * wb) - x
                h = sy(hist.range_d[0] + j * wd) - y
                op = 0.15 + 0.85 * (c / peak)
                lines.append(
                    f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
                    f'fill="#b71c1c" fill-opacity="{op:.3f}"/>'
                )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
