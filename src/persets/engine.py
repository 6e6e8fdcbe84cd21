"""The sampling engine: estimate persistence sets and measures.

A campaign draws m_max i.i.d. n-tuples from a space (any object with the
four members listed in ``persets.spaces``; entries sampled with
replacement: that is exactly the n-fold product measure), computes the
degree-k diagram of every tuple from its n(n-1)/2 distances (the O(n^2)
kernel when n = 2k+2, else the oracle), and aggregates the nontrivial
(t_b, t_d) points plus a scalar count of trivial (empty) diagrams.  The
empty diagram is never encoded as a (0, 0) point.

A chunk reads its points from one ``sample_points`` stream, one BLOCK of
tuples at a time: the block's points, its pair list, the distance guard
and the kernel (or the oracle) finish before the next block overwrites
them.  So a worker holds one BLOCK of points plus O(BLOCK n^2) scratch,
whatever the chunk size, besides what a two-pass sampler draws whole (see
``persets.spaces``) and the chunk's nontrivial points.  Each process that
runs a campaign's chunks keeps that scratch in one ``spaces.Scratch``: the
point buffer, the pair list, the kernel's arrays and what ``prepare``
asks for are made once and reused by every block, so no chunk faults in
the pages that glibc trimmed when the last one ended.

Determinism contract: tuples are partitioned into fixed-size chunks and
chunk c is generated from SeedSequence(seed, spawn_key=(c,)); the merge
concatenates chunk results in chunk order, so the output is bit-identical
for any worker count.  Workers are separate processes.  numpy releases the
GIL in the kernel and the distance ufuncs, so a thread pool keeps pace,
but its one process holds every worker's chunks: two workers on
sphere:m=2, n = 6, 2^20 tuples peaked at 55-74 MB ``ru_maxrss`` as threads
against 44-53 MB as processes.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import graphs as graphs_mod
from . import spaces as spaces_mod
from .errors import (
    EmptySample,
    MalformedFile,
    RegionMismatch,
    TooLarge,
    UnsupportedCombination,
)
from .metric import DistanceMatrix, read_csv, read_json, read_matrix_csv, whole, write_csv, write_json
from .oracle import MAX_POINTS, diagrams_of_pairs
from .principal import principal_of_pairs

CHUNK = 1 << 16
BLOCK = 1 << 13  # tuples per prepare call, per pair_distance call and per kernel call
MAX_BINS = 1 << 10  # histogram bins per axis: its counts stay at 8 MiB, 27 MiB while numpy bins a CHUNK of points


@dataclass(frozen=True, eq=False)
class PersistenceSetSample:
    space: str
    n: int
    k: int
    tuples_drawn: int
    points: np.ndarray  # (m, 2) nontrivial (t_b, t_d) pairs
    trivial_count: int
    seed: int

    @property
    def nontrivial_fraction(self) -> float:
        """The share of tuples whose diagram is not empty (a diagram may hold several points)."""
        return (self.tuples_drawn - self.trivial_count) / self.tuples_drawn if self.tuples_drawn else 0.0


@dataclass(frozen=True, eq=False)
class Histogram2D:
    counts: np.ndarray  # (bins_b, bins_d) integer counts
    range_b: tuple[float, float]
    range_d: tuple[float, float]
    total: int  # trivial mass + binned points (clipped draws drop out)


@dataclass(frozen=True)
class FiniteSpace:
    """A finite dataset as a sampling space: points are (count, 1) row indices."""

    matrix: DistanceMatrix

    @property
    def descriptor(self) -> str:
        return f"finite:{self.matrix.n}"

    def sample_points(self, rng, count):
        return (rng.integers(0, self.matrix.n, size=(rows, 1)) for rows in spaces_mod.row_counts(count))

    def prepare(self, points, scratch):
        """Each of the n positions of (n, B, 1) row indices as (row * N, row): its
        row-major offset into the flat N x N matrix and its column, in ``scratch``."""
        offsets, rows = scratch.array("finite rows", (2, *points.shape[:2]), np.intp)
        np.copyto(rows, points[..., 0], casting="unsafe")
        return list(zip(np.multiply(rows, self.matrix.n, out=offsets), rows))

    def pair_distance(self, p, q):
        """Distances of two prepared positions: one add and one gather from the flat matrix."""
        return self.matrix.entries.take(p[0] + q[1])

    def validate_point(self, p):
        """InvalidPoint unless every (..., 1) row is a whole row index of the matrix."""
        spaces_mod.check_indices(spaces_mod.points_of(p, 1, "finite points are row indices")[..., 0],
                                 self.matrix.n, "row")


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


def pair_blocks(space, rng, count: int, n: int, scratch):
    """(tuples, pair list) of each BLOCK of ``count`` n-tuples read from the stream
    ``space.sample_points(rng, count * n)``: a (B, n, D) view of one point buffer, filled as the
    stream's blocks come, and a (n(n-1)/2, B) view of one pair buffer, both kept in the
    ``spaces.Scratch`` given; the next block overwrites both.  ``prepare`` gets each block once, as
    an (n, B, D) view, and the scratch.  UnsupportedCombination if the stream ends early or a
    distance of the block is negative, infinite or NaN."""
    stream, rows, flat = iter(space.sample_points(rng, count * n)), (), None
    buffer = scratch.array("pairs", (n * (n - 1) // 2, min(count, BLOCK)))
    ij = list(zip(*np.triu_indices(n, 1)))
    for b in range(0, count, BLOCK):
        size, filled = min(BLOCK, count - b), 0
        while filled < size * n:
            while not len(rows):  # the stream's next block, from its first row not yet copied
                rows = next(stream, None)
                if rows is None:
                    raise UnsupportedCombination(f"space {space.descriptor!r} drew fewer than {count * n} points")
            if flat is None:
                flat = scratch.array("points", (min(count, BLOCK) * n, rows.shape[1]), rows.dtype)
            take = rows[:size * n - filled]
            flat[filled:filled + len(take)] = take
            filled, rows = filled + len(take), rows[len(take):]
        tuples, pairs = flat[:size * n].reshape(size, n, -1), buffer[:, :size]
        at = space.prepare(tuples.swapaxes(0, 1), scratch)
        for p, (i, j) in enumerate(ij):
            pairs[p] = space.pair_distance(at[i], at[j])
        if not (pairs.min() >= 0 and pairs.max() < np.inf):  # a NaN fails the first test
            raise UnsupportedCombination(f"space {space.descriptor!r} gave pair distances from {pairs.min()} "
                                         f"to {pairs.max()}; a campaign needs them in [0, inf)")
        yield tuples, pairs


def _tasks(n, k, tuples):
    """(chunk index, count) of each chunk in order: CHUNK tuples a chunk at n = 2k+2, else 1024."""
    size = CHUNK if n == 2 * k + 2 else 1024
    return [(c, min(size, tuples - b)) for c, b in enumerate(range(0, tuples, size))]


def _chunk(space, n, k, seed, chunk_index, count, scratch):
    """(tuples, nontrivial points, each tuple's point count) of each BLOCK of one chunk, the tuples
    a view that the next block overwrites; the O(n^2) kernel when n = 2k+2, else the oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    for tuples, pairs in pair_blocks(space, rng, count, n, scratch):
        if n == 2 * k + 2:
            tb, td = principal_of_pairs(pairs, n, out=scratch.array("kernel", (5, len(tuples))))
            per_tuple = tb < td
            points = np.column_stack([tb[per_tuple], td[per_tuple]])
        else:
            points, per_tuple = diagrams_of_pairs(pairs, n, k)
        yield tuples, points, per_tuple


def _run_chunk(space, n, k, seed, chunk_index, count, scratch=None):
    """The nontrivial points and the trivial count of one chunk; ``scratch`` is the campaign's (a new one if None)."""
    points, trivial = [], count
    scratch = spaces_mod.Scratch() if scratch is None else scratch
    for _, block_points, per_tuple in _chunk(space, n, k, seed, chunk_index, count, scratch):
        points.append(block_points)
        trivial -= int(np.count_nonzero(per_tuple))
    return np.concatenate(points), trivial


_campaign = ()  # a pool worker's ((space, n, k, seed), its own Scratch), set at its start from the initargs


def _start_worker(*campaign):
    global _campaign
    _campaign = campaign, spaces_mod.Scratch()


def _run_pooled(chunk_index, count):
    campaign, scratch = _campaign
    return _run_chunk(*campaign, chunk_index, count, scratch)


def check_campaign(n: int, k: int, tuples: int, seed: int) -> None:
    """UnsupportedCombination unless ``tuples`` n-tuples drawn from ``seed`` make a degree-k campaign."""
    if tuples < 1 or seed < 0:
        raise UnsupportedCombination(f"tuples must be >= 1 and seed >= 0, got tuples={tuples}, seed={seed}")
    if k < 0 or not (n == 2 * k + 2 or k + 2 <= n <= MAX_POINTS):
        raise UnsupportedCombination(
            f"n={n}, k={k}: need k >= 0 and either n = 2k+2 (the principal kernel) "
            f"or k+2 <= n <= {MAX_POINTS} (the oracle)"
        )


def sample_persistence_set(
    space,
    n: int,
    k: int,
    m_max: int,
    seed: int,
    workers: int = 1,
) -> PersistenceSetSample:
    """Estimate the (n, k) persistence set / measure with m_max tuples.

    ``space`` is a space object or any string ``space_of`` resolves.
    n = 2k+2 is the principal path (the O(n^2) kernel, chunks of CHUNK
    tuples); n = 2k+3 .. oracle.MAX_POINTS runs every tuple through the
    brute-force oracle, in chunks of 1024, flattening all diagram points.
    Below 2k+2 (k >= 1) every diagram is empty: nothing is drawn.  Each
    chunk holds one BLOCK of points and pair list.  The pool holds at
    most ``workers``, the chunk count and the machine's CPU count
    processes.
    """
    space = space_of(space)
    if workers < 1:
        raise UnsupportedCombination(f"workers must be >= 1, got workers={workers}")
    check_campaign(n, k, m_max, seed)

    tasks = _tasks(n, k, m_max)
    # under fork the pool starts all its workers at the first submit
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if n < 2 * k + 2:  # every diagram is empty: no flag complex on under 2k+2 points has reduced H_k, k >= 1
        results = [(np.empty((0, 2)), m_max)]
    elif pool_size > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # fork where it exists: 2 workers start 0.2-0.4 s later under forkserver, Linux's default from Python 3.14
        fork = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None
        with ProcessPoolExecutor(max_workers=pool_size, mp_context=fork, initializer=_start_worker,
                                 initargs=(space, n, k, seed)) as pool:
            results = list(pool.map(_run_pooled, *zip(*tasks), chunksize=1))
    else:
        scratch = spaces_mod.Scratch()
        results = [_run_chunk(space, n, k, seed, *t, scratch) for t in tasks]
        del scratch  # its memory serves the merge below and what the caller does next

    points = np.concatenate([r[0] for r in results], axis=0)
    trivial = sum(r[1] for r in results)
    return PersistenceSetSample(
        space=space.descriptor,
        n=n,
        k=k,
        tuples_drawn=m_max,
        points=points,
        trivial_count=trivial,
        seed=seed,
    )


def kept_tuples(space, sample: PersistenceSetSample) -> np.ndarray:
    """(m, n, D): row i is the tuple that produced ``sample.points[i]``, once per diagram point.  Each chunk
    is redrawn from the seed in turn, a block at a time, so a sample read from its file gets its tuples too."""
    space = space_of(space)
    if space.descriptor != sample.space:
        raise UnsupportedCombination(f"the sample is of {sample.space!r}, not of {space.descriptor!r}")
    check_campaign(sample.n, sample.k, sample.tuples_drawn, sample.seed)
    if sample.n < 2 * sample.k + 2 and not len(sample.points):  # nothing was drawn (see sample_persistence_set)
        one = next(iter(space.sample_points(np.random.default_rng(sample.seed), 1)))  # the rows' width and dtype
        return np.empty((0, sample.n, one.shape[1]), one.dtype)
    kept, at, same, scratch = [], 0, True, spaces_mod.Scratch()
    for task in _tasks(sample.n, sample.k, sample.tuples_drawn):
        for tuples, points, per_tuple in _chunk(space, sample.n, sample.k, sample.seed, *task, scratch):
            same &= points.tobytes() == sample.points[at:at + len(points)].tobytes()
            kept.append(np.repeat(tuples, per_tuple, axis=0))
            at += len(points)
    if not same or at != len(sample.points):
        raise UnsupportedCombination(f"{space.descriptor!r} with seed {sample.seed} redraws other points")
    return np.concatenate(kept)


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
    """2-D counts of the nontrivial points; ``total`` adds the trivial count.

    The default range is the data's bounding box, so ``total`` equals
    the tuples drawn when n = 2k+2; with a caller-supplied range,
    points outside it are excluded from counts and total alike.  The
    recorded ranges are the outer bin edges numpy used, which widens a
    zero-width range by 0.5 on each side.  A sample with n != 2k+2 is
    binned per diagram point: a tuple whose diagram holds several points
    adds one count for each.
    """
    if bins_b < 1 or bins_d < 1:
        raise RegionMismatch("bins must be >= 1")
    if max(bins_b, bins_d) > MAX_BINS:
        raise TooLarge(f"bins must be <= {MAX_BINS} per axis, got {bins_b} x {bins_d}")
    pts = sample.points
    if range_b is None:
        range_b = (float(pts[:, 0].min()), float(pts[:, 0].max())) if len(pts) else (0.0, 1.0)
    if range_d is None:
        range_d = (float(pts[:, 1].min()), float(pts[:, 1].max())) if len(pts) else (0.0, 1.0)
    counts = np.zeros((bins_b, bins_d))  # numpy's float counts, exact below 2**53
    for s in range(0, max(len(pts), 1), CHUNK):  # numpy makes index arrays per point it bins
        block, edges_b, edges_d = np.histogram2d(
            pts[s:s + CHUNK, 0], pts[s:s + CHUNK, 1], bins=(bins_b, bins_d), range=(range_b, range_d)
        )
        counts += block
        del block  # before numpy bins the next block
    counts = counts.astype(np.int64)
    return Histogram2D(
        counts=counts,
        range_b=(float(edges_b[0]), float(edges_b[-1])),
        range_d=(float(edges_d[0]), float(edges_d[-1])),
        total=sample.trivial_count + int(counts.sum()),
    )


def density_l1_error(hist: Histogram2D, density: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """L1 distance between the empirical and analytic nontrivial densities.

    Both sides are compared on the nontrivial-mass scale: the empirical
    per-bin density is count/(total tuples * bin area), which integrates
    to the nontrivial fraction, and ``density`` must integrate to the same
    fraction (the trivial mass is excluded from both sides rather than
    renormalized to 1; renormalizing would just multiply the error by the
    reciprocal fraction).  Analytic bin averages use a 32 x 32 subsample grid,
    evaluated one bin row at a time.
    """
    counts = hist.counts
    if counts.sum() == 0:
        raise RegionMismatch("histogram holds no nontrivial mass")
    nb, nd = counts.shape
    (b0, b1), (d0, d1) = hist.range_b, hist.range_d
    wb, wd = (b1 - b0) / nb, (d1 - d0) / nd

    s = 32
    off = (np.arange(s) + 0.5) / s
    tb = b0 + (np.arange(nb)[:, None] + off[None, :]) * wb  # (nb, s)
    td = d0 + (np.arange(nd)[:, None] + off[None, :]) * wd  # (nd, s)
    analytic = np.empty((nb, nd))
    for i in range(nb):  # density of (nd, s, 1) and (nd, 1, s) grids
        analytic[i] = density(tb[i, None, :, None].repeat(nd, axis=0), td[:, None, :]).reshape(nd, s * s).mean(axis=1)
    if float(analytic.sum() * wb * wd) <= 0.0:
        raise RegionMismatch("analytic density vanishes on the histogram box")

    empirical = counts / (hist.total * wb * wd)
    return float(np.abs(empirical - analytic).sum() * wb * wd)


# ---------------------------------------------------------------------------
# The persistence distribution function
# ---------------------------------------------------------------------------


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


def coordinate_cdf(sample: PersistenceSetSample) -> StepCDF:
    """Distribution function of the persistence t_d - t_b under the campaign.

    The empty diagram contributes 0, its maximal persistence.  Only a
    principal sample (n = 2k+2) has one point per nonempty diagram; any
    other is refused.
    """
    if sample.tuples_drawn == 0:
        raise EmptySample("cannot build a CDF from zero tuples")
    if sample.n != 2 * sample.k + 2:
        raise UnsupportedCombination(f"coordinate_cdf needs one-point diagrams, n = 2k+2; "
                                     f"the sample has n={sample.n}, k={sample.k}")
    pts = sample.points
    vals = np.concatenate([pts[:, 1] - pts[:, 0], np.zeros(sample.trivial_count)])
    uniq, counts = np.unique(vals, return_counts=True)
    cdf = np.cumsum(counts) / len(vals)
    return StepCDF(values=uniq, cdf=cdf)


# ---------------------------------------------------------------------------
# Sample files: a CSV plus its required JSON sidecar <csv>.json and its float64 companion <csv>.f64
# ---------------------------------------------------------------------------

SAMPLE_HEADER = "t_b,t_d"
# sidecar key: (PersistenceSetSample field, converter); one table for writer and reader
_SIDECAR = {"tuples": ("tuples_drawn", whole), "trivial": ("trivial_count", whole),
            "seed": ("seed", whole), "space": ("space", str), "n": ("n", whole), "k": ("k", whole)}
_COMPANION_TAG = b"persets1"  # the first 8 bytes of a <csv>.f64 companion


def _companion_header(csv_path, data) -> bytes:
    """The 72 bytes before a companion's ``data``: the tag, the sha256 of the CSV's bytes (read 64 KiB
    at a time) and the sha256 of ``data``."""
    import hashlib
    digest = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return _COMPANION_TAG + digest.digest() + hashlib.sha256(data).digest()


def write_sample(sample: PersistenceSetSample, csv_path) -> None:
    """The CSV, its sidecar <csv>.json and its float64 companion <csv>.f64 (see read_points)."""
    write_csv(csv_path, sample.points, header=SAMPLE_HEADER)
    write_json(str(csv_path) + ".json", {key: getattr(sample, f) for key, (f, _) in _SIDECAR.items()})
    data = np.ascontiguousarray(sample.points, dtype="<f8")
    with open(str(csv_path) + ".f64", "wb") as fh:
        fh.write(_companion_header(csv_path, data))
        data.tofile(fh)


def read_points(csv_path) -> np.ndarray:
    """The (m, 2) points of a sample CSV.  They come from its companion <csv>.f64, little-endian float64
    rows after a header, when that header is the one ``write_sample`` gives the CSV's bytes and those
    rows; otherwise (no companion, any mismatch, an OSError) from ``read_csv``, with its errors."""
    try:
        with open(str(csv_path) + ".f64", "rb") as fh:
            header, data = fh.read(72), np.fromfile(fh, "<f8")
        if len(data) % 2 == 0 and header == _companion_header(csv_path, data):
            return data.reshape(-1, 2)
    except OSError:
        pass
    return read_csv(csv_path, SAMPLE_HEADER)


def read_sample(csv_path) -> PersistenceSetSample:
    points = read_points(csv_path)
    bad = np.flatnonzero(~(np.isfinite(points).all(axis=1) & (points[:, 0] < points[:, 1])))
    if len(bad):
        raise MalformedFile(f"{csv_path}: point {bad[0] + 1} is {tuple(points[bad[0]].tolist())}, "
                            "not finite with t_b < t_d")
    sidecar = str(csv_path) + ".json"
    meta = read_json(sidecar, {key: t for key, (_, t) in _SIDECAR.items()})
    rows, tuples, trivial = len(points), meta["tuples"], meta["trivial"]
    try:
        check_campaign(meta["n"], meta["k"], tuples, meta["seed"])
    except UnsupportedCombination as exc:
        raise MalformedFile(f"{sidecar}: {exc}") from None
    # a principal tuple gives one point or none; an oracle tuple any number
    if not 0 <= trivial <= tuples or (rows + trivial != tuples if meta["n"] == 2 * meta["k"] + 2
                                      else rows < tuples - trivial):
        raise MalformedFile(f"{sidecar}: {rows} point(s) and trivial={trivial} do not fit tuples={tuples} "
                            f"at n={meta['n']}, k={meta['k']}")
    return PersistenceSetSample(points=points, **{f: meta[key] for key, (f, _) in _SIDECAR.items()})


# ---------------------------------------------------------------------------
# SVG plots: fixed 720x720 viewport, deterministic geometry
# ---------------------------------------------------------------------------

_SVG_SIZE = 720
_SVG_MARGIN = 60
_SVG_MAX_POINTS = 20000  # a scatter of more points draws every ceil(len / this)-th one
_SVG_ROWS = 1 << 12  # marks formatted by one ``%`` call and written at once


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
    """Write the frame, one ``template`` line per row of the ``columns`` (_SVG_ROWS rows at a time), the end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for s in range(0, len(columns[0]), _SVG_ROWS):
            rows = np.column_stack([c[s:s + _SVG_ROWS] for c in columns])
            fh.write((template + "\n") * len(rows) % tuple(rows.ravel().tolist()))
        fh.write("</svg>\n")


def svg_scatter(points: np.ndarray, path, angular: bool = True, title: str = "") -> None:
    """Scatter plot of (t_b, t_d) pairs on the square [0, max]^2, all points
    formatted by one ``%.1f`` template: the bytes of one f-string per point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) > _SVG_MAX_POINTS:
        stride = int(math.ceil(len(pts) / _SVG_MAX_POINTS))
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
