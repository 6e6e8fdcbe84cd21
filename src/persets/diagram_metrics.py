"""Hausdorff distance between sets of diagrams, and the resulting
Gromov-Hausdorff lower bound.

The sets are large sets of at-most-one-point diagrams: a closed form per
pair, maximized exactly by a numpy grid search that bounds every point's
l-infinity nearest neighbor from box counts and searches only the points
that can reach the maximum.  Either side of that search is a sample or
an analytic region, which enters as its deterministic boundary +
interior grids; a comparison with a region is accurate to about the grid
step.
"""
from __future__ import annotations

import math

import numpy as np

from . import regions as reg
from .errors import EmptyInput, NonFinite

_CELL_POINTS = 4  # mean points per grid cell
_BLOCK = 1 << 15  # point pairs per numpy step, or _CELL_POINTS times the cells or points
_ROUND = 64  # pairs per point per step of an exact search


class _Bucket:
    """One point set on a grid of ``g`` x ``g`` square cells of side
    ``side`` from corner ``lo``: the caller's (N, 2) array, ``order``, the
    permutation that lists its rows in cell order (row-major), the CSR
    start of every cell and a summed-area table of cell counts, all three
    as ``itype`` integers.  A position in cell order is row ``order[pos]``.

    A computed cell index is off by less than a cell from the exact
    position, so two points whose cells are m >= 1 apart in a coordinate
    are more than (m - 1 - tiny) * side apart there.  The bounds below
    add one cell of slack on top of that.
    """

    def __init__(self, pts, lo, side, g, itype):
        self.g, self.pts = g, pts
        cell = np.zeros(len(pts), dtype=itype)
        for s in range(0, len(pts) if g > 1 else 0, _BLOCK):  # no float temporary as long as the set
            c = cell[s:s + _BLOCK]
            for axis in (1, 0):  # row-major: y g + x, one column at a time
                c *= g
                c += np.minimum(((pts[s:s + _BLOCK, axis] - lo[axis]) / side).astype(np.intp), g - 1)
        counts = np.bincount(cell, minlength=g * g)
        self.start = np.zeros(g * g + 1, dtype=itype)
        np.cumsum(counts, out=self.start[1:])
        sat = np.zeros((g + 1, g + 1), dtype=itype)
        np.cumsum(counts.reshape(g, g), axis=0, out=sat[1:, 1:])
        del counts
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        self.sat = sat.ravel()
        order = np.argsort(cell)  # any order within a cell: a min over it is exact
        del cell
        self.order = order.astype(itype, copy=False)

    def rows(self, pos):
        """The (len(pos), 2) points at cell-order positions ``pos``."""
        return self.pts.take(self.order[pos], axis=0)

    def _box(self, cells, reach):
        g = self.g
        x, y = cells % g, cells // g
        return (np.maximum(x - reach, 0), np.minimum(x + reach, g - 1) + 1,
                np.maximum(y - reach, 0), np.minimum(y + reach, g - 1) + 1)

    def count(self, cells, reach):
        """Points of this set in the box of cells within ``reach`` of each cell."""
        x0, x1, y0, y1 = self._box(cells, reach)
        w, s = self.g + 1, self.sat
        return s[y1 * w + x1] - s[y0 * w + x1] - s[y1 * w + x0] + s[y0 * w + x0]

    def first_reach(self, q):
        """Per cell of bucket q, the smallest box reach around it that holds
        a point of this (nonempty) set, 0 for an empty cell: a bisection over
        box counts, _BLOCK // _CELL_POINTS occupied cells at a time."""
        occupied = np.flatnonzero(np.diff(q.start))
        reach = np.zeros(self.g * self.g, dtype=q.start.dtype)
        step = max(1, _BLOCK // _CELL_POINTS)
        for s in range(0, len(occupied), step):
            cells = occupied[s : s + step]
            lo, hi = np.zeros_like(cells), np.full_like(cells, self.g - 1)  # that box is the whole grid
            for _ in range((self.g - 1).bit_length()):
                mid = (lo + hi) >> 1
                hit = self.count(cells, mid) > 0
                hi = np.where(hit, mid, hi)
                lo = np.where(hit, lo, mid + 1)
            reach[cells] = hi
        return reach

    def nearest(self, q, i, cells, reach, floor):
        """Per point i of bucket q, in its cell of ``cells``, the l-infinity
        distance to the nearest point of this set in the box of cells within
        ``reach`` of that cell (inf for an empty box), or else some distance
        <= floor: the boxes are scanned _BLOCK pairs at a time (at most
        _ROUND per point), each up to the first pairs that reach the floor."""
        x0, x1, y0, y1 = self._box(cells, reach)
        rows = y1 - y0  # each box is one CSR range per row
        owner = np.repeat(np.arange(len(i)), rows)
        row = np.arange(len(owner)) - np.repeat(np.cumsum(rows) - rows, rows) + y0[owner]
        first = self.start[row * self.g + x0[owner]]
        ends = np.cumsum(self.start[row * self.g + x1[owner]] - first)  # of the ranges laid end to end
        shift = first - np.concatenate(([0], ends[:-1]))
        stop = ends[np.cumsum(rows) - 1]
        begin = np.concatenate(([0], stop[:-1]))
        best, here = np.full(len(i), np.inf), q.rows(i)
        live, done = np.flatnonzero(stop > begin), 0
        while len(live):
            # the next pairs of each live point, laid end to end
            width = max(1, min(_ROUND, _BLOCK // len(live)))
            take = np.minimum(stop[live] - begin[live] - done, width)
            heads = np.cumsum(take) - take
            pos = np.arange(heads[-1] + take[-1]) + np.repeat(begin[live] + done - heads, take)
            pos += shift[np.searchsorted(ends, pos, side="right")]  # now the index into this set
            diff = self.rows(pos)
            diff -= np.repeat(here[live], take, axis=0)
            np.abs(diff, out=diff)
            dist = np.maximum(diff[:, 0], diff[:, 1])
            best[live] = np.minimum(best[live], np.minimum.reduceat(dist, heads))
            done += width
            live = live[(best[live] > floor) & (begin[live] + done < stop[live])]
        return best


def _grid(arrays):
    """Every distinct (nonempty) point array on one grid of about
    _CELL_POINTS points per cell: a bucket per array, by id, and the cell
    side."""
    arrays = list({id(p): p for p in arrays}.values())
    lo = [min(p[:, k].min() for p in arrays) for k in (0, 1)]  # a column at a time is fast
    extent = float(max(max(p[:, k].max() for p in arrays) - lo[k] for k in (0, 1)))
    n = sum(map(len, arrays))
    g = max(1, math.isqrt(n // _CELL_POINTS))
    side = extent / g
    if not 0.0 < side < math.inf:  # all points (nearly) equal, or wider than the float range
        g, side = 1, math.inf
    itype = np.int32 if n < 2**31 else np.intp  # holds every cell id and point count
    return {id(p): _Bucket(p, lo, side, g, itype) for p in arrays}, side


def _runs(q, reach, t_min_half):
    """q's points in runs of _BLOCK // _CELL_POINTS: per run its first
    index and its points' cells, box reaches and caps.  A cap is the half
    persistence or, if larger, t_min_half: the least one of the other set
    when that set lacks the empty diagram, else None."""
    step = max(1, _BLOCK // _CELL_POINTS)
    for s in range(0, len(q.pts), step):
        e = min(s + step, len(q.pts))
        c0, c1 = np.searchsorted(q.start, np.array([s, e - 1], q.start.dtype), side="right") - 1
        cells = np.repeat(np.arange(c0, c1 + 1), np.diff(np.clip(q.start[c0 : c1 + 2], s, e)))
        p = q.rows(slice(s, e))
        half = (p[:, 1] - p[:, 0]) / 2.0
        yield s, cells, reach[cells], half if t_min_half is None else np.maximum(half, t_min_half)


def _exact_max(q, t, t_min_half, reach, floor, side):
    """The larger of floor and min(nn, cap) of every query point whose upper
    bound exceeds the floor, which rises as the points are searched, a run
    of q at a time."""
    # a box has at most g rows; blocks grow from one point, so that the floor rises early
    block, size = max(1, _BLOCK // max(_ROUND, t.g)), 1
    for s, cells, r, cap in _runs(q, reach, t_min_half):
        ub = np.minimum((r + 2) * side, cap)
        i = np.flatnonzero(ub > floor)
        # a point of t in the query's own cell at distance <= floor rules it out
        ub = np.minimum(ub[i], t.nearest(q, s + i, cells[i], 0, floor))
        keep = np.flatnonzero(ub > floor)
        keep = keep[np.argsort(-ub[keep])]
        i, ub = i[keep], ub[keep]
        done = 0
        while done < len(i) and ub[done] > floor:  # in decreasing ub
            run = np.arange(done, min(done + size, len(i)))
            done, size = done + size, min(2 * size, block)
            run = run[ub[run] > floor]
            # every point of t at distance <= ub lies within ub / side + 2 cells
            box = ub[run] / side
            box = np.where(box < t.g, box, t.g).astype(np.intp) + 2
            near = t.nearest(q, s + i[run], cells[i[run]], box, floor)
            floor = max(floor, float(np.minimum(near, cap[i[run]]).max()))
    return floor


def region_points(region, step: float, interior_step: float):
    """A region as one side of hausdorff_bottleneck_points: its boundary
    polyline at ``step`` plus its interior grid at ``interior_step``, and
    ``(region, boundary)``.  TooLarge, before either is made, if either would pass the cap."""
    reg.check_grids(region, step, interior_step)
    interior = reg.interior_grid(region, interior_step)  # first, so its own boundary is gone before ours is made
    boundary = reg.boundary_points(region, step)
    return np.concatenate((boundary, interior)), (region, boundary)


def hausdorff_bottleneck_points(pts_a, pts_b, empty_a: bool = True, empty_b: bool = True,
                                region_a=None, region_b=None) -> float:
    """Hausdorff-bottleneck between two big sets of one-point diagrams.

    ``pts_*`` are (N, 2) arrays of finite (birth, death), else NonFinite;
    ``empty_*`` say whether the empty diagram belongs to the set (any
    campaign with a trivial tuple has it).  Equal, bit for bit, to the
    all-pairs Hausdorff distance of exact bottleneck distances on the
    expanded lists: a point P of A is
    min(nn(P), max(pers P, min pers of B) / 2) from the points of B, nn
    the l-infinity distance to the nearest one, and pers P / 2 from the
    empty diagram.  A side that discretizes a region (``region_*`` is
    ``(region, boundary)``, see region_points) stands for the solid
    region: a point of the other side inside it (tol 1e-12) is at 0, and
    any other point takes its nn on the boundary polyline.

    The maximum needs few nn: all sets go on one uniform grid, box
    counts bound every point's value from below and above, and the
    largest lower bound is a floor.  Only points whose upper bound clears
    the floor are searched: first in their own cell, which settles most
    of them when the sets overlap, then, in decreasing upper bound, in
    the cells the bound reaches; both a run of _BLOCK // _CELL_POINTS
    points at a time.  A scan stops at the first distance that cannot
    raise the floor (the early break of Taha & Hanbury, "An efficient
    algorithm for calculating the exact Hausdorff distance", TPAMI 2015);
    a finished one raises the floor.  Time O(N log N) plus the searches
    near the maximum.  Memory: the caller's arrays, read through an int32
    permutation into cell order (4 bytes a point), int32 cell tables
    (about 6 bytes a point) and O(_BLOCK) scratch; the traced peak is
    about 13 bytes per input point for 233k s1 points against 132k sphere
    points, 24 for 2^17 against 2^16 uniform points.
    """
    pts_a = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    if not (np.isfinite(pts_a).all() and np.isfinite(pts_b).all()):
        raise NonFinite("diagram points must be finite")
    if (len(pts_a) == 0 and not empty_a) or (len(pts_b) == 0 and not empty_b):
        raise EmptyInput("hausdorff needs nonempty diagram sets")
    # differences of coordinates near +-1.8e308 overflow to inf, as in an
    # all-pairs search; such sets get one cell of side inf (ub / side may be inf / inf)
    with np.errstate(over="ignore", invalid="ignore"):
        # least and largest half-persistence of each set (halving is monotone: it commutes with min and max)
        (min_a, max_a), (min_b, max_b) = ((float(h.min(initial=math.inf)) / 2.0, float(h.max(initial=0.0)) / 2.0)
                                          for h in (p[:, 1] - p[:, 0] for p in (pts_a, pts_b)))
        floor = 0.0
        # the empty diagram matches itself at 0, else costs min half-pers of the other set
        if empty_a and not empty_b:
            floor = max(floor, min_b)
        if empty_b and not empty_a:
            floor = max(floor, min_a)
        if not (len(pts_a) and len(pts_b)):  # the points have only the empty diagram to go to
            return max(floor, max_a, max_b)

        directed = []
        for q, t, t_min_half, t_empty, t_region in ((pts_a, pts_b, min_b, empty_b, region_b),
                                                    (pts_b, pts_a, min_a, empty_a, region_a)):
            if t_region is not None:
                region, t = t_region
                q = q[~reg.contains(region, q[:, 0], q[:, 1], tol=1e-12)]
            if len(q):
                directed.append((q, t, None if t_empty else t_min_half))
        if not directed:  # every point lies inside the other side's region
            return floor
        buckets, side = _grid([p for q, t, _ in directed for p in (q, t)])
        searches = []
        for q, t, t_min_half in directed:
            q, t = buckets[id(q)], buckets[id(t)]
            reach = t.first_reach(q)
            # no point of t within r - 1 cells: farther than (r - 1) side, less one cell of slack
            for _, _, r, cap in _runs(q, reach, t_min_half):
                floor = max(floor, float(np.minimum(np.where(r > 2, (r - 2) * side, 0.0), cap).max()))
            searches.append((q, t, t_min_half, reach))
        for search in searches:
            floor = _exact_max(*search, floor, side)
        return floor
