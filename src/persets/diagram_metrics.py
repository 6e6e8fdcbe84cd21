"""Bottleneck distance, Hausdorff distance between diagram sets, and the
resulting Gromov-Hausdorff lower bound.

The bottleneck matcher is exact: binary search over the finite candidate
set (pairwise l-infinity costs and half-persistences) with a bipartite
feasibility check per candidate.  Diagrams here are tiny (principal
diagrams have at most one point), so no geometric acceleration is needed
and the combined size is capped at 64.

Sets of diagrams come in two shapes: small lists of general Diagrams
(exact all-pairs Hausdorff) and large samples of at-most-one-point
diagrams (vectorized closed form with a KD-tree for the l-infinity
nearest neighbor).  Infinite analytic regions are compared on
deterministic boundary + interior grids; the reported value carries the
grid step as its resolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import regions as reg
from .errors import EmptyInput, InfiniteDeath, TooLarge
from .oracle import Diagram

MAX_MATCH_POINTS = 64


@dataclass(frozen=True)
class MatchingCost:
    """Optimal bottleneck value with the realizing partial matching."""

    value: float
    matched_pairs: tuple[tuple[int, int], ...]
    unmatched_a: tuple[int, ...]
    unmatched_b: tuple[int, ...]


def _points_of(d) -> list[tuple[float, float]]:
    if isinstance(d, Diagram):
        return list(d.points)
    if d is None:
        return []
    if hasattr(d, "point"):  # PrincipalDiagram
        return [] if d.point is None else [d.point]
    return [(float(b), float(v)) for b, v in d]


def _closed_form_small(pa, pb) -> float:
    # both diagrams have at most one point
    if not pa and not pb:
        return 0.0
    if pa and pb:
        (b1, d1), (b2, d2) = pa[0], pb[0]
        linf = max(abs(b1 - b2), abs(d1 - d2))
        return min(linf, max(d1 - b1, d2 - b2) / 2.0)
    (b, d) = (pa or pb)[0]
    return (d - b) / 2.0


def _feasible(cost_a, cost_b, cross, t) -> tuple | None:
    """Perfect matching in the diagonal-augmented bipartite graph at level t.

    Left side: points of A plus one diagonal proxy per point of B; right
    side: points of B plus one diagonal proxy per point of A.  Edges:
    A_i - B_j when the cross cost is <= t, each point to its own diagonal
    proxy when its half persistence is <= t, proxies to proxies always.
    A perfect matching exists iff J(phi) <= t for some partial matching,
    and reading it back gives the realizing matching.
    """
    na, nb = len(cost_a), len(cost_b)
    n_left = na + nb  # A points, then proxies of B
    n_right = nb + na  # B points, then proxies of A

    def neighbors(left):
        if left < na:
            i = left
            for j in range(nb):
                if cross[i][j] <= t:
                    yield j
            if cost_a[i] <= t:
                yield nb + i
        else:
            j = left - na
            if cost_b[j] <= t:
                yield j
            yield from range(nb, n_right)

    match_right = [-1] * n_right

    def augment(left, seen):
        for r in neighbors(left):
            if not seen[r]:
                seen[r] = True
                if match_right[r] == -1 or augment(match_right[r], seen):
                    match_right[r] = left
                    return True
        return False

    for left in range(n_left):
        if not augment(left, [False] * n_right):
            return None

    pairs = tuple(
        (match_right[j], j) for j in range(nb) if match_right[j] != -1 and match_right[j] < na
    )
    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    un_a = tuple(i for i in range(na) if i not in matched_a)
    un_b = tuple(j for j in range(nb) if j not in matched_b)
    return pairs, un_a, un_b


def _matcher(pa, pb) -> MatchingCost:
    """Binary search over candidate costs with a feasibility check each."""
    cost_a = [(d - b) / 2.0 for b, d in pa]
    cost_b = [(d - b) / 2.0 for b, d in pb]
    cross = [
        [max(abs(b1 - b2), abs(d1 - d2)) for b2, d2 in pb] for b1, d1 in pa
    ]
    candidates = sorted(set(cost_a) | set(cost_b) | {c for row in cross for c in row} | {0.0})
    lo, hi = 0, len(candidates) - 1
    best = None
    # the optimum is always one of the candidates: J is a max of such terms
    while lo <= hi:
        mid = (lo + hi) // 2
        sol = _feasible(cost_a, cost_b, cross, candidates[mid])
        if sol is not None:
            best = (candidates[mid], sol)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise AssertionError("bottleneck: no feasible candidate (unreachable)")
    value, (pairs, un_a, un_b) = best
    return MatchingCost(float(value), pairs, un_a, un_b)


def bottleneck(d1, d2) -> MatchingCost:
    """Exact bottleneck distance between two finite diagrams.

    Accepts Diagram, PrincipalDiagram or plain (birth, death) lists.
    Diagrams with at most one point each take the closed form
    min(l_inf(P, Q), max(pers P, pers Q) / 2); the general matcher agrees
    with it (a tested invariant).
    """
    pa, pb = _points_of(d1), _points_of(d2)
    for b, d in pa + pb:
        if math.isinf(d):
            raise InfiniteDeath("bottleneck needs finite deaths")
    if len(pa) + len(pb) > MAX_MATCH_POINTS:
        raise TooLarge(f"combined diagram size {len(pa) + len(pb)} > {MAX_MATCH_POINTS}")

    if len(pa) <= 1 and len(pb) <= 1:
        value = _closed_form_small(pa, pb)
        if pa and pb:
            linf = max(abs(pa[0][0] - pb[0][0]), abs(pa[0][1] - pb[0][1]))
            if linf <= value:
                return MatchingCost(value, ((0, 0),), (), ())
            return MatchingCost(value, (), (0,), (0,))
        return MatchingCost(value, (), tuple(range(len(pa))), tuple(range(len(pb))))

    return _matcher(pa, pb)


def bottleneck_distance(d1, d2) -> float:
    return bottleneck(d1, d2).value


def hausdorff_bottleneck(set_a, set_b) -> float:
    """max over one set of the min bottleneck to the other, symmetrized.

    The empty diagram is a legal element of either list.
    """
    if not set_a or not set_b:
        raise EmptyInput("hausdorff needs nonempty diagram lists")

    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = min(bottleneck_distance(x, y) for y in ys)
            worst = max(worst, best)
        return worst

    return max(directed(set_a, set_b), directed(set_b, set_a))


def gh_lower_bound(set_a, set_b) -> float:
    """Certified-at-sampling-resolution lower bound for d_GH of the sources.

    The degree-k diagram map is 2-Lipschitz from (spaces, GH) to
    (diagrams, bottleneck), so half the diagram-set Hausdorff distance
    lower-bounds the Gromov-Hausdorff distance.
    """
    return hausdorff_bottleneck(set_a, set_b) / 2.0


# ---------------------------------------------------------------------------
# Vectorized paths for big collections of at-most-one-point diagrams
# ---------------------------------------------------------------------------

def _directed_points(pts_a, empty_a, pts_b, empty_b) -> float:
    """sup over A of the min bottleneck into (points of B + maybe empty)."""
    worst = 0.0
    if len(pts_a):
        half_a = (pts_a[:, 1] - pts_a[:, 0]) / 2.0
        best = np.full(len(pts_a), np.inf)
        if len(pts_b):
            # imported here: scipy.spatial triples the import time of persets
            from scipy.spatial import cKDTree
            tree = cKDTree(pts_b)
            nn, _ = tree.query(pts_a, k=1, p=np.inf)
            min_half_b = float(np.min((pts_b[:, 1] - pts_b[:, 0]) / 2.0))
            best = np.minimum(nn, np.maximum(half_a, min_half_b))
        if empty_b:
            best = np.minimum(best, half_a)
        worst = float(best.max(initial=0.0))
    if empty_a:
        # the empty diagram matches itself at 0, else costs min half-pers of B
        if not empty_b:
            worst = max(worst, float(np.min((pts_b[:, 1] - pts_b[:, 0]) / 2.0)))
    return worst


def hausdorff_bottleneck_points(pts_a, pts_b, empty_a: bool = True, empty_b: bool = True) -> float:
    """Hausdorff-bottleneck between two big sets of one-point diagrams.

    ``pts_*`` are (N, 2) arrays of (birth, death); ``empty_*`` say whether
    the empty diagram belongs to the set (any campaign with a trivial
    tuple has it).  Equivalent to hausdorff_bottleneck on the expanded
    lists, but runs in O(N log N).
    """
    pts_a = np.asarray(pts_a, dtype=float).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=float).reshape(-1, 2)
    if (len(pts_a) == 0 and not empty_a) or (len(pts_b) == 0 and not empty_b):
        raise EmptyInput("hausdorff needs nonempty diagram sets")
    return max(
        _directed_points(pts_a, empty_a, pts_b, empty_b),
        _directed_points(pts_b, empty_b, pts_a, empty_a),
    )


# ---------------------------------------------------------------------------
# Analytic-region comparison
# ---------------------------------------------------------------------------

def _distance_to_region(points, region, boundary) -> np.ndarray:
    """l-infinity distance from each point to a solid region: zero inside,
    else min over the dense boundary polyline."""
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points))
    inside = reg.contains(region, points[:, 0], points[:, 1], tol=1e-12)
    out[inside] = 0.0
    rest = np.flatnonzero(~inside)
    for start in range(0, len(rest), 4096):
        block = rest[start : start + 4096]
        diff = np.abs(points[block, None, :] - boundary[None, :, :]).max(axis=2)
        out[block] = diff.min(axis=1)
    return out


def _directed_region(region_b, region_a, step: float, interior_step: float) -> float:
    """sup over region B of the bottleneck distance to region A's diagram set
    (its solid region plus the empty diagram)."""
    bnd_a = reg.boundary_points(region_a, step)
    cand = [reg.boundary_points(region_b, step)]
    interior = reg.interior_grid(region_b, interior_step)
    best = 0.0
    for pts in cand:
        half = (pts[:, 1] - pts[:, 0]) / 2.0
        g = np.minimum(_distance_to_region(pts, region_a, bnd_a), half)
        best = max(best, float(g.max(initial=0.0)))
    # interior points can only win where their persistence allows it
    half = (interior[:, 1] - interior[:, 0]) / 2.0
    keep = half > best
    if np.any(keep):
        pts = interior[keep]
        g = np.minimum(_distance_to_region(pts, region_a, bnd_a), half[keep])
        best = max(best, float(g.max(initial=0.0)))
    return best


def compare_regions(region_a, region_b, step: float = 1e-3, interior_step: float = 5e-3) -> dict:
    """Hausdorff-bottleneck and GH lower bound between two analytic regions.

    Grid-based: boundary polylines at ``step`` plus interior grids at
    ``interior_step``; both distances are 1-Lipschitz in the grid points,
    so the result is accurate to about the grid resolution, which is
    reported alongside.
    """
    d = max(
        _directed_region(region_b, region_a, step, interior_step),
        _directed_region(region_a, region_b, step, interior_step),
    )
    return {
        "hausdorff_bottleneck": d,
        "gh_lower_bound": d / 2.0,
        "resolution": max(step, interior_step),
    }


def circle_vs_sphere_crosspolytope_bound(k: int) -> float:
    """Closed-form GH lower bound between the circle and the k-sphere.

    The 2k+2 vertex cross-polytope inscribed in the k-sphere has diagram
    (pi/2, pi), while every circle diagram in the principal degree-k set
    has birth >= k pi/(k+1) and persistence <= pi/(k+1).  The bottleneck
    distance from the cross-polytope diagram to the whole circle set is
    then min(pi/4, (k-1) pi / (2k+2)), which equals pi/4 from k = 3 on,
    giving the bound pi/8.
    """
    if k < 1:
        raise EmptyInput("need k >= 1")
    matched = (k - 1) * math.pi / (2.0 * (k + 1))
    unmatched = math.pi / 4.0
    return min(matched, unmatched) / 2.0
