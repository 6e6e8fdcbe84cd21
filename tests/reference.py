"""References and fixtures that the tests check persets against; no command uses them.

Only public ``persets`` names are imported, so each reference stays
independent of the internals it checks.

Split metrics.  Any 4-point pseudo-metric decomposes into split metrics
with no split-prime part: after relabeling so that the pairing with
maximal within-sum pairs the diagonals (x1,x3), (x2,x4), the space embeds
in a "box with pendant edges" graph with box sides b, c and pendants
a_1..a_4:

    d12 = a1+a2+b     d23 = a2+a3+c     d34 = a3+a4+b     d41 = a4+a1+c
    d13 = a1+a3+b+c   d24 = a2+a4+b+c

Persistence is nontrivial exactly when all four of |a2-a1| < b,
|a4-a3| < b, |a3-a2| < c, |a1-a4| < c hold, with birth = longest side,
death = shortest diagonal, and persistence bounded by min(b, c).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from persets.errors import EmptyInput, InvalidDescriptor, PersetsError, TooLarge, UnsupportedCombination
from persets.graphs import MetricGraph, build_graph
from persets.metric import DistanceMatrix, squareform, write_csv, write_json
from persets.oracle import diagrams_of_pairs
from persets.principal import principal_of_pairs


class TooFewPoints(PersetsError):
    pass


class SizeMismatch(PersetsError):
    pass


class InfiniteDeath(PersetsError):
    pass


@dataclass(frozen=True)
class PointExtremes:
    """Per-point (t_b, t_d, index of the unique farthest point or None)."""

    per_point: tuple[tuple[float, float, Optional[int]], ...]

    def tb_global(self) -> float:
        return max(p[0] for p in self.per_point)

    def td_global(self) -> float:
        return min(p[1] for p in self.per_point)


@dataclass(frozen=True)
class Diagram:
    """Finite multiset of (birth, death) pairs in one homology degree."""

    degree: int
    points: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.points


def condensed(entries) -> np.ndarray:
    """The i < j entries of matrices (..., n, n), in triu_indices order: (pairs, ...)."""
    entries = np.asarray(entries)
    i, j = np.triu_indices(entries.shape[-1], 1)
    return np.moveaxis(entries[..., i, j], -1, 0)


def vr_diagram(matrix: DistanceMatrix, degree: int) -> Diagram:
    """The oracle's reduced degree-``degree`` diagram of one matrix: a batch of one."""
    points, _ = diagrams_of_pairs(condensed(matrix.entries)[:, None], matrix.n, degree)
    return Diagram(degree, tuple(map(tuple, points.tolist())))


def point_extremes(matrix: DistanceMatrix) -> PointExtremes:
    """Per-point extremes of one matrix, the last two of each sorted row; ties leave the index unset."""
    if matrix.n < 2:
        raise TooFewPoints("point extremes need at least 2 points")
    a, per = matrix.entries, []
    for i, (tb, td) in enumerate(np.sort(a, axis=1)[:, -2:]):
        row = a[i].copy()
        row[i] = -np.inf  # the farthest point is over the *other* indices
        top = np.flatnonzero(row == td)
        per.append((float(tb), float(td), int(top[0]) if top.size == 1 else None))
    return PointExtremes(tuple(per))


def principal_diagram(matrix: DistanceMatrix, k: int) -> Diagram:
    """The degree-k diagram of a 2k+2 point space: one point or empty.

    Fewer than 2k+2 points can never produce degree-k homology, so that
    case is empty; more points (several diagram points are then possible:
    use the oracle) raise SizeMismatch.  t_b < t_d is compared exactly.
    """
    if k < 0:
        raise SizeMismatch("k must be >= 0")
    n = 2 * k + 2
    if matrix.n < n:
        return Diagram(k, ())
    if matrix.n > n:
        raise SizeMismatch(f"degree {k} needs at most {n} points, got {matrix.n}")
    tb, td = principal_of_pairs(condensed(matrix.entries), n)
    return Diagram(k, ((float(tb), float(td)),) if tb < td else ())


def single_linkage(matrix: DistanceMatrix) -> list[float]:
    """The sorted nonzero edge weights of a minimum spanning tree, by Kruskal's algorithm: the
    deaths of the degree-0 diagram (Carlsson and Memoli, "Characterization, stability and
    convergence of hierarchical clustering methods", JMLR 2010)."""
    a, root = matrix.entries, list(range(matrix.n))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    weights = []
    for w, i, j in sorted((float(a[i, j]), i, j) for i, j in combinations(range(matrix.n), 2)):
        if find(i) != find(j):
            root[find(i)] = find(j)
            weights.append(w)
    return [w for w in weights if w > 0]


def vr_diagrams(matrix: DistanceMatrix, max_degree: int) -> list[Diagram]:
    """The oracle's reduced diagrams of degrees 0 .. max_degree of one matrix."""
    return [vr_diagram(matrix, k) for k in range(max_degree + 1)]


def euclidean_image(t_b, t_d):
    """The chord map d -> 2 sin(d/2), coordinatewise: geodesic circle diagrams onto Euclidean ones."""
    tb, td = np.asarray(t_b, dtype=float), np.asarray(t_d, dtype=float)
    return 2.0 * np.sin(tb / 2.0), 2.0 * np.sin(td / 2.0)


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
    return min((k - 1) * math.pi / (2.0 * (k + 1)), math.pi / 4.0) / 2.0


MAX_MATCH_POINTS = 64


def _feasible(cost_a, cost_b, cross, t) -> bool:
    """Perfect matching in the diagonal-augmented bipartite graph at level t.

    Left side: points of A plus one diagonal proxy per point of B; right
    side: points of B plus one diagonal proxy per point of A.  Edges:
    A_i - B_j when the cross cost is <= t, each point to its own diagonal
    proxy when its half persistence is <= t, proxies to proxies always.
    A perfect matching exists iff J(phi) <= t for some partial matching.
    """
    na, nb = len(cost_a), len(cost_b)
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

    # left: A points, then proxies of B
    return all(augment(left, [False] * n_right) for left in range(na + nb))


def bottleneck_distance(d1, d2) -> float:
    """Exact bottleneck distance between two finite Diagrams.

    Binary search over the candidate costs (pairwise l-infinity costs,
    half persistences and 0) with a feasibility check each.  J of a
    partial matching is a max of such terms, so the optimum is a
    candidate; the largest is always feasible, as every point can go to
    the diagonal.
    """
    pa, pb = d1.points, d2.points
    for b, d in pa + pb:
        if math.isinf(d):
            raise InfiniteDeath("bottleneck needs finite deaths")
    if len(pa) + len(pb) > MAX_MATCH_POINTS:
        raise TooLarge(f"combined diagram size {len(pa) + len(pb)} > {MAX_MATCH_POINTS}")

    cost_a = [(d - b) / 2.0 for b, d in pa]
    cost_b = [(d - b) / 2.0 for b, d in pb]
    cross = [[max(abs(ba - bb), abs(da - db)) for bb, db in pb] for ba, da in pa]
    candidates = sorted(set(cost_a) | set(cost_b) | {c for row in cross for c in row} | {0.0})
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cost_a, cost_b, cross, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


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


@dataclass(frozen=True)
class TwoPointMeasure:
    empty_mass: float
    point_mass: float
    location: tuple[float, float]


def two_point_measure(alpha: float, delta: float, n: int) -> TwoPointMeasure:
    """Degree-0 persistence measure of the two-point mm-space, closed form.

    An n-tuple sees only one of the two points with probability
    alpha^n + (1-alpha)^n (the empty reduced diagram); otherwise the
    diagram is the single point (0, delta).
    """
    if not (0.0 < alpha < 1.0) or delta <= 0 or n < 1:
        raise UnsupportedCombination("need 0 < alpha < 1, delta > 0, n >= 1")
    w = alpha**n + (1.0 - alpha) ** n
    return TwoPointMeasure(empty_mass=w, point_mass=1.0 - w, location=(0.0, delta))


def sample_two_point_empty_fraction(alpha: float, n: int, m_max: int, seed: int) -> float:
    """Monte-Carlo estimate of the two-point empty mass."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ones = (rng.random((m_max, n)) < alpha).sum(axis=1)
    return float(np.mean((ones == 0) | (ones == n)))


_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@dataclass(frozen=True)
class SplitDecomposition:
    pendant: tuple[float, float, float, float]  # a1..a4 in box labeling
    b: float  # isolation index of the {x1,x4} | {x2,x3} split
    c: float  # isolation index of the {x1,x2} | {x3,x4} split
    zero_split: tuple[tuple[int, int], tuple[int, int]]  # original indices
    labeling: tuple[int, int, int, int]  # x_{i+1} = input index labeling[i]
    relabeled: np.ndarray = field(compare=False)  # 4x4 matrix in box labeling


def split_decompose(matrix: DistanceMatrix) -> SplitDecomposition:
    """Split-metric decomposition of a 4-point pseudo-metric.

    The pairing with the largest within-sum (ties: lexicographically
    first) has isolation index zero and becomes the diagonal pairing; its
    two competitors give the box sides, and the pendants are Gromov
    products.  Reconstruction from the box is exact by construction.
    """
    if matrix.n != 4:
        raise SizeMismatch("split decomposition needs exactly 4 points")
    a = matrix.entries
    sums = [a[p[0], p[1]] + a[q[0], q[1]] for p, q in _PAIRINGS]
    zero = int(np.argmax(sums))
    s_max = sums[zero]
    # relabel so the zero pairing becomes {(x1,x3),(x2,x4)}
    labeling = ((0, 2, 1, 3), (0, 1, 2, 3), (0, 1, 3, 2))[zero]
    m = a[np.ix_(labeling, labeling)]

    b = 0.5 * (s_max - (m[0, 3] + m[1, 2]))  # beta of {x1,x4} | {x2,x3}
    c = 0.5 * (s_max - (m[0, 1] + m[2, 3]))  # beta of {x1,x2} | {x3,x4}
    pendant = (
        0.5 * (m[0, 1] + m[0, 3] - m[1, 3]),
        0.5 * (m[0, 1] + m[1, 2] - m[0, 2]),
        0.5 * (m[1, 2] + m[2, 3] - m[1, 3]),
        0.5 * (m[0, 3] + m[2, 3] - m[0, 2]),
    )
    return SplitDecomposition(tuple(float(x) for x in pendant), float(b), float(c), _PAIRINGS[zero], labeling, m)


def reconstruct(dec: SplitDecomposition) -> np.ndarray:
    """Distances rebuilt from the box realization, in the input labeling."""
    a1, a2, a3, a4 = dec.pendant
    b, c = dec.b, dec.c
    # d12, d13, d14, d23, d24, d34
    m = squareform([a1 + a2 + b, a1 + a3 + b + c, a4 + a1 + c, a2 + a3 + c, a2 + a4 + b + c, a3 + a4 + b], 4)
    inv = np.argsort(dec.labeling)
    return m[np.ix_(inv, inv)]


def tight_span_persistence(dec: SplitDecomposition) -> Diagram:
    """Degree-1 persistence read off the box realization.

    Independent of the t_b/t_d route: the four strict pendant inequalities
    decide nontriviality, then birth/death are the extreme side/diagonal.
    """
    a1, a2, a3, a4 = dec.pendant
    b, c = dec.b, dec.c
    if abs(a2 - a1) < b and abs(a4 - a3) < b and abs(a3 - a2) < c and abs(a1 - a4) < c:
        m = dec.relabeled
        t_b = max(m[0, 1], m[1, 2], m[2, 3], m[0, 3])
        t_d = min(m[0, 2], m[1, 3])
        return Diagram(1, ((float(t_b), float(t_d)),))
    return Diagram(1, ())


def non_isometric_cycle_figure() -> MetricGraph:
    """Approximate reconstruction of the reference picture of a graph whose 8-cycle is not isometric to a circle.

    Unit edges along the closed walk 1,2,6,5,8,7,3,4 plus the chord [1,5],
    which shortcuts the walk (d(1,5) = 1, not 3), so the walk contributes no
    corner at (2, 4); the chord splits the graph into a 4-cycle and a
    6-cycle glued over [1,5].  The picture fixes the edge set only up to
    reading accuracy.
    """
    walk = [1, 2, 6, 5, 8, 7, 3, 4]
    edges = [(walk[i] - 1, walk[(i + 1) % 8] - 1, 1.0) for i in range(8)]
    return build_graph(8, edges + [(0, 4, 1.0)])  # and the chord [1, 5]


def random_tree(rng: np.random.Generator, vertices: int) -> MetricGraph:
    """Random weighted tree: each vertex hangs off an earlier one."""
    if vertices < 1:
        raise InvalidDescriptor("need at least one vertex")
    return build_graph(vertices, [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0)))
                                  for v in range(1, vertices)])


def sample_graph(graph: MetricGraph, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2) (edge index, offset) rows in two whole passes: every edge index, then every offset.

    ``graphs.sample_graph`` streams the same rows from the same generator calls.
    """
    lens = graph.edge_len
    cdf = (lens / lens.sum()).cumsum()
    cdf /= cdf[-1]
    edges = cdf.searchsorted(rng.random(count), side="right")
    return np.column_stack([edges, rng.random(count) * lens[edges]])


def total_length(graph: MetricGraph) -> float:
    return float(sum(e[2] for e in graph.edges))


def write_graph_json(graph: MetricGraph, path) -> None:
    write_json(path, {"vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]})


def write_matrix_csv(matrix: DistanceMatrix, path) -> None:
    write_csv(path, matrix.entries)
