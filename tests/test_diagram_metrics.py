import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import diagram_metrics as dmx
from persets import engine, metric, regions, spaces
from persets.errors import EmptyInput, NonFinite, TooLarge

from reference import (Diagram, InfiniteDeath, bottleneck_distance, circle_vs_sphere_crosspolytope_bound,
                       gh_lower_bound, hausdorff_bottleneck, principal_diagram)

PI = math.pi
EMPTY = Diagram(degree=1, points=())


def dgm(*pts):
    return Diagram(degree=1, points=tuple(pts))


def random_diagram(rng, max_pts=3):
    pts = []
    for _ in range(int(rng.integers(0, max_pts + 1))):
        b = float(rng.uniform(0, 2))
        pts.append((b, b + float(rng.uniform(1e-3, 2))))
    return dgm(*pts)


def test_bottleneck_identical_is_zero(rng):
    for _ in range(50):
        d = random_diagram(rng)
        assert bottleneck_distance(d, d) == 0.0


def test_bottleneck_point_vs_empty_is_half_persistence():
    d = dgm((1.0, 1.8))
    assert bottleneck_distance(d, EMPTY) == pytest.approx(0.4)
    assert bottleneck_distance(EMPTY, d) == pytest.approx(0.4)
    assert bottleneck_distance(EMPTY, EMPTY) == 0.0


def test_bottleneck_optimizer_pair_from_sphere_example():
    # the diagram realizing the circle/sphere Hausdorff distance
    x2, y2 = 1.3788, 2.2375
    x1 = (2 * PI + x2 - y2) / 3.0
    y1 = 2.0 * (PI - x2 + y2) / 3.0
    value = bottleneck_distance(dgm((x1, y1)), dgm((x2, y2)))
    assert value == pytest.approx(0.4293, abs=5e-4)


def test_bottleneck_matcher_agrees_with_closed_form(rng):
    bs = rng.uniform(0, 3, size=(100_000, 2))
    ps = rng.uniform(1e-6, 3, size=(100_000, 2))
    # vectorized sweep of the closed form against the public op
    death = bs + ps
    vals_closed = np.minimum(
        np.maximum(np.abs(bs[:, 0] - bs[:, 1]), np.abs(death[:, 0] - death[:, 1])),
        np.maximum(death[:, 0] - bs[:, 0], death[:, 1] - bs[:, 1]) / 2.0,
    )
    for i in range(0, 100_000, 997):
        got = bottleneck_distance(
            dgm((bs[i, 0], bs[i, 0] + ps[i, 0])), dgm((bs[i, 1], bs[i, 1] + ps[i, 1]))
        )
        assert got == vals_closed[i]


def test_bottleneck_matcher_on_multipoint_diagrams():
    a = dgm((0.0, 1.0), (0.0, 4.0))
    b = dgm((0.1, 1.1), (0.2, 4.0))
    # matching both pairs costs max(0.1, 0.2); dropping the short bars costs 0.55
    assert bottleneck_distance(a, b) == pytest.approx(0.2)
    c = dgm((0.0, 0.2), (1.0, 9.0))
    d = dgm((1.5, 9.0))
    # (1,9)-(1.5,9) costs 0.5, (0,0.2) dies on the diagonal at 0.1
    assert bottleneck_distance(c, d) == pytest.approx(0.5)


def integer_diagram(rng, max_pts=3):
    pts = []
    for _ in range(int(rng.integers(0, max_pts + 1))):
        b = float(rng.integers(0, 4))
        pts.append((b, b + float(rng.integers(1, 4))))
    return dgm(*pts)


def brute_force_bottleneck(a, b):
    """Min over every partial matching of a and b of its cost: the largest
    l-infinity distance of a matched pair and half persistence of an
    unmatched point (0 for none), in the matcher's float operations."""
    pa, pb = a.points, b.points
    best = math.inf
    for targets in itertools.product([None, *range(len(pb))], repeat=len(pa)):
        matched = [j for j in targets if j is not None]
        if len(set(matched)) < len(matched):
            continue  # two points of a on one point of b
        terms = [0.0]
        for (ba, da), j in zip(pa, targets):
            terms.append((da - ba) / 2.0 if j is None else max(abs(ba - pb[j][0]), abs(da - pb[j][1])))
        terms += [(db - bb) / 2.0 for j, (bb, db) in enumerate(pb) if j not in matched]
        best = min(best, max(terms))
    return best


def test_bottleneck_is_the_cheapest_partial_matching(rng):
    # uniform coordinates, and small integers, where costs tie
    for draw in (random_diagram, integer_diagram):
        for _ in range(300):
            a, b = draw(rng), draw(rng)
            assert bottleneck_distance(a, b) == brute_force_bottleneck(a, b)


def test_bottleneck_symmetry_and_triangle(rng):
    for _ in range(2000):
        a, b, c = (random_diagram(rng) for _ in range(3))
        ab = bottleneck_distance(a, b)
        assert ab == bottleneck_distance(b, a)
        assert ab <= bottleneck_distance(a, c) + bottleneck_distance(c, b) + 1e-12


def test_bottleneck_errors():
    with pytest.raises(InfiniteDeath):
        bottleneck_distance(dgm((0.0, math.inf)), EMPTY)
    big = dgm(*[(float(i), float(i) + 1.0) for i in range(40)])
    with pytest.raises(TooLarge):
        bottleneck_distance(big, big)


def test_hausdorff_identical_sets(rng):
    sets = [random_diagram(rng) for _ in range(6)]
    assert hausdorff_bottleneck(sets, list(sets)) == 0.0


def test_hausdorff_empty_vs_point():
    assert hausdorff_bottleneck([EMPTY], [dgm((0.5, 1.5))]) == pytest.approx(0.5)
    with pytest.raises(EmptyInput):
        hausdorff_bottleneck([], [EMPTY])


def test_hausdorff_monotone_under_enlargement(rng):
    a = [random_diagram(rng) for _ in range(4)]
    b = [random_diagram(rng) for _ in range(5)]
    base = hausdorff_bottleneck(a, b)
    enlarged = hausdorff_bottleneck(a, b + a)
    # adding the other side's diagrams can only help the sup-inf
    assert enlarged <= base + 1e-12


def test_vectorized_hausdorff_matches_exact(rng):
    for trial in range(20):
        na, nb = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        pa = np.column_stack([rng.uniform(0, 2, na), np.zeros(na)])
        pa[:, 1] = pa[:, 0] + rng.uniform(1e-3, 2, na)
        pb = np.column_stack([rng.uniform(0, 2, nb), np.zeros(nb)])
        pb[:, 1] = pb[:, 0] + rng.uniform(1e-3, 2, nb)
        ea, eb = bool(rng.integers(0, 2)), bool(rng.integers(0, 2))
        list_a = [dgm(tuple(p)) for p in pa] + ([EMPTY] if ea else [])
        list_b = [dgm(tuple(p)) for p in pb] + ([EMPTY] if eb else [])
        exact = hausdorff_bottleneck(list_a, list_b)
        fast = dmx.hausdorff_bottleneck_points(pa, pb, empty_a=ea, empty_b=eb)
        assert fast == exact


# ---------------------------------------------------------------------------
# hausdorff_bottleneck_points against an all-pairs reference
# ---------------------------------------------------------------------------

EMPTY_FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def all_pairs_nearest(pa, pb):
    """l-infinity nearest-neighbour distance of every point of pa in pb and
    of every point of pb in pa, from blocks of the full pair matrix."""
    nn_a, nn_b = np.full(len(pa), np.inf), np.full(len(pb), np.inf)
    step = max(1, (1 << 20) // max(len(pb), 1))
    with np.errstate(over="ignore"):
        for s in range(0, len(pa), step):
            d = np.maximum(np.abs(pa[s : s + step, :1] - pb[:, 0]), np.abs(pa[s : s + step, 1:] - pb[:, 1]))
            nn_a[s : s + step] = d.min(axis=1, initial=np.inf)
            np.minimum(nn_b, d.min(axis=0, initial=np.inf), out=nn_b)
    return nn_a, nn_b


def reference_hausdorff(pa, pb, empty_a, empty_b, nearest):
    """The bottleneck closed form of two one-point diagrams, min over one
    set and max over the other, in the same float operations."""

    def directed(p, nn, ep, q, eq):
        with np.errstate(over="ignore"):
            half_p, half_q = (p[:, 1] - p[:, 0]) / 2.0, (q[:, 1] - q[:, 0]) / 2.0
        best = np.full(len(p), np.inf)
        if len(q):
            best = np.minimum(nn, np.maximum(half_p, half_q.min()))
        if eq:
            best = np.minimum(best, half_p)
        worst = float(best.max(initial=0.0))
        if ep and not eq:
            worst = max(worst, float(half_q.min()))
        return worst

    nn_a, nn_b = nearest
    return max(directed(pa, nn_a, empty_a, pb, empty_b), directed(pb, nn_b, empty_b, pa, empty_a))


def assert_matches_all_pairs(pa, pb):
    pa = np.asarray(pa, dtype=float).reshape(-1, 2)
    pb = np.asarray(pb, dtype=float).reshape(-1, 2)
    nearest = all_pairs_nearest(pa, pb)
    for ea, eb in EMPTY_FLAGS:
        if (len(pa) == 0 and not ea) or (len(pb) == 0 and not eb):
            with pytest.raises(EmptyInput):
                dmx.hausdorff_bottleneck_points(pa, pb, empty_a=ea, empty_b=eb)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dmx.hausdorff_bottleneck_points(pa, pb, empty_a=ea, empty_b=eb)
        want = reference_hausdorff(pa, pb, ea, eb, nearest)
        assert got == want, (ea, eb)


@pytest.mark.parametrize("seed", [3, 4])
def test_grid_search_matches_all_pairs_on_campaigns(seed):
    # what `persets compare` gets: about 15k points per set
    a = engine.sample_persistence_set(spaces.parse_space("s1"), 4, 1, 1 << 17, seed=seed)
    b = engine.sample_persistence_set(spaces.parse_space("sphere:m=2"), 4, 1, 1 << 17, seed=seed + 100)
    assert len(a.points) > 10_000 and len(b.points) > 10_000
    assert_matches_all_pairs(a.points, b.points)


def test_grid_search_on_a_set_against_itself_and_its_subsets(rng):
    a = engine.sample_persistence_set(spaces.parse_space("s1"), 4, 1, 1 << 14, seed=5).points
    persistent = a[np.argsort(a[:, 1] - a[:, 0])[-50:]]
    for b in (a, a[rng.permutation(len(a))], a[::7], a[:1], persistent):
        assert_matches_all_pairs(a, b)
    assert dmx.hausdorff_bottleneck_points(a, a) == 0.0
    assert dmx.hausdorff_bottleneck_points(a, a, empty_a=False, empty_b=False) == 0.0


@pytest.mark.parametrize("block, round_pairs", [(1, 1), (7, 3), (1 << 16, 64)])
def test_grid_search_on_integer_ties_and_duplicates(block, round_pairs):
    # at 2 points per cell, 128 points of {0..8}^2 make an 8 x 8 grid of
    # unit cells: every point lies on cell edges, distances tie, and most
    # points repeat
    rng = np.random.default_rng(8)
    with mock.patch.object(dmx, "_BLOCK", block), mock.patch.object(dmx, "_ROUND", round_pairs), \
            mock.patch.object(dmx, "_CELL_POINTS", 2):
        for _ in range(20):
            pts = rng.integers(0, 9, size=(128, 2)).astype(float)
            pts[:2] = [[0.0, 0.0], [8.0, 8.0]]
            pts = pts[rng.permutation(128)]
            split = int(rng.integers(1, 128))
            assert_matches_all_pairs(pts[:split], pts[split:])


@given(seed=st.integers(0, 2**32 - 1), na=st.integers(0, 40), nb=st.integers(0, 40),
       scale=st.sampled_from([1.0, 0.1, 1e-310, 4e307]), cell_points=st.sampled_from([1, 2, 5]),
       block=st.sampled_from([1, 7, 1 << 16]), round_pairs=st.sampled_from([1, 3, 64]))
@settings(max_examples=150, deadline=None)
def test_grid_search_matches_all_pairs_on_small_integer_sets(seed, na, nb, scale, cell_points, block, round_pairs):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, size=(na, 2)) * scale
    b = rng.integers(0, 5, size=(nb, 2)) * scale
    with mock.patch.object(dmx, "_BLOCK", block), mock.patch.object(dmx, "_ROUND", round_pairs), \
            mock.patch.object(dmx, "_CELL_POINTS", cell_points):
        assert_matches_all_pairs(a, b)


@pytest.mark.parametrize("block", [None, 1 << 8])
def test_grid_search_on_points_along_a_line(block):
    # a line fills about g of the g x g cells, so each holds about sqrt(N)
    # points; runs of _BLOCK // _CELL_POINTS points then cut through cells
    rng = np.random.default_rng(10)
    a = rng.uniform(0, 1, (3000, 1)) + [0.0, 0.5]
    b = rng.uniform(0, 1, (2000, 1)) + [0.0, 0.5]
    with mock.patch.object(dmx, "_BLOCK", block or dmx._BLOCK):
        for pb in (b, a, a + 1e-3):
            assert_matches_all_pairs(a, pb)


def test_grid_search_memory_per_point():
    # the cell-sorted coordinates (16 bytes a point), int32 cell tables
    # and O(_BLOCK) scratch; the full-length temporaries of a whole-array
    # search took about 80 bytes a point here
    rng = np.random.default_rng(11)
    a, b = rng.random((1 << 17, 2)), rng.random((1 << 16, 2))
    tracemalloc.start()
    try:
        dmx.hausdorff_bottleneck_points(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * (len(a) + len(b))


def test_grid_search_memory_per_point_on_campaign_samples():
    # a reference to each sample and an int32 permutation into cell order;
    # cell-sorted copies of both (16 bytes a point) took 26 bytes per input point
    a = engine.sample_persistence_set("s1", 4, 1, 1 << 19, seed=3).points
    b = engine.sample_persistence_set("sphere:m=2", 4, 1, 1 << 18, seed=3).points
    tracemalloc.start()
    try:
        dmx.hausdorff_bottleneck_points(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * (len(a) + len(b))


def test_region_points_memory_per_point():
    # the interior grid comes first, so its own boundary and membership scratch are gone before
    # the caller's boundary is made: 32 bytes a point here, 45 with both alive at once
    region = regions.parse_region("ptolemaic:cap=100")
    tracemalloc.start()
    try:
        pts, (_, boundary) = dmx.region_points(region, 1e-3, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * len(pts), peak / len(pts)
    assert pts.tobytes() == np.concatenate((boundary, regions.interior_grid(region, 0.2))).tobytes()


def test_grid_search_on_clusters_far_apart():
    rng = np.random.default_rng(9)
    u, v = rng.random((300, 2)), rng.random((200, 2))
    # long bars reach across the gap, so caps do not settle the answer
    bars = np.column_stack([u[:, 0], u[:, 1] + 1e3])
    for a, b in [(u, v + 1e6), (u, np.concatenate([v, v + 1e6])),
                 (np.concatenate([u, u + [0.0, 1e3]]), v + [1e3, 1e3]),
                 (bars, np.concatenate([v + [0.0, 1e3], v + 5e2])), (u * 1e-9, v * 1e-9 + 1.0)]:
        assert_matches_all_pairs(a, b)


def test_grid_search_on_zero_extent_sets_and_single_points(rng):
    one = np.array([[1.0, 2.0]])
    spread = np.column_stack([rng.uniform(0, 2, 40), rng.uniform(2, 4, 40)])
    for a, b in [(one, one), (one, np.repeat(one, 50, axis=0)), (np.repeat(one, 50, axis=0), spread),
                 (one, [[1.5, 2.0]]), (one, [[1.0, 2.0 + 2.0**-51]]), (one, spread[:1])]:
        assert_matches_all_pairs(a, b)
        assert_matches_all_pairs(b, a)


def test_grid_search_empty_diagram_combinations(rng):
    a = np.column_stack([rng.uniform(0, 1, 30), rng.uniform(1, 2, 30)])
    b = a[:10] + 0.25
    none = np.empty((0, 2))
    for pa, pb in [(a, b), (a, none), (none, b), (none, none)]:
        assert_matches_all_pairs(pa, pb)
    assert dmx.hausdorff_bottleneck_points(none, none) == 0.0
    assert dmx.hausdorff_bottleneck_points(a, none) == float(((a[:, 1] - a[:, 0]) / 2.0).max())


def test_grid_search_near_the_float_limits():
    # coordinate differences past 1.8e308 overflow to inf, as in the reference
    huge = np.array([[-1e308, 1e308], [0.0, 1e308], [1e308, 1.7e308], [-1.7e308, -1e308]])
    tiny = np.array([[0.0, 5e-324], [5e-324, 1e-323], [0.0, 2.2250738585072014e-308]])
    for a, b in [(huge, tiny), (huge, huge[::-1] / 3.0), (tiny, tiny * 3.0), (tiny, tiny[:1])]:
        assert_matches_all_pairs(a, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_search_rejects_non_finite_points(bad):
    with pytest.raises(NonFinite):
        dmx.hausdorff_bottleneck_points([[0.0, bad]], [[0.0, 1.0]])
    with pytest.raises(NonFinite):
        dmx.hausdorff_bottleneck_points([[0.0, 1.0]], [[bad, 1.0]])


def test_gh_lower_bound_self_is_zero(rng):
    sets = [random_diagram(rng) for _ in range(5)]
    assert gh_lower_bound(sets, list(sets)) == 0.0


def test_crosspolytope_bound_values():
    assert circle_vs_sphere_crosspolytope_bound(3) == PI / 8
    assert circle_vs_sphere_crosspolytope_bound(5) == PI / 8
    assert circle_vs_sphere_crosspolytope_bound(2) == pytest.approx(PI / 12)
    assert circle_vs_sphere_crosspolytope_bound(1) == 0.0


def region_pair(region_a, region_b, step, interior_step):
    (pa, ra), (pb, rb) = (dmx.region_points(r, step, interior_step) for r in (region_a, region_b))
    return dmx.hausdorff_bottleneck_points(pa, pb, region_a=ra, region_b=rb)


def test_compare_region_with_itself_is_zero():
    assert region_pair(regions.CircleOddK(1, PI), regions.CircleOddK(1, PI), 1e-2, 5e-2) == 0.0


def test_compare_regions_circle_vs_sphere_coarse():
    # the acceptance suite runs step=1e-3; keep the module test cheap
    d = region_pair(regions.CircleOddK(1, PI), regions.ModelSurfaceRegion(1.0), 5e-3, 2e-2)
    assert d == pytest.approx(0.4293, abs=0.02)


# ---------------------------------------------------------------------------
# a sample against a region
# ---------------------------------------------------------------------------

def assert_sample_vs_region_matches_all_pairs(sample, region, step, interior_step):
    """The sample against the region's boundary and interior grids, all
    pairs, on either side: a sample point inside the region (tol 1e-12)
    is at 0, any other takes its nearest boundary point, and the region
    holds the empty diagram."""
    sample = np.asarray(sample, dtype=float).reshape(-1, 2)
    pts, side = dmx.region_points(region, step, interior_step)
    inside = regions.contains(region, sample[:, 0], sample[:, 1], tol=1e-12)
    nearest = (np.where(inside, 0.0, all_pairs_nearest(sample, side[1])[0]), all_pairs_nearest(sample, pts)[1])
    for empty in (True, False) if len(sample) else (True,):
        want = reference_hausdorff(sample, pts, empty, True, nearest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dmx.hausdorff_bottleneck_points(sample, pts, empty_a=empty, region_b=side) == want, empty
            assert dmx.hausdorff_bottleneck_points(pts, sample, empty_b=empty, region_a=side) == want, empty


@pytest.mark.parametrize("space, seed", [("s1", 1), ("sphere:m=2", 2), ("s1-e", 3)])
@pytest.mark.parametrize("region", ["s1", "s2-geodesic", "mk:kappa=-1", "sphere-e:m=2"])
def test_campaign_against_a_region_matches_all_pairs(space, seed, region):
    sample = engine.sample_persistence_set(spaces.parse_space(space), 4, 1, 1 << 10, seed=seed).points
    assert_sample_vs_region_matches_all_pairs(sample, regions.parse_region(region), 0.05, 0.1)


def test_points_on_and_near_a_region_boundary_match_all_pairs(rng):
    region = regions.parse_region("s1")
    edge = regions.boundary_points(region, 0.1)
    scattered = np.sort(rng.uniform(0.0, 4.0, size=(300, 2)), axis=1)
    for sample in (edge, edge + 1e-13, edge - 1e-13, edge + [0.0, 1e-6], scattered, scattered[:1],
                   np.empty((0, 2))):
        assert_sample_vs_region_matches_all_pairs(sample, region, 0.03, 0.1)
    # boundary points far apart, interior points close: a point just above
    # the top edge takes its nearest boundary point, not its nearest interior one
    pts = dmx.region_points(region, 0.5, 0.02)[0]
    top = np.sort(pts[pts[:, 1] == PI, 0])
    above = np.column_stack([(top[:-1] + top[1:]) / 2.0, np.full(len(top) - 1, PI + 0.05)])
    for sample in (above, np.concatenate((pts, above))):
        assert_sample_vs_region_matches_all_pairs(sample, region, 0.5, 0.02)


def test_a_sample_of_the_region_and_points_within_tolerance_is_at_zero():
    region = regions.parse_region("s1")
    pts, side = dmx.region_points(region, 0.1, 0.05)
    # midway between boundary points on the top edge t_d = pi, less than the tolerance above it
    top = np.sort(pts[pts[:, 1] == PI, 0])
    near = np.column_stack([(top[:-1] + top[1:]) / 2.0, np.full(len(top) - 1, PI + 5e-13)])
    assert len(near) and not regions.contains(region, near[:, 0], near[:, 1]).any()
    sample = np.concatenate((pts, near))
    assert dmx.hausdorff_bottleneck_points(sample, pts, region_b=side) == 0.0
    assert dmx.hausdorff_bottleneck_points(pts, sample, region_a=side) == 0.0


def test_s1_campaign_against_region_s1_falls_with_tuples():
    region = regions.parse_region("s1")
    pts, side = dmx.region_points(region, 1e-3, 5e-3)
    values = []
    for tuples in (1 << 12, 1 << 16, 1 << 20):
        sample = engine.sample_persistence_set(spaces.parse_space("s1"), 4, 1, tuples, seed=3)
        # every point lies in the region, so the sample-to-region term is 0
        assert regions.contains(region, sample.points[:, 0], sample.points[:, 1], tol=1e-12).all()
        empty = sample.trivial_count > 0
        d = dmx.hausdorff_bottleneck_points(sample.points, pts, empty_a=empty, region_b=side)
        assert dmx.hausdorff_bottleneck_points(pts, sample.points, empty_b=empty, region_a=side) == d
        values.append(d)
    assert values[0] > values[1] > values[2] > 0.0, values


def test_stability_of_principal_diagrams(rng):
    # perturbing every point by <= eta moves each distance by <= 2 eta,
    # and the diagram map is 2-Lipschitz, so bottleneck <= 2 eta
    eta = 0.05
    for _ in range(300):
        pts = rng.normal(size=(4, 3))
        bump = rng.normal(size=(4, 3))
        bump /= np.linalg.norm(bump, axis=1, keepdims=True)
        bump *= rng.uniform(0, eta, size=(4, 1))
        d1 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d2 = np.linalg.norm((pts + bump)[:, None] - (pts + bump)[None, :], axis=-1)
        np.fill_diagonal(d1, 0.0)
        np.fill_diagonal(d2, 0.0)
        g1 = principal_diagram(metric.DistanceMatrix(d1), 1)
        g2 = principal_diagram(metric.DistanceMatrix(d2), 1)
        assert bottleneck_distance(g1, g2) <= 2 * eta + 1e-12


def test_principal_diagrams_are_read_through_points():
    # a principal diagram is an oracle Diagram: empty, or of one point
    empty = principal_diagram(metric.validate([[0.0]]), 0)
    one = principal_diagram(metric.validate([[0.0, 1.0], [1.0, 0.0]]), 0)
    assert empty == Diagram(0, ()) and one == Diagram(0, ((0.0, 1.0),))
    assert bottleneck_distance(one, dgm((0.0, 1.0))) == 0.0
    assert bottleneck_distance(empty, one) == bottleneck_distance(EMPTY, dgm((0.0, 1.0))) == 0.5
