import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from persets import metric, oracle
from persets.errors import TooLarge

from conftest import circle_angles_matrix, cloud_matrix_r3, tree_matrix, tuple_matrix
from reference import condensed, principal_diagram, single_linkage, vr_diagram, vr_diagrams


def four_gon():
    return circle_angles_matrix([0.0, math.pi / 2, math.pi, 1.5 * math.pi])


def test_complex_census():
    # C(n, k+1) rows and C(n, k+2) columns, each lexicographically, each column's faces as the
    # indices of its lexicographic faces among the rows, and each simplex's edges as rows of a
    # triu_indices pair list with a 0.0 appended (a vertex reads that 0.0)
    for n in range(2, oracle.MAX_POINTS + 1):
        pair = list(zip(*(i.tolist() for i in np.triu_indices(n, 1)))) + ["zero"]
        for k in range(n - 1):
            count, edges, faces = oracle._complex(n, k)
            rows, columns = (list(combinations(range(n), size)) for size in (k + 1, k + 2))
            assert count == len(rows) == math.comb(n, k + 1)
            assert len(faces) == len(columns) == math.comb(n, k + 2)
            for column, listed in zip(columns, faces):
                assert [rows[f] for f in listed] == list(combinations(column, k + 1))
            assert edges.shape == (count + len(columns), math.comb(k + 2, 2))
            for s, listed in zip(rows + columns, edges.tolist()):
                want = list(combinations(s, 2)) or ["zero"]  # then the first again, up to the width
                assert [pair[r] for r in listed] == want + want[:1] * (len(listed) - len(want))


def simplices(dm, k):
    # (vertices, value) of the degree-k rows and columns, in filtration order
    listed = [s for size in (k + 1, k + 2) for s in combinations(range(dm.n), size)]
    order, values = oracle.filtration(np.append(condensed(dm.entries), 0.0), dm.n, k)
    return [(listed[i], value) for i, value in zip(order.tolist(), values.tolist())]


def test_filtration_two_points():
    dm = metric.validate([[0, 1], [1, 0]])
    assert simplices(dm, 0) == [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]


def test_filtration_equilateral_triangle():
    dm = metric.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    filt = simplices(dm, 1)
    values = dict(filt)
    assert values[(0, 1, 2)] == 1.0
    assert all(values[e] == 1.0 for e in [(0, 1), (0, 2), (1, 2)])
    # the triangle enters together with its last edge, after it in order
    assert filt[-1][0] == (0, 1, 2)


def test_filtration_four_gon_census():
    filt = simplices(four_gon(), 1)
    edges = [(s, v) for s, v in filt if len(s) == 2]
    tris = [(s, v) for s, v in filt if len(s) == 3]
    half = [v for _, v in edges if abs(v - math.pi / 2) < 1e-12]
    full = [v for _, v in edges if abs(v - math.pi) < 1e-12]
    assert len(half) == 4 and len(full) == 2
    assert len(tris) == 4 and all(abs(v - math.pi) < 1e-12 for _, v in tris)
    assert [v for _, v in filt] == sorted(v for _, v in filt)


def test_filtration_caps():
    with pytest.raises(TooLarge, match="capped at 12 points, got 13"):
        vr_diagrams(metric.DistanceMatrix(np.zeros((13, 13))), 0)
    with pytest.raises(TooLarge, match="degree 1 needs at least 3 points, got 2"):
        vr_diagrams(metric.validate([[0, 1], [1, 0]]), 1)


def test_degree_zero_is_single_linkage():
    # Gaussian clouds, integer-tied L1 metrics and pseudo-metrics with repeated points
    rng = np.random.default_rng(37)
    for n in range(2, oracle.MAX_POINTS + 1):
        for _ in range(10):
            cloud = rng.standard_normal((n, 3))
            grid = rng.integers(0, 3, size=(n, 2)).astype(float)
            repeated = cloud[rng.integers(0, max(1, n // 2), size=n)]
            for d in (np.linalg.norm(cloud[:, None] - cloud[None], axis=-1),
                      np.abs(grid[:, None] - grid[None]).sum(-1),
                      np.linalg.norm(repeated[:, None] - repeated[None], axis=-1)):
                dm = metric.validate(d)
                points = vr_diagram(dm, 0).points
                assert all(birth == 0.0 for birth, _ in points)
                assert [death for _, death in points] == single_linkage(dm)


def test_a_batch_gives_the_diagrams_of_its_spaces_one_by_one(rng):
    for n, k in ((4, 0), (4, 1), (6, 1), (6, 2), (8, 1), (9, 3)):
        tied = rng.integers(1, 4, size=(n * (n - 1) // 2, 8)).astype(float)
        pairs = np.concatenate([np.stack([condensed(cloud_matrix_r3(rng, n).entries) for _ in range(8)], 1),
                                tied], axis=1)
        points, counts = oracle.diagrams_of_pairs(pairs, n, k)
        alone = [oracle.diagrams_of_pairs(pairs[:, b:b + 1], n, k) for b in range(16)]
        assert (points.shape[1], points.dtype, counts.shape, counts.dtype) == (2, np.float64, (16,), np.intp)
        assert points.tobytes() == np.concatenate([p for p, _ in alone]).tobytes()
        assert counts.tobytes() == np.concatenate([c for _, c in alone]).tobytes()


def test_a_blocks_scratch_does_not_grow_with_its_width():
    # each space is ordered and reduced alone, so a block of 4 copies of one n = 12, k = 4 space
    # peaks no higher than a block of 2, where one space's scratch already meets the last one's
    # (an array of every row's and column's edges across the block would add about 400 KB)
    n, k = 12, 4
    column = condensed(cloud_matrix_r3(np.random.default_rng(12), n).entries)
    oracle._complex(n, k)
    peaks = []
    for width in (2, 4):
        pairs = np.repeat(column[:, None], width, axis=1)
        tracemalloc.start()
        oracle.diagrams_of_pairs(pairs, n, k)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 100_000, peaks

def test_reduce_two_points():
    dm = metric.validate([[0, 0.8], [0.8, 0]])
    dgm = vr_diagram(dm, 0)
    assert dgm.points == ((0.0, 0.8),)


def test_reduce_four_gon_degree_one():
    dgm = vr_diagram(four_gon(), 1)
    assert len(dgm.points) == 1
    assert dgm.points[0] == pytest.approx((math.pi / 2, math.pi))


def test_reduce_five_points_degree_two_empty(rng):
    for _ in range(25):
        dm = cloud_matrix_r3(rng, 5)
        assert vr_diagram(dm, 2).is_empty


def test_emptiness_above_principal_degree(rng):
    # small version of the acceptance sweep
    for n in range(2, 7):
        for _ in range(40):
            dm = cloud_matrix_r3(rng, n)
            dgms = vr_diagrams(dm, max_degree=n - 2)
            for k in range(n - 1):
                if k > n / 2 - 1:
                    assert dgms[k].is_empty, (n, k)


def test_death_bounded_by_radius(rng):
    for _ in range(60):
        dm = cloud_matrix_r3(rng, 6)
        rad = metric.stats(dm).radius
        for dgm in vr_diagrams(dm, max_degree=2):
            for _, death in dgm.points:
                assert death <= rad + 1e-12


def test_tree_subsets_have_no_cycles(rng):
    # 4-point subsets of random metric trees never produce degree-1 classes
    for _ in range(200):
        dm = tree_matrix(rng, 9)
        idx = rng.choice(9, size=4, replace=False)
        sub = tuple_matrix(dm, idx)
        assert vr_diagram(sub, 1).is_empty


def test_scale_equivariance(rng):
    for _ in range(30):
        dm = cloud_matrix_r3(rng, 6)
        c = float(rng.uniform(0.5, 3.0))
        scaled = metric.DistanceMatrix(dm.entries * c)
        for d1, d2 in zip(vr_diagrams(dm, 2), vr_diagrams(scaled, 2)):
            assert len(d1.points) == len(d2.points)
            for (b1, t1), (b2, t2) in zip(d1.points, d2.points):
                assert b2 == pytest.approx(c * b1, rel=1e-12, abs=1e-12)
                assert t2 == pytest.approx(c * t1, rel=1e-12, abs=1e-12)


def test_oracle_agrees_with_principal_quick(rng):
    # the full 1000-matrix sweep lives in the acceptance suite
    for k in (0, 1, 2):
        n = 2 * k + 2
        for _ in range(60):
            dm = cloud_matrix_r3(rng, n)
            fast = principal_diagram(dm, k)
            slow = vr_diagram(dm, k)
            assert fast == slow


def test_regular_pentagon_degree_one():
    # hand check: the 5-cycle of adjacent edges (arc 2pi/5) is filled when
    # the skip edges (arc 4pi/5) complete the flag complex to a simplex
    from conftest import circle_angles_matrix

    dm = circle_angles_matrix([2 * math.pi * i / 5 for i in range(5)])
    dgm = vr_diagram(dm, 1)
    assert len(dgm.points) == 1
    assert dgm.points[0] == pytest.approx((2 * math.pi / 5, 4 * math.pi / 5))


def test_octahedron_degrees():
    # geodesic cross-polytope on the 2-sphere: its boundary complex is a
    # 2-sphere on [pi/2, pi), so degree 1 is empty and degree 2 is (pi/2, pi)
    d = np.full((6, 6), math.pi / 2)
    for i in range(6):
        d[i, i] = 0.0
        d[i, i ^ 1] = math.pi
    dm = metric.validate(d)
    dgms = vr_diagrams(dm, max_degree=2)
    assert dgms[1].is_empty
    assert len(dgms[2].points) == 1
    assert dgms[2].points[0] == pytest.approx((math.pi / 2, math.pi))


def test_no_degree_k_diagram_below_2k_plus_2_points():
    # the smallest flag k-sphere, the boundary of the (k+1)-dimensional cross-polytope,
    # has 2k+2 vertices; a campaign at k+2 <= n < 2k+2 therefore draws nothing
    rng = np.random.default_rng(26)
    checked = 0
    for k in range(1, oracle.MAX_POINTS - 1):
        for n in range(k + 2, min(2 * k + 2, oracle.MAX_POINTS + 1)):
            x = rng.standard_normal((n, k + 1))
            sphere = x / np.linalg.norm(x, axis=1)[:, None]
            square = rng.uniform(size=(n, n))
            tied = rng.integers(1, 3, size=(n, n)).astype(float)
            for d in (np.linalg.norm(sphere[:, None] - sphere[None], axis=-1), square + square.T, tied + tied.T,
                      circle_angles_matrix(2 * math.pi * np.arange(n) / n).entries):
                d = np.array(d)
                np.fill_diagonal(d, 0.0)
                assert vr_diagram(metric.DistanceMatrix(d), k).is_empty, (n, k)
                checked += 1
    assert checked == 4 * 30
