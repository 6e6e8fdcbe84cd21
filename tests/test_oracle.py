import math

import numpy as np
import pytest

from persets import metric, oracle, principal
from persets.errors import NonMonotoneFiltration, TooLarge

from conftest import circle_angles_matrix, cloud_matrix_r3, tree_matrix


def four_gon():
    return circle_angles_matrix([0.0, math.pi / 2, math.pi, 1.5 * math.pi])


def test_filtration_two_points():
    dm = metric.validate([[0, 1], [1, 0]])
    filt = oracle.build_vr_filtration(dm, max_dim=1)
    assert filt.simplices == (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))


def test_filtration_equilateral_triangle():
    dm = metric.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    filt = oracle.build_vr_filtration(dm, max_dim=2)
    values = {v: value for v, value in filt.simplices}
    assert values[(0, 1, 2)] == 1.0
    assert all(values[e] == 1.0 for e in [(0, 1), (0, 2), (1, 2)])
    # the triangle enters together with its last edge, after it in order
    assert filt.simplices[-1][0] == (0, 1, 2)


def test_filtration_four_gon_census():
    filt = oracle.build_vr_filtration(four_gon(), max_dim=2)
    edges = [(s, v) for s, v in filt.simplices if len(s) == 2]
    tris = [(s, v) for s, v in filt.simplices if len(s) == 3]
    half = [v for _, v in edges if abs(v - math.pi / 2) < 1e-12]
    full = [v for _, v in edges if abs(v - math.pi) < 1e-12]
    assert len(half) == 4 and len(full) == 2
    assert len(tris) == 4 and all(abs(v - math.pi) < 1e-12 for _, v in tris)


def test_filtration_caps():
    with pytest.raises(TooLarge):
        oracle.build_vr_filtration(metric.DistanceMatrix(np.zeros((13, 13))), 1)
    with pytest.raises(TooLarge):
        oracle.build_vr_filtration(metric.validate([[0, 1], [1, 0]]), 2)


def test_reduce_two_points():
    dm = metric.validate([[0, 0.8], [0.8, 0]])
    dgm = oracle.vr_diagram(dm, 0)
    assert dgm.points == ((0.0, 0.8),)


def test_reduce_four_gon_degree_one():
    dgm = oracle.vr_diagram(four_gon(), 1)
    assert len(dgm.points) == 1
    assert dgm.points[0] == pytest.approx((math.pi / 2, math.pi))


def test_reduce_five_points_degree_two_empty(rng):
    for _ in range(25):
        dm = cloud_matrix_r3(rng, 5)
        assert oracle.vr_diagram(dm, 2).is_empty


def test_reduce_rejects_non_monotone():
    bad = oracle.Filtration(
        simplices=(((0,), 0.0), ((1,), 0.0), ((0, 1), -1.0)), max_dim=1
    )
    with pytest.raises(NonMonotoneFiltration):
        oracle.reduce(bad)


def test_emptiness_above_principal_degree(rng):
    # small version of the acceptance sweep
    for n in range(2, 7):
        for _ in range(40):
            dm = cloud_matrix_r3(rng, n)
            dgms = oracle.vr_diagrams(dm, max_degree=n - 2)
            for k in range(n - 1):
                if k > n / 2 - 1:
                    assert dgms[k].is_empty, (n, k)


def test_death_bounded_by_radius(rng):
    for _ in range(60):
        dm = cloud_matrix_r3(rng, 6)
        rad = metric.stats(dm).radius
        for dgm in oracle.vr_diagrams(dm, max_degree=2):
            for _, death in dgm.points:
                assert death <= rad + 1e-12


def test_tree_subsets_have_no_cycles(rng):
    # 4-point subsets of random metric trees never produce degree-1 classes
    for _ in range(200):
        dm = tree_matrix(rng, 9)
        idx = rng.choice(9, size=4, replace=False)
        sub = metric.restrict(dm, idx)
        assert oracle.vr_diagram(sub, 1).is_empty


def test_scale_equivariance(rng):
    for _ in range(30):
        dm = cloud_matrix_r3(rng, 6)
        c = float(rng.uniform(0.5, 3.0))
        scaled = metric.DistanceMatrix(dm.entries * c)
        for d1, d2 in zip(oracle.vr_diagrams(dm, 2), oracle.vr_diagrams(scaled, 2)):
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
            fast = principal.principal_diagram(dm, k)
            slow = oracle.vr_diagram(dm, k)
            if fast.is_empty:
                assert slow.is_empty
            else:
                assert len(slow.points) == 1
                assert slow.points[0] == fast.point


def test_regular_pentagon_degree_one():
    # hand check: the 5-cycle of adjacent edges (arc 2pi/5) is filled when
    # the skip edges (arc 4pi/5) complete the flag complex to a simplex
    from conftest import circle_angles_matrix

    dm = circle_angles_matrix([2 * math.pi * i / 5 for i in range(5)])
    dgm = oracle.vr_diagram(dm, 1)
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
    dgms = oracle.vr_diagrams(dm, max_degree=2)
    assert dgms[1].is_empty
    assert len(dgms[2].points) == 1
    assert dgms[2].points[0] == pytest.approx((math.pi / 2, math.pi))
