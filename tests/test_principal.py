import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import metric, principal

from conftest import circle_angles_matrix, circle_matrix, cloud_matrix_r3, tuple_matrix
from reference import SizeMismatch, TooFewPoints, condensed, point_extremes, principal_diagram, vr_diagram


def four_gon():
    return circle_angles_matrix([0.0, math.pi / 2, math.pi, 1.5 * math.pi])


def test_point_extremes_regular_four_gon():
    ext = point_extremes(four_gon())
    for i, (tb, td, vd) in enumerate(ext.per_point):
        assert tb == pytest.approx(math.pi / 2, abs=1e-15)
        assert td == pytest.approx(math.pi, abs=1e-15)
        assert vd == (i + 2) % 4


def test_point_extremes_generic_failure_case():
    # outer edges 1, then d24 < d41 < d13: the t_b/t_d table of the
    # obstructed configuration, where the two farthest-point maps disagree
    d = np.array(
        [
            [0.0, 1.0, 1.9, 1.8],
            [1.0, 0.0, 1.0, 1.5],
            [1.9, 1.0, 0.0, 1.0],
            [1.8, 1.5, 1.0, 0.0],
        ]
    )
    dm = metric.validate(d)
    ext = point_extremes(dm)
    assert ext.per_point[3] == (1.5, 1.8, 0)  # row x4: (d24, d41), farthest x1
    assert ext.tb_global() == 1.8
    assert ext.td_global() == 1.5
    assert principal_diagram(dm, 1).is_empty


def test_point_extremes_two_point_space():
    dm = metric.validate([[0, 2.0], [2.0, 0]])
    ext = point_extremes(dm)
    assert ext.per_point == ((0.0, 2.0, 1), (0.0, 2.0, 0))


def test_point_extremes_needs_two_points():
    with pytest.raises(TooFewPoints):
        point_extremes(metric.validate([[0.0]]))


def test_point_extremes_pseudo_metric_repeats():
    # repeated points contribute zero off-diagonal entries, which count
    # among the candidate distances
    dm = tuple_matrix(metric.validate([[0, 1], [1, 0]]), (0, 0, 1))
    ext = point_extremes(dm)
    assert ext.per_point[0] == (0.0, 1.0, 2)
    assert ext.per_point[1] == (0.0, 1.0, 2)
    assert ext.per_point[2][:2] == (1.0, 1.0)
    assert ext.per_point[2][2] is None  # farthest point tied between the twins


def test_principal_regular_four_gon():
    dgm = principal_diagram(four_gon(), 1)
    assert dgm.points[0] == pytest.approx((math.pi / 2, math.pi))


def test_principal_collinear_is_empty():
    d = np.abs(np.subtract.outer([0.0, 1.0, 2.5, 4.0], [0.0, 1.0, 2.5, 4.0]))
    dgm = principal_diagram(metric.validate(d), 1)
    assert dgm.is_empty


def test_principal_cross_polytope_s2():
    # {+-e1, +-e2, +-e3} on the geodesic 2-sphere, degree 2
    d = np.full((6, 6), math.pi / 2)
    for i in range(6):
        d[i, i] = 0.0
        d[i, i ^ 1] = math.pi
    dgm = principal_diagram(metric.validate(d), 2)
    assert dgm.points[0] == pytest.approx((math.pi / 2, math.pi))


def test_principal_triangle_with_duplicate_is_empty():
    dm = circle_angles_matrix([0.0, 2 * math.pi / 3, 4 * math.pi / 3, 0.0])
    dgm = principal_diagram(dm, 1)
    assert dgm.is_empty


def test_principal_two_points_degree_zero():
    dgm = principal_diagram(metric.validate([[0, 0.7], [0.7, 0]]), 0)
    assert dgm.points == ((0.0, 0.7),)


def test_principal_size_handling():
    # below the principal size: constant-empty fast path (no degree-k
    # homology can exist); above: out of scope, the oracle's job
    assert principal_diagram(four_gon(), 2).is_empty
    assert principal_diagram(metric.validate([[0.0]]), 0).is_empty
    with pytest.raises(SizeMismatch):
        principal_diagram(four_gon(), 1 - 1)  # n=4 > 2 for k=0
    with pytest.raises(SizeMismatch):
        principal_diagram(four_gon(), -1)


def test_persistence_bounds(rng):
    # nontrivial diagrams: t_d <= 2 t_b and t_d - t_b <= separation
    found = 0
    for _ in range(600):
        dm = circle_matrix(rng, 4)
        dgm = principal_diagram(dm, 1)
        if dgm.is_empty:
            continue
        found += 1
        (tb, td), = dgm.points
        assert td <= 2 * tb + 1e-12
        assert td - tb <= metric.stats(dm).separation + 1e-12
    assert found > 20


def test_vd_is_fixed_point_free_involution(rng):
    checked = 0
    for _ in range(400):
        dm = circle_matrix(rng, 6)
        if principal_diagram(dm, 2).is_empty:
            continue
        ext = point_extremes(dm)
        vd = [p[2] for p in ext.per_point]
        assert all(v is not None for v in vd)
        for i, v in enumerate(vd):
            assert v != i and vd[v] == i
        checked += 1
    assert checked > 5


def test_permutation_equivariance(rng):
    for _ in range(200):
        dm = cloud_matrix_r3(rng, 4)
        perm = rng.permutation(4)
        permuted = metric.DistanceMatrix(dm.entries[np.ix_(perm, perm)])
        a = principal_diagram(dm, 1)
        b = principal_diagram(permuted, 1)
        assert a == b


# Small integer-valued pseudo-metrics: points of a 4x4 grid under l1 or
# l-infinity, drawn with repetition, so distances tie and repeat often.
# Zero distances may carry either sign.
@settings(max_examples=400, deadline=None)
@given(
    k=st.integers(0, 3),
    grid=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
    linf=st.booleans(),
    negative_zeros=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_oracle_with_ties_and_repeats(k, grid, linf, negative_zeros, data):
    n = 2 * k + 2
    idx = data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=n, max_size=n))
    pts = np.asarray(grid, dtype=float)[idx]
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = diff.max(axis=-1) if linf else diff.sum(axis=-1)
    if negative_zeros:
        d[d == 0] = -0.0
    dm = metric.validate(d)

    # each point's top two are the last two of its sorted row of the square matrix,
    # and the kernel folds them: the max of the second largest, the min of the largest
    rows = np.sort(dm.entries, axis=1)
    ext = point_extremes(dm)
    np.testing.assert_array_equal([p[0] for p in ext.per_point], rows[:, -2])
    np.testing.assert_array_equal([p[1] for p in ext.per_point], rows[:, -1])
    tb, td = principal.principal_of_pairs(condensed(dm.entries), n)
    assert (tb, td) == (rows[:, -2].max(), rows[:, -1].min())
    batch = np.repeat(condensed(dm.entries)[:, None], 3, axis=1)
    for got, want in zip(principal.principal_of_pairs(batch, n), (tb, td)):
        np.testing.assert_array_equal(got, [want] * 3)

    fast = principal_diagram(dm, k)
    slow = vr_diagram(dm, k)
    assert fast == slow
