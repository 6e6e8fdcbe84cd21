import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import metric
from persets.errors import AxiomViolation, IndexOutOfRange, NonFinite, NotSquare

from conftest import cloud_matrix_r3


def test_validate_two_point_space():
    dm = metric.validate([[0, 1], [1, 0]])
    assert dm.n == 2
    assert dm[0, 1] == 1.0


def test_validate_rejects_asymmetry():
    with pytest.raises(AxiomViolation) as err:
        metric.validate([[0, 3], [1, 0]])
    kinds = {(k, i) for k, i, _ in err.value.violations}
    assert ("asymmetry", (0, 1)) in kinds


def test_validate_rejects_triangle_violation():
    with pytest.raises(AxiomViolation) as err:
        metric.validate([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    triangles = [i for k, i, _ in err.value.violations if k == "triangle"]
    assert (0, 1, 2) in triangles


def test_validate_rejects_negative_and_diagonal():
    with pytest.raises(AxiomViolation) as err:
        metric.validate([[0.5, -1], [-1, 0]])
    kinds = {k for k, _, _ in err.value.violations}
    assert {"negative", "diagonal"} <= kinds


def test_validate_shape_and_finiteness():
    with pytest.raises(NotSquare):
        metric.validate([[0, 1, 2], [1, 0, 1]])
    with pytest.raises(NonFinite):
        metric.validate([[0, math.inf], [math.inf, 0]])


def test_validate_accepts_near_boundary_triangle():
    # collinear points: exact equality in the triangle inequality
    dm = metric.validate([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert dm.n == 3


def test_restrict_two_point_block_matrix():
    dm = metric.validate([[0, 1], [1, 0]])
    sub = metric.restrict(dm, (0, 0, 1))
    expected = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
    assert np.array_equal(sub.entries, expected)


def test_restrict_constant_tuple_is_zero_matrix():
    dm = metric.validate([[0, 1], [1, 0]])
    sub = metric.restrict(dm, (0, 0, 0))
    assert np.array_equal(sub.entries, np.zeros((3, 3)))


def test_restrict_identity():
    dm = cloud_matrix_r3(np.random.default_rng(1), 5)
    sub = metric.restrict(dm, range(5))
    assert np.array_equal(sub.entries, dm.entries)


def test_restrict_out_of_range():
    dm = metric.validate([[0, 1], [1, 0]])
    with pytest.raises(IndexOutOfRange):
        metric.restrict(dm, (0, 2))


@given(
    idx1=st.lists(st.integers(0, 5), min_size=1, max_size=7),
    idx2_seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_restrict_composes(idx1, idx2_seed):
    rng = np.random.default_rng(42)
    dm = cloud_matrix_r3(rng, 6)
    inner = metric.restrict(dm, idx1)
    rng2 = np.random.default_rng(idx2_seed)
    idx2 = rng2.integers(0, len(idx1), size=4)
    left = metric.restrict(inner, idx2)
    right = metric.restrict(dm, [idx1[j] for j in idx2])
    assert np.array_equal(left.entries, right.entries)


def test_restrict_stays_valid(rng):
    # pseudo-metric axioms are hereditary under restriction
    for _ in range(50):
        dm = cloud_matrix_r3(rng, 6)
        idx = rng.integers(0, 6, size=5)
        metric.validate(metric.restrict(dm, idx).entries)


def test_stats_two_points():
    st_ = metric.stats(metric.validate([[0, 2.5], [2.5, 0]]))
    assert st_.diameter == st_.radius == st_.separation == 2.5


def test_stats_regular_four_gon():
    h = math.pi / 2
    dm = metric.validate(
        [[0, h, math.pi, h], [h, 0, h, math.pi], [math.pi, h, 0, h], [h, math.pi, h, 0]]
    )
    st_ = metric.stats(dm)
    assert st_.diameter == math.pi
    assert st_.radius == math.pi
    assert st_.separation == h


def test_stats_single_point():
    st_ = metric.stats(metric.validate([[0.0]]))
    assert st_.diameter == 0.0 and st_.radius == 0.0
    assert math.isinf(st_.separation)


def test_stats_permutation_invariant(rng):
    for _ in range(25):
        dm = cloud_matrix_r3(rng, 6)
        perm = rng.permutation(6)
        permuted = metric.DistanceMatrix(dm.entries[np.ix_(perm, perm)])
        assert metric.stats(permuted) == metric.stats(dm)


def test_csv_roundtrip(tmp_path, rng):
    # subnormal and huge entries come back bit for bit too (5e307: the
    # triangle check adds two entries, so larger ones overflow there)
    for dm in (cloud_matrix_r3(rng, 5), metric.validate([[0, 5e-324], [5e-324, 0]]),
               metric.validate([[0, 5e307, 5e307], [5e307, 0, 2.2250738585072014e-308],
                                [5e307, 2.2250738585072014e-308, 0]])):
        path = tmp_path / "m.csv"
        metric.write_matrix_csv(dm, path)
        back = metric.read_matrix_csv(path)
        assert back.entries.tobytes() == dm.entries.tobytes()


def test_json_roundtrip(tmp_path, rng):
    dm = cloud_matrix_r3(rng, 4)
    path = tmp_path / "m.json"
    metric.write_matrix_json(dm, path)
    back = metric.read_matrix_json(path)
    assert np.array_equal(back.entries, dm.entries)
