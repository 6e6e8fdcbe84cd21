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


@pytest.mark.filterwarnings("error")
def test_csv_roundtrip(tmp_path, rng):
    # subnormal and huge entries come back bit for bit too, without an
    # overflow warning from the triangle check, which adds two entries
    for dm in (cloud_matrix_r3(rng, 5), metric.validate([[0, 5e-324], [5e-324, 0]]),
               metric.validate([[0, 1e308, 1e308], [1e308, 0, 2.2250738585072014e-308],
                                [1e308, 2.2250738585072014e-308, 0]])):
        path = tmp_path / "m.csv"
        metric.write_matrix_csv(dm, path)
        back = metric.read_matrix_csv(path)
        assert back.entries.tobytes() == dm.entries.tobytes()


@pytest.mark.filterwarnings("error")
def test_validate_overflowing_deficit_is_no_violation():
    # d(0,1) - d(0,2) - d(2,1) overflows to -inf: far from a violation
    assert metric.validate([[0, 1e308], [1e308, 0]]).n == 2
    big = 1.7976931348623157e308
    assert metric.validate([[0, big, big], [big, 0, 0], [big, 0, 0]]).n == 3
    with pytest.raises(AxiomViolation):
        metric.validate([[0, big, 1.0], [big, 0, 1.0], [1.0, 1.0, 0]])


def check_against_reference(a):
    """validate(a) against one (n, n, n) broadcast of the triangle deficits.

    ``a`` is symmetric, nonnegative and zero on the diagonal, so triangles
    are its only possible violations.  deficit[j, i, k] = (d(i,k) - d(i,j))
    - d(j,k); the first TRIANGLES_LISTED broken triangles in (j, i, k)
    order are listed, all are counted.  Returns the count.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        deficit = (a[None, :, :] - a.T[:, :, None]) - a[:, None, :]
    broken = deficit > metric.TRIANGLE_RTOL * float(a.max(initial=0.0))
    count = int(np.count_nonzero(broken))
    if not count:
        assert metric.validate(a).entries.tobytes() == a.tobytes()
        return 0
    expected = [("triangle", (int(i), int(j), int(k)), float(deficit[j, i, k]))
                for j, i, k in np.argwhere(broken)[:metric.TRIANGLES_LISTED]]
    head = ", ".join(f"{kind} at {idx}" for kind, idx, _ in expected[:4])
    more = f" (+{count - 4} more)" if count > 4 else ""
    with pytest.raises(AxiomViolation) as err:
        metric.validate(a)
    assert err.value.violations == expected
    assert err.value.count == count
    assert str(err.value) == f"{count} axiom violation(s): {head}{more}"
    return count


def symmetric(entries):
    """The symmetric zero-diagonal matrix of the strict upper triangle of ``entries``."""
    upper = np.triu(np.asarray(entries, dtype=float), 1)
    return upper + upper.T


def stretched(rng, n, edges):
    """An R^3 cloud matrix with ``edges`` random entries tripled: a few broken triangles."""
    a = cloud_matrix_r3(rng, n).entries.copy()
    for i, j in rng.integers(0, n, size=(edges, 2)):
        a[i, j] = a[j, i] = 3 * a[i, j]
    return a


def test_validate_matches_reference_below_four_points(rng):
    for n in range(4):
        for a in (np.zeros((n, n)), cloud_matrix_r3(rng, n).entries,
                  symmetric(rng.integers(0, 4, size=(n, n)))):
            check_against_reference(a)
    assert check_against_reference([[0, 1, 5], [1, 0, 1], [5, 1, 0]]) == 2


@pytest.mark.parametrize("n", [180, 181, 182])
def test_validate_matches_reference_at_the_block_edge(n, rng):
    # 181 rows of 181 entries fill one sweep block; 180 leave it short,
    # 182 spill two rows into a second block
    assert metric._SWEEP_ENTRIES // 181 == 181
    assert check_against_reference(symmetric(rng.random((n, n)))) > metric.TRIANGLES_LISTED
    a = cloud_matrix_r3(rng, n).entries.copy()
    a[n - 1, n - 2] = a[n - 2, n - 1] = 3 * a[n - 1, n - 2]  # broken in the last rows
    assert 0 < check_against_reference(a) < metric.TRIANGLES_LISTED
    check_against_reference(cloud_matrix_r3(rng, n).entries)


@pytest.mark.parametrize("n", [7, 8, 9, 30, 31, 70])
def test_validate_matches_reference_across_blocks(n, rng, monkeypatch):
    # a 64-entry budget sweeps 8 points in one block, 9 in two, 70 a row at a time
    monkeypatch.setattr(metric, "_SWEEP_ENTRIES", 64)
    check_against_reference(stretched(rng, n, 3))
    check_against_reference(symmetric(rng.random((n, n))))
    monkeypatch.setattr(metric, "TRIANGLES_LISTED", 5)
    check_against_reference(stretched(rng, n, 3))
    check_against_reference(symmetric(rng.integers(0, 3, size=(n, n))))


def test_validate_deficit_exactly_at_tolerance():
    # tol = 1e-9 * 1e9 = 1.0; (1e9 - h) - h is exactly 1.0 and not broken,
    # one ulp more is broken
    h = 499999999.5
    assert metric.TRIANGLE_RTOL * 1e9 == 1.0 and (1e9 - h) - h == 1.0
    at = [[0, h, 1e9], [h, 0, h], [1e9, h, 0]]
    assert check_against_reference(at) == 0
    below = np.nextafter(h, 0)
    over = [[0, h, 1e9], [h, 0, below], [1e9, below, 0]]
    assert check_against_reference(over) == 2


def test_validate_pseudo_metric_zeros(rng):
    dm = cloud_matrix_r3(rng, 6)
    assert check_against_reference(metric.restrict(dm, [0, 0, 1, 2, 2, 5]).entries) == 0
    # points 0 and 1 coincide but see point 2 at different distances
    assert check_against_reference([[0, 0, 2], [0, 0, 1], [2, 1, 0]]) == 2


@pytest.mark.filterwarnings("error")
def test_validate_huge_entries_match_reference(rng, monkeypatch):
    big = 1.7976931348623157e308
    check_against_reference([[0, 1e308, 1e308], [1e308, 0, 1], [1e308, 1, 0]])
    assert check_against_reference([[0, 1e308, 1], [1e308, 0, 1], [1, 1, 0]]) == 2
    monkeypatch.setattr(metric, "_SWEEP_ENTRIES", 64)
    assert check_against_reference(symmetric(rng.random((20, 20)) * big)) > 0


@given(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 7, 64, 1 << 15]), listed=st.sampled_from([1, 5, 1000]))
@settings(max_examples=100, deadline=None)
def test_validate_matches_reference_on_integer_matrices(n, seed, budget, listed):
    # small integer entries tie often, so many deficits are exactly 0, just under tol
    entries = np.random.default_rng(seed).integers(0, 4, size=(n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_SWEEP_ENTRIES", budget)
        mp.setattr(metric, "TRIANGLES_LISTED", listed)
        check_against_reference(symmetric(entries))


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (0, 0), (-2, -2)])
def test_whole_accepts_whole_numbers(value, expected):
    got = metric.whole(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [1.5, "3", True, False, None, math.inf, math.nan, [1]])
def test_whole_rejects_everything_else(value):
    with pytest.raises(ValueError):
        metric.whole(value)


def test_json_roundtrip(tmp_path, rng):
    dm = cloud_matrix_r3(rng, 4)
    path = tmp_path / "m.json"
    metric.write_matrix_json(dm, path)
    back = metric.read_matrix_json(path)
    assert np.array_equal(back.entries, dm.entries)
