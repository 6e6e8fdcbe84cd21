import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import metric
from persets.errors import AxiomViolation, InvalidPoint, MalformedFile, NonFinite, NotSquare

from conftest import cloud_matrix_r3, tuple_matrix
from reference import write_matrix_csv


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
    sub = tuple_matrix(dm, (0, 0, 1))
    expected = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
    assert np.array_equal(sub.entries, expected)


def test_restrict_constant_tuple_is_zero_matrix():
    dm = metric.validate([[0, 1], [1, 0]])
    sub = tuple_matrix(dm, (0, 0, 0))
    assert np.array_equal(sub.entries, np.zeros((3, 3)))


def test_restrict_identity():
    dm = cloud_matrix_r3(np.random.default_rng(1), 5)
    sub = tuple_matrix(dm, range(5))
    assert np.array_equal(sub.entries, dm.entries)


def test_restrict_out_of_range():
    dm = metric.validate([[0, 1], [1, 0]])
    with pytest.raises(InvalidPoint):
        tuple_matrix(dm, (0, 2))


@given(
    idx1=st.lists(st.integers(0, 5), min_size=1, max_size=7),
    idx2_seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_restrict_composes(idx1, idx2_seed):
    rng = np.random.default_rng(42)
    dm = cloud_matrix_r3(rng, 6)
    inner = tuple_matrix(dm, idx1)
    rng2 = np.random.default_rng(idx2_seed)
    idx2 = rng2.integers(0, len(idx1), size=4)
    left = tuple_matrix(inner, idx2)
    right = tuple_matrix(dm, [idx1[j] for j in idx2])
    assert np.array_equal(left.entries, right.entries)


def test_restrict_stays_valid(rng):
    # pseudo-metric axioms are hereditary under restriction
    for _ in range(50):
        dm = cloud_matrix_r3(rng, 6)
        idx = rng.integers(0, 6, size=5)
        metric.validate(tuple_matrix(dm, idx).entries)


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
        write_matrix_csv(dm, path)
        back = metric.read_matrix_csv(path)
        assert back.entries.tobytes() == dm.entries.tobytes()


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n", "expected the header 't_b,t_d' in "),
    ("t_b,t_d\n1,2\n1.0,x\n", "could not convert string 'x' to float64 at row 1, column 2."),
    ("t_b,t_d\n1,2\n1,2,3\n", "the number of columns changed from 2 to 3 at row 2;"),
    ("t_b,t_d\n1,2,3\n", "has 3 columns under 't_b,t_d'"),
    (b"t_b,t_d\n1,2\n\xff,3\n", "'utf-8' codec can't decode byte 0xff in position 12"),
])
def test_read_csv_names_what_does_not_parse(text, message, tmp_path):
    # rows count from the first one after the header
    path = tmp_path / "t.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(MalformedFile) as exc:
        metric.read_csv(path, "t_b,t_d")
    assert message in str(exc.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_csv_takes_any_line_end_and_a_header_alone(newline, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(newline.join(["t_b,t_d", "1,2.5", "3,4", ""]).encode())
    assert metric.read_csv(path, "t_b,t_d").tolist() == [[1.0, 2.5], [3.0, 4.0]]
    path.write_bytes(("t_b,t_d" + newline).encode())
    assert metric.read_csv(path, "t_b,t_d").shape == (0, 2)


def test_write_csv_refuses_blocks_of_different_row_counts(tmp_path):
    # zip would stop at the shorter block and write 2 of the 3 rows
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="3 and 2"):
        metric.write_csv(path, np.zeros((3, 2)), np.zeros((2, 1)), header="a,b,c")
    assert not path.exists()


def test_write_csv_holds_a_small_block_of_rows(tmp_path, monkeypatch):
    # 1,024 rows a format: a 200k-row sample peaks near 220 KB, where 16,384 rows took 2.2 MB
    points = np.random.default_rng(1).random((200_000, 2))
    metric.write_csv(tmp_path / "warm.csv", points[:10], header="t_b,t_d")
    tracemalloc.start()
    try:
        metric.write_csv(tmp_path / "s.csv", points, header="t_b,t_d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024  # tests/test_golden.py pins the bytes, whatever the block
    # in [1, 2) every block is formatted by _fixed, whose arrays peak near 220 KB
    points += 1
    calls = _count_fixed(monkeypatch)
    tracemalloc.start()
    try:
        metric.write_csv(tmp_path / "s.csv", points, header="t_b,t_d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == -(-len(points) // metric._CSV_ROWS)
    assert peak < 256 * 1024


def _count_fixed(monkeypatch):
    """The list to which each metric._fixed call from now on appends its value count."""
    calls, fixed = [], metric._fixed

    def counted(x, columns):
        calls.append(len(x))
        return fixed(x, columns)

    monkeypatch.setattr(metric, "_fixed", counted)
    return calls


def _repr_lines(*blocks):
    """The CSV lines of ``repr`` of each ``tolist()`` item, one row per line."""
    rows = zip(*(c for b in blocks for c in b.T.tolist()))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


_LOW, _HIGH = np.array(metric._FIXED).view(np.int64).tolist()  # the bit patterns of the fast range's ends


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(_LOW, _HIGH - 1), st.integers(_LOW, _LOW + 64),
                          st.integers(_HIGH - 64, _HIGH - 1)), min_size=3, max_size=64),
       st.integers(1, 3))
def test_fixed_gives_the_repr_of_bit_patterns_across_its_range(bits, columns):
    x = np.array(bits[:len(bits) // columns * columns], np.int64).view(np.float64)
    assert metric._fixed(x, columns) == b"\n" + _repr_lines(x.reshape(-1, columns))[:-1]


def test_write_csv_gives_repr_bytes_on_a_sweep_of_the_fast_range(tmp_path, monkeypatch):
    powers = np.concatenate([2.0 ** np.arange(-13, 7), 10.0 ** np.arange(-3, 2), metric._FIXED[:1]])
    rng = np.random.default_rng(36)
    decimals = np.concatenate([np.arange(1, 1000) / 10.0 ** d for d in range(1, 8)]
                              + [rng.integers(1, 10 ** 9, 20_000) / 10.0 ** rng.integers(1, 8, 20_000)])
    ties = [3276799 / 32768, 1 + 2 ** -17]  # halfway between two shortest candidates: to even
    top = np.nextafter(metric._FIXED[1], 0) - np.arange(8) * 2.0 ** -46
    uniform = rng.integers(_LOW, _HIGH, 60_000).view(np.float64)
    x = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, 1e3), decimals, ties, top,
                        np.arange(1.0, 100.0), uniform])
    x = x[(x >= metric._FIXED[0]) & (x < metric._FIXED[1])]
    calls = _count_fixed(monkeypatch)
    for columns in (1, 2):
        block = x[:len(x) // columns * columns].reshape(-1, columns)
        metric.write_csv(tmp_path / "t.csv", block)
        assert (tmp_path / "t.csv").read_bytes() == _repr_lines(block)
    assert sum(calls) == len(x) + len(x) // 2 * 2


@pytest.mark.parametrize("value", [0.0, 5e-324, 9.9e-5, np.nextafter(1e-4, 0), 1e-5, 1e16, metric._FIXED[1], -1.5,
                                   math.inf, math.nan])
def test_write_csv_falls_back_outside_the_fast_range(value, tmp_path, monkeypatch):
    # alone, and in a block of 3 rows that is otherwise fast, between two fast blocks
    calls = _count_fixed(monkeypatch)
    monkeypatch.setattr(metric, "_CSV_ROWS", 3)
    fast = np.full((9, 2), 0.1) + np.arange(18).reshape(9, 2)
    for block in (np.array([[value]]), np.where(np.arange(18).reshape(9, 2) == 7, value, fast)):
        metric.write_csv(tmp_path / "t.csv", block, header="a")
        assert (tmp_path / "t.csv").read_bytes() == b"a\n" + _repr_lines(block)
    assert calls == [6, 6]


def test_write_csv_falls_back_on_an_integer_column(tmp_path, monkeypatch):
    calls = _count_fixed(monkeypatch)
    points = np.linspace(0.5, 3.0, 10).reshape(5, 2)
    inside = np.array([[1], [0], [1], [1], [0]], np.int64)
    for blocks in ((points, inside), (inside,)):
        metric.write_csv(tmp_path / "t.csv", *blocks, header="t_b,t_d,inside")
        assert (tmp_path / "t.csv").read_bytes() == b"t_b,t_d,inside\n" + _repr_lines(*blocks)
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_validate_overflowing_deficit_is_no_violation():
    # d(0,1) - d(0,2) - d(2,1) overflows to -inf: far from a violation
    assert metric.validate([[0, 1e308], [1e308, 0]]).n == 2
    big = 1.7976931348623157e308
    assert metric.validate([[0, big, big], [big, 0, 0], [big, 0, 0]]).n == 3
    with pytest.raises(AxiomViolation):
        metric.validate([[0, big, 1.0], [big, 0, 1.0], [1.0, 1.0, 0]])


def entrywise_reference(a):
    """Every negative, diagonal and asymmetric entry of ``a``, in that order,
    each walked row-major by its own loop, as validate listed them before the
    cap covered every kind."""
    n = len(a)
    found = [("negative", (i, j), float(a[i, j])) for i in range(n) for j in range(n) if a[i, j] < 0]
    found += [("diagonal", (i, i), float(a[i, i])) for i in range(n) if a[i, i] != 0]
    found += [("asymmetry", (i, j), abs(float(a[i, j]) - float(a[j, i])))
              for i in range(n) for j in range(i + 1, n) if a[i, j] != a[j, i]]
    return found


def check_against_reference(a):
    """validate(a) against per-entry loops and one (n, n, n) broadcast of the triangle deficits.

    Negative, diagonal and asymmetric entries come first (entrywise_reference);
    only a matrix free of them is checked for triangles.  deficit[j, i, k] =
    (d(i,k) - d(i,j)) - d(j,k); broken triangles are listed in (j, i, k)
    order.  Either way the first VIOLATIONS_LISTED are listed and all are
    counted.  Returns the count.
    """
    a = np.asarray(a, dtype=float)
    found = entrywise_reference(a)
    if not found:
        with np.errstate(over="ignore"):
            deficit = (a[None, :, :] - a.T[:, :, None]) - a[:, None, :]
        broken = deficit > metric.TRIANGLE_RTOL * float(a.max(initial=0.0))
        found = [("triangle", (int(i), int(j), int(k)), float(deficit[j, i, k]))
                 for j, i, k in np.argwhere(broken)[:metric.VIOLATIONS_LISTED]]
        count = int(np.count_nonzero(broken))
    else:
        count = len(found)
    if not count:
        assert metric.validate(a).entries.tobytes() == a.tobytes()
        return 0
    expected = found[:metric.VIOLATIONS_LISTED]
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
    assert check_against_reference(symmetric(rng.random((n, n)))) > metric.VIOLATIONS_LISTED
    a = cloud_matrix_r3(rng, n).entries.copy()
    a[n - 1, n - 2] = a[n - 2, n - 1] = 3 * a[n - 1, n - 2]  # broken in the last rows
    assert 0 < check_against_reference(a) < metric.VIOLATIONS_LISTED
    check_against_reference(cloud_matrix_r3(rng, n).entries)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 21, 22, 30, 31, 32, 33, 64, 65, 70])
def test_validate_matches_reference_across_blocks(n, rng, monkeypatch):
    # a 64-entry budget sweeps 8 points in one block, 9 in two, 70 a row at a
    # time; the half sweep takes a width-w block 64 // w rows at a time: one
    # row while w > 32, two from 32, three from 21, one 8 x 8 block at 8
    monkeypatch.setattr(metric, "_SWEEP_ENTRIES", 64)
    assert check_against_reference(cloud_matrix_r3(rng, n).entries) == 0
    for i, j in ((0, 1), (n // 2, n - 1), (n - 2, n - 1)):
        a = cloud_matrix_r3(rng, n).entries.copy()
        a[i, j] = a[j, i] = 3 * a[i, j]  # one broken edge, in the first, a middle or the last block
        assert check_against_reference(a) > 0
    check_against_reference(stretched(rng, n, 3))
    check_against_reference(symmetric(rng.random((n, n))))
    monkeypatch.setattr(metric, "VIOLATIONS_LISTED", 5)
    check_against_reference(stretched(rng, n, 3))
    check_against_reference(symmetric(rng.integers(0, 3, size=(n, n))))


def test_validate_deficit_exactly_at_tolerance():
    # tol = 1e-9 * 1e9 = 1.0; (1e9 - h) - h is exactly 1.0 and not broken,
    # one ulp more is broken; both lie within the sweep's margin of tol,
    # so both are counted against tol in both orders
    h = 499999999.5
    assert metric.TRIANGLE_RTOL * 1e9 == 1.0 and (1e9 - h) - h == 1.0
    at = [[0, h, 1e9], [h, 0, h], [1e9, h, 0]]
    assert check_against_reference(at) == 0
    below = np.nextafter(h, 0)
    over = [[0, h, 1e9], [h, 0, below], [1e9, below, 0]]
    assert check_against_reference(over) == 2


def test_valid_matrix_is_certified_by_the_half_sweep(rng):
    a = cloud_matrix_r3(rng, 300).entries
    assert metric.validate(a).entries.tobytes() == a.tobytes()


def test_validate_finds_a_deficit_broken_only_in_the_mirrored_order():
    # d01 = x, d12 = y, d02 = z: the half sweep computes (z - x) - y for
    # (i, j, k) = (0, 1, 2), and (z - y) - x for (2, 1, 0) only near tol;
    # search z near x + y + tol until only the second rounds above tol
    rng = np.random.default_rng(0)
    while True:
        x, y = rng.random(2) * [1.0, 1e3]
        z = x + y + metric.TRIANGLE_RTOL * (x + y)
        found = [c for c in z + np.arange(-8, 9) * np.spacing(z)
                 if (c - x) - y <= metric.TRIANGLE_RTOL * c < (c - y) - x]
        if found:
            break
    a = np.array([[0, x, found[0]], [x, 0, y], [found[0], y, 0]])
    # at budgets 1 and 2 row 2 lies in a later block than row 0, so the
    # triangle is found by the mirrored pass of block 0 and credited to row 2's
    for budget in (1, 2, metric._SWEEP_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_SWEEP_ENTRIES", budget)
            assert check_against_reference(a) == 1
            with pytest.raises(AxiomViolation) as err:
                metric.validate(a)
            assert [idx for _, idx, _ in err.value.violations] == [(2, 1, 0)]


def test_validate_pseudo_metric_zeros(rng):
    dm = cloud_matrix_r3(rng, 6)
    assert check_against_reference(tuple_matrix(dm, [0, 0, 1, 2, 2, 5]).entries) == 0
    # points 0 and 1 coincide but see point 2 at different distances
    assert check_against_reference([[0, 0, 2], [0, 0, 1], [2, 1, 0]]) == 2


@pytest.mark.filterwarnings("error")
def test_validate_huge_entries_match_reference(rng, monkeypatch):
    big = 1.7976931348623157e308
    check_against_reference([[0, 1e308, 1e308], [1e308, 0, 1], [1e308, 1, 0]])
    assert check_against_reference([[0, 1e308, 1], [1e308, 0, 1], [1, 1, 0]]) == 2
    # the asymmetry 1e308 - (-1e308) overflows: listed as inf, without a warning
    assert check_against_reference([[0, 1e308], [-1e308, 0]]) == 2
    with pytest.raises(AxiomViolation) as err:
        metric.validate([[0, 1e308], [-1e308, 0]])
    assert err.value.violations[1] == ("asymmetry", (0, 1), math.inf)
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
        mp.setattr(metric, "VIOLATIONS_LISTED", listed)
        check_against_reference(symmetric(entries))


@pytest.mark.parametrize("listed", [1, 5, 1000])
def test_validate_caps_every_kind_together(listed, rng, monkeypatch):
    monkeypatch.setattr(metric, "VIOLATIONS_LISTED", listed)
    # 12 negatives use up caps 1 and 5, so diagonal and asymmetry get no room
    a = rng.random((6, 6))
    a[:2] *= -1
    assert check_against_reference(a) == 12 + 6 + 15
    # every kind, in the order negative, diagonal, asymmetry
    assert check_against_reference([[0, -1, 2], [-1, 3, 2], [2, 1, 0]]) == 4
    # every pair asymmetric, nothing else broken
    b = rng.random((50, 50))
    np.fill_diagonal(b, 0.0)
    assert check_against_reference(b) == 50 * 49 // 2
    check_against_reference(np.diag(rng.random(40)))


@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), listed=st.sampled_from([1, 5, 1000]))
@settings(max_examples=100, deadline=None)
def test_validate_matches_reference_on_asymmetric_integer_matrices(n, seed, listed):
    entries = np.random.default_rng(seed).integers(-1, 4, size=(n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "VIOLATIONS_LISTED", listed)
        check_against_reference(entries)


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (0, 0), (-2, -2)])
def test_whole_accepts_whole_numbers(value, expected):
    got = metric.whole(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [1.5, "3", True, False, None, math.inf, math.nan, [1]])
def test_whole_rejects_everything_else(value):
    with pytest.raises(ValueError):
        metric.whole(value)


def test_validate_of_a_clean_matrix_holds_one_copy():
    # beyond the input: the returned copy and O(_SWEEP_ENTRIES) scratch; the
    # n x n masks and |a - a.T| of the entrywise checks took 2.4 copies
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((1000, 3))
    a = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    tracemalloc.start()
    try:
        metric.validate(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes
