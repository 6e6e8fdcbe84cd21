import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from persets import engine, graphs, metric, oracle, principal, regions, spaces
from persets.errors import EmptySample, MalformedFile, RegionMismatch, TooLarge, UnsupportedCombination

from conftest import circle_angles_matrix
from reference import condensed, principal_diagram, sample_two_point_empty_fraction, two_point_measure, vr_diagram

PI = math.pi


@pytest.fixture(scope="module")
def circle_sample():
    return engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 200_000, seed=7)


def test_counts_are_consistent(circle_sample):
    s = circle_sample
    assert s.tuples_drawn == s.trivial_count + len(s.points)
    assert (s.points[:, 0] < s.points[:, 1]).all()


def test_circle_nontrivial_fraction(circle_sample):
    assert circle_sample.nontrivial_fraction == pytest.approx(1.0 / 9.0, abs=0.01)


def test_circle_points_fill_the_triangle(circle_sample):
    pts = circle_sample.points
    ok = regions.contains(regions.CircleOddK(1, PI), pts[:, 0], pts[:, 1], tol=1e-9)
    assert np.asarray(ok).all()
    # sphere region contains the circle region: campaign points also pass it
    ok2 = regions.contains(regions.ModelSurfaceRegion(1.0), pts[:, 0], pts[:, 1], tol=1e-9)
    assert np.asarray(ok2).all()


def test_single_point_space_all_trivial():
    space = engine.FiniteSpace(metric.validate([[0.0]]))
    s = engine.sample_persistence_set(space, 4, 1, 5000, seed=1)
    assert s.trivial_count == 5000 and len(s.points) == 0


def test_determinism_across_workers():
    s1 = engine.sample_persistence_set(spaces.TorusL2(), 4, 1, 140_000, seed=23, workers=1)
    s2 = engine.sample_persistence_set(spaces.TorusL2(), 4, 1, 140_000, seed=23, workers=2)
    assert np.array_equal(s1.points, s2.points)
    assert s1.trivial_count == s2.trivial_count


@pytest.mark.parametrize("n, k", [(0, -1), (1, 0), (4, -1)])
def test_bad_n_or_k_is_unsupported(n, k):
    with pytest.raises(UnsupportedCombination):
        engine.sample_persistence_set(spaces.CircleGeodesic(), n, k, 10, seed=0)


def test_unsupported_combination():
    with pytest.raises(UnsupportedCombination):
        engine.sample_persistence_set(spaces.CircleGeodesic(), 13, 1, 100, seed=0)
    with pytest.raises(UnsupportedCombination):
        engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 0, seed=0)


@pytest.mark.parametrize("n, k", [(3, 5), (2, 1), (13, 1)])
def test_oracle_limits_are_checked_before_drawing(n, k, monkeypatch):
    def draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(engine, "pair_blocks", draw)
    with pytest.raises(UnsupportedCombination, match=f"n={n}, k={k}: need") as exc:
        engine.sample_persistence_set(spaces.CircleGeodesic(), n, k, 10, seed=0)
    assert f"<= {oracle.MAX_POINTS}" in str(exc.value)


def test_nontrivial_fraction_counts_tuples_not_points():
    # off the principal path a diagram may hold several points
    s = engine.sample_persistence_set("wedge:3.5,4.5", 8, 1, 1024, seed=3)
    assert (s.trivial_count, len(s.points)) == (594, 449)
    assert s.nontrivial_fraction == (1024 - 594) / 1024  # 0.4199, not 449 / 1024


def test_oracle_fallback_matches_principal_on_principal_case():
    # at n = 2k+2 the campaign takes the kernel;
    # the oracle on the same one-chunk tuples must agree with it
    space = spaces.CircleGeodesic()
    s = engine.sample_persistence_set(space, 4, 1, 500, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))  # chunk 0's stream
    [(_, pairs)] = engine.pair_blocks(space, rng, 500, 4, spaces.Scratch())  # one block
    dgms = [vr_diagram(metric.DistanceMatrix(m), 1).points
            for m in metric.squareform(pairs, 4)]
    assert s.trivial_count == sum(not d for d in dgms)
    np.testing.assert_array_equal(s.points, np.array([p for d in dgms for p in d]))


def test_oracle_fallback_non_principal():
    s = engine.sample_persistence_set(
        spaces.CircleGeodesic(), 5, 1, 300, seed=3
    )
    assert s.tuples_drawn == 300
    assert (s.points[:, 0] < s.points[:, 1]).all()


def test_finite_space_kept_tuples_are_row_indices():
    dm = circle_angles_matrix([i * PI / 3 for i in range(6)])  # regular hexagon
    s = engine.sample_persistence_set(engine.FiniteSpace(dm), 4, 1, 3000, seed=4)
    kept = engine.kept_tuples(engine.FiniteSpace(dm), s)
    assert s.space == "finite:6"
    assert kept.shape == (len(s.points), 4, 1)
    for tup, point in zip(kept[:50], s.points):
        dgm = principal_diagram(spaces.distance_matrix(engine.FiniteSpace(dm), tup), 1)
        assert dgm.points == (tuple(point),)


class Segment:
    """A space defined outside the package: the unit interval."""

    descriptor = "segment"

    def sample_points(self, rng, count):
        yield rng.random((count, 1))

    def prepare(self, points, scratch):
        return points

    def pair_distance(self, p, q):
        return np.abs(p[..., 0] - q[..., 0])


def test_custom_space_needs_only_the_protocol():
    # an interval is a tree: no 4-point subset carries a 1-cycle
    s = engine.sample_persistence_set(Segment(), 4, 1, 5000, seed=2)
    assert s.space == "segment"
    assert s.trivial_count == 5000 and engine.kept_tuples(Segment(), s).shape == (0, 4, 1)


class GapSegment(Segment):
    """The unit interval, but ``gap`` is the distance from any point of its last hundredth."""

    def __init__(self, gap):
        self.gap = gap

    def pair_distance(self, p, q):
        return np.where(p[..., 0] < 0.99, np.abs(p[..., 0] - q[..., 0]), self.gap)


class NegativeSegment(Segment):
    def pair_distance(self, p, q):
        return -np.abs(p[..., 0] - q[..., 0])


@pytest.mark.parametrize("space, n, k", [(GapSegment(np.nan), 4, 1), (GapSegment(np.inf), 4, 1),
                                         (NegativeSegment(), 4, 1), (NegativeSegment(), 5, 1)],
                         ids=["nan", "inf", "negative", "negative-oracle"])
def test_campaign_refuses_a_distance_outside_zero_to_inf(space, n, k):
    # a NaN made every diagram trivial and a negative distance gave negative t_b and t_d, both silently
    with pytest.raises(UnsupportedCombination, match="space 'segment' gave pair distances"):
        engine.sample_persistence_set(space, n, k, 5000, seed=2)


def chunk_peak(space, n, count):
    """The tracemalloc peak of one chunk of ``count`` tuples, after a small chunk has made the one-time allocations."""
    engine._run_chunk(space, n, n // 2 - 1, 1, 0, 1000)
    tracemalloc.start()
    try:
        engine._run_chunk(space, n, n // 2 - 1, 1, 0, count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("space, n, bound, whole", [("sphere:m=2", 6, 64, 0), ("sphere:m=9", 8, 160, 0),
                                                    ("s1", 4, 40, 0), ("mk:kappa=-1", 4, 48, 96),
                                                    ("glued:3.5,4.5:alpha=0.5", 4, 72, 0), ("wedge:3.5,4.5", 4, 72, 0)],
                         ids=["sphere:m=2", "sphere:m=9", "s1", "mk:kappa=-1", "glued", "wedge"])
def test_chunk_holds_one_block(space, n, bound, whole):
    # a chunk streams its draw into one BLOCK of points and pair list: 44, 141 and 20 B a
    # tuple, draw included; drawn whole, the draw alone was 144, 640 and 32 B a tuple, and
    # the peak 178, 696 and 59.  So a second CHUNK adds only the nontrivial points, below
    # t_b/t_d's 16 B a tuple.  The hyperbolic sampler draws ``whole`` B a tuple in one go (two
    # uniform passes); beyond that a chunk peaks at 36, where two whole uniform arrays took 68.
    # A graph stream keeps each point's uint16 edge index, 2n B a tuple: 61 B a tuple at n = 4,
    # where the whole draw peaked at 112 and a second CHUNK added 82
    space = engine.space_of(space)
    peak = chunk_peak(space, n, engine.CHUNK)
    assert (peak / engine.CHUNK - whole) < bound
    edges = 2 * n if isinstance(space, graphs.MetricGraph) else 0
    if not whole:
        assert (chunk_peak(space, n, 2 * engine.CHUNK) - peak) / engine.CHUNK <= 16 + edges


@pytest.mark.parametrize("space, n, k", [("s1", 3, 1), ("sphere:m=2", 5, 2), ("wedge:3.5,4.5", 7, 3), ("finite", 4, 2)])
def test_campaign_that_can_only_give_empty_diagrams_draws_nothing(space, n, k, monkeypatch, tmp_path):
    # below 2k+2 points every degree-k diagram is empty (tests/test_oracle.py)
    space = engine.FiniteSpace(circle_angles_matrix([0.0, 1.0, 2.5])) if space == "finite" else space
    with monkeypatch.context() as m:
        m.setattr(engine, "pair_blocks", lambda *args: pytest.fail("a chunk was drawn"))
        m.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *args, **kw: pytest.fail("a pool started"))
        s = engine.sample_persistence_set(space, n, k, 2500, seed=4, workers=2)
        kept = engine.kept_tuples(space, s)  # nor is one redrawn
    assert (s.points.shape, s.points.dtype, s.trivial_count, s.tuples_drawn) == ((0, 2), np.float64, 2500, 2500)
    engine.write_sample(s, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == "t_b,t_d\n"
    sidecar = json.loads((tmp_path / "s.csv.json").read_text())
    assert sidecar == {"tuples": 2500, "trivial": 2500, "seed": 4, "space": s.space, "n": n, "k": k}
    # kept_tuples gives no tuple, as (0, n, D) rows of the draw's dtype
    one = next(engine.space_of(space).sample_points(np.random.default_rng(0), 1))
    assert (kept.shape, kept.dtype) == ((0, n, one.shape[1]), one.dtype)


def test_prepare_runs_once_per_block(monkeypatch):
    calls = []
    prepare, pair_distance = graphs.MetricGraph.prepare, graphs.MetricGraph.pair_distance

    def spy_prepare(self, points, scratch):
        calls.append(points.shape)
        return prepare(self, points, scratch)

    def spy_pair_distance(self, p, q):
        calls.append("pair")
        return pair_distance(self, p, q)

    monkeypatch.setattr(graphs.MetricGraph, "prepare", spy_prepare)
    monkeypatch.setattr(graphs.MetricGraph, "pair_distance", spy_pair_distance)
    engine.sample_persistence_set("glued:3.5,4.5:alpha=0.5", 4, 1, 2 * engine.BLOCK + 100, seed=1)
    pairs = ["pair"] * 6
    assert calls == [(4, engine.BLOCK, 2), *pairs, (4, engine.BLOCK, 2), *pairs, (4, 100, 2), *pairs]


@dataclasses.dataclass(frozen=True)
class PlainSphere:
    """A sphere defined outside the package, with numpy's own coordinate sum."""

    m: int
    descriptor = "plain-sphere"

    def sample_points(self, rng, count):
        return spaces.SphereGeodesic(self.m).sample_points(rng, count)

    def prepare(self, points, scratch):
        return points

    def pair_distance(self, p, q):
        return np.arccos(np.clip(np.sum(p * q, axis=-1), -1.0, 1.0))


@pytest.mark.parametrize("m", [7, 9])
def test_custom_space_gets_row_slices(m):
    # from D = 8 on, np.sum over the last axis gives other bits on coordinate-major
    # points: a custom space needs no layout rule to match the built-in sphere
    mine = engine.sample_persistence_set(PlainSphere(m), 4, 1, 3000, seed=11)
    ours = engine.sample_persistence_set(f"sphere:m={m}", 4, 1, 3000, seed=11)
    assert mine.trivial_count == ours.trivial_count
    assert mine.points.tobytes() == ours.points.tobytes()


@dataclasses.dataclass(frozen=True)
class Arc:
    """The unit geodesic circle defined outside the package, drawn ``rows`` points per RNG call."""

    rows: int
    descriptor = "arc"

    def sample_points(self, rng, count):
        for r in range(0, count, self.rows):
            yield rng.uniform(0.0, 2 * PI, size=(min(self.rows, count - r), 1))

    def prepare(self, points, scratch):
        return points

    def pair_distance(self, p, q):
        d = np.abs(p[..., 0] - q[..., 0])
        return np.minimum(d, 2 * PI - d)


def test_campaign_does_not_depend_on_the_stream_blocks(monkeypatch):
    # 1-row blocks end inside every tuple and every BLOCK; a single block holds the whole draw
    monkeypatch.setattr(engine, "BLOCK", 300)
    ours = engine.sample_persistence_set("s1", 4, 1, 3000, seed=5)
    for rows in (1, 3000 * 4):
        mine = engine.sample_persistence_set(Arc(rows), 4, 1, 3000, seed=5)
        assert (mine.trivial_count, mine.points.tobytes()) == (ours.trivial_count, ours.points.tobytes())
        assert engine.kept_tuples(Arc(rows), mine).tobytes() == engine.kept_tuples("s1", ours).tobytes()


def test_a_stream_that_ends_early_is_refused():
    class Short(Arc):
        def sample_points(self, rng, count):
            return super().sample_points(rng, count - 1)

    with pytest.raises(UnsupportedCombination, match="space 'arc' drew fewer than 4000 points"):
        engine.sample_persistence_set(Short(1), 4, 1, 1000, seed=5)


def test_workers_must_be_positive():
    with pytest.raises(UnsupportedCombination):
        engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 100, seed=0, workers=0)


def test_seed_must_not_be_negative(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a tuple was drawn")

    monkeypatch.setattr(engine, "_run_chunk", no_draw)
    with pytest.raises(UnsupportedCombination, match="seed"):
        engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 100, seed=-1)


def test_histogram_empty_sample():
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.empty((0, 2)), 10, 0)
    h = engine.histogram(s, 5, 5)
    assert h.counts.sum() == 0 and h.total - h.counts.sum() == 10


def test_histogram_of_one_point_records_the_bins_numpy_used():
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.array([[2.0, 2.5]]), 9, 0)
    h = engine.histogram(s, 5, 5)
    assert (h.range_b, h.range_d) == ((1.5, 2.5), (2.0, 3.0))
    assert h.counts.shape == (5, 5) and h.counts[2, 2] == h.counts.sum() == 1
    assert engine.density_l1_error(h, regions.circle_density) > 0


def test_histogram_mass_bookkeeping(circle_sample):
    h = engine.histogram(circle_sample, 50, 50, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    assert h.counts.sum() + circle_sample.trivial_count == h.total
    assert h.counts.sum() == len(circle_sample.points)


def test_histogram_uniform_multinomial(rng):
    pts = rng.uniform(0.0, 1.0, size=(100_000, 2))
    s = engine.PersistenceSetSample("u", 4, 1, 100_000, pts, 0, 0)
    h = engine.histogram(s, 10, 10, range_b=(0, 1), range_d=(0, 1))
    expected = 1000.0
    sigma = math.sqrt(expected * (1 - 0.01))
    assert np.abs(h.counts - expected).max() <= 4 * sigma


def test_density_l1_error_of_circle(circle_sample):
    h = engine.histogram(circle_sample, 50, 50, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    err = engine.density_l1_error(h, regions.circle_density)
    assert err <= 0.05


def test_density_l1_error_against_itself(circle_sample):
    h = engine.histogram(circle_sample, 20, 20, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    wb = (PI / 2) / 20
    wd = (PI / 3) / 20
    emp = h.counts / (h.total * wb * wd)

    def empirical_density(tb, td):
        i = np.clip(((tb - PI / 2) / wb).astype(int), 0, 19)
        j = np.clip(((td - 2 * PI / 3) / wd).astype(int), 0, 19)
        return emp[i, j]

    assert engine.density_l1_error(h, empirical_density) == pytest.approx(0.0, abs=1e-12)


def test_density_l1_error_detects_wrong_density(circle_sample):
    # swapping the linear factor to (pi - t_b) changes the L1 error to
    # integral |f - f'| = 1/6 over the triangle (computed analytically)
    h = engine.histogram(circle_sample, 50, 50, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))

    def shifted(tb, td):
        inside = regions.contains(regions.CircleOddK(1, PI), tb, td)
        return np.where(inside, 12.0 / PI**3 * (PI - np.asarray(tb)), 0.0)

    err = engine.density_l1_error(h, shifted)
    assert err == pytest.approx(1.0 / 6.0, abs=0.02)
    assert err > 0.12


def test_histogram_bins_are_capped():
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.array([[2.0, 2.5]]), 9, 0)
    assert engine.histogram(s, engine.MAX_BINS, 1).counts.shape == (engine.MAX_BINS, 1)
    with pytest.raises(TooLarge, match=f"<= {engine.MAX_BINS}"):
        engine.histogram(s, 1, engine.MAX_BINS + 1)
    with pytest.raises(TooLarge):
        engine.histogram(s, 10**8, 10**8)


@pytest.mark.parametrize("bins", [(1, 1), (7, 5), (40, 40)])
def test_density_l1_error_rows_give_the_whole_grid_bits(circle_sample, bins):
    # the analytic bin means of the whole (nb, nd, 32, 32) grid at once, as before the row loop
    h = engine.histogram(circle_sample, *bins, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    (nb, nd), (b0, b1), (d0, d1) = h.counts.shape, h.range_b, h.range_d
    wb, wd = (b1 - b0) / nb, (d1 - d0) / nd
    off = (np.arange(32) + 0.5) / 32
    tb = b0 + (np.arange(nb)[:, None] + off[None, :]) * wb
    td = d0 + (np.arange(nd)[:, None] + off[None, :]) * wd
    vals = regions.circle_density(tb[:, None, :, None].repeat(nd, axis=1), td[None, :, None, :].repeat(nb, axis=0))
    analytic = vals.reshape(nb, nd, 32 * 32).mean(axis=2)
    whole = float(np.abs(h.counts / (h.total * wb * wd) - analytic).sum() * wb * wd)
    assert engine.density_l1_error(h, regions.circle_density) == whole


def test_density_region_mismatch():
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.empty((0, 2)), 10, 0)
    h = engine.histogram(s, 5, 5)
    with pytest.raises(RegionMismatch):
        engine.density_l1_error(h, regions.circle_density)


def test_coordinate_cdf_circle(circle_sample):
    cdf = engine.coordinate_cdf(circle_sample)
    assert cdf(-1e-9) == 0.0
    assert cdf(0.0) >= 8.0 / 9.0 - 0.01
    # max persistence over the triangle is pi/2, attained at the apex;
    # the mass beyond pi/3 is exactly 1/243 (integrate the density)
    assert cdf(PI / 2) == 1.0
    assert float(cdf(PI / 3)) == pytest.approx(1.0 - 1.0 / 243.0, abs=2e-3)
    assert float(cdf(PI / 3)) < 1.0


def test_coordinate_cdf_unit_step():
    s = engine.PersistenceSetSample("x", 4, 1, 1, np.array([[0.5, 1.25]]), 0, 0)
    cdf = engine.coordinate_cdf(s)
    assert cdf(0.74999) == 0.0 and cdf(0.75) == 1.0


def test_coordinate_cdf_identical_seeds():
    a = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 30_000, seed=5)
    b = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 30_000, seed=5)
    ca = engine.coordinate_cdf(a)
    cb = engine.coordinate_cdf(b)
    assert ca.l1_distance(cb) == 0.0


def test_coordinate_cdf_refuses_multi_point_diagrams():
    # n = 8, k = 1: a tuple may give several points; a per-point CDF is not the campaign's
    s = engine.sample_persistence_set("wedge:3.5,4.5", 8, 1, 1024, seed=3)
    assert len(s.points) + s.trivial_count > s.tuples_drawn
    with pytest.raises(UnsupportedCombination, match="n = 2k"):
        engine.coordinate_cdf(s)


def test_coordinate_cdf_errors():
    with pytest.raises(EmptySample):
        engine.coordinate_cdf(engine.PersistenceSetSample("x", 4, 1, 0, np.empty((0, 2)), 0, 0))


def test_cdf_stability_under_scaling():
    # scale gap 5%: the distribution-function distance is bounded by
    # L(zeta) * L(F) * d_GW1 <= 2 * 2 * (0.05 * pi / 2) = 0.1 pi
    a = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 120_000, seed=5)
    b = engine.sample_persistence_set(
        spaces.CircleGeodesic(diameter=1.05 * PI), 4, 1, 120_000, seed=5
    )
    ca = engine.coordinate_cdf(a)
    cb = engine.coordinate_cdf(b)
    assert ca.l1_distance(cb) <= 2.0 * 2.0 * (0.05 * PI / 2.0)


def test_two_point_measure_values():
    assert two_point_measure(0.5, 1.0, 2).empty_mass == pytest.approx(0.5)
    m = two_point_measure(0.3, 2.0, 5)
    assert m.empty_mass == pytest.approx(0.3**5 + 0.7**5)
    assert m.empty_mass == pytest.approx(0.17050, abs=1e-5)
    assert m.point_mass == pytest.approx(1 - m.empty_mass)
    assert m.location == (0.0, 2.0)
    assert two_point_measure(0.5, 1.0, 40).empty_mass < 1e-3


def test_two_point_empirical_matches_closed_form():
    for alpha, n, seed in [(0.3, 2, 1), (0.5, 5, 2), (0.3, 10, 3)]:
        w = two_point_measure(alpha, 1.0, n).empty_mass
        est = sample_two_point_empty_fraction(alpha, n, 1_000_000, seed)
        sigma = math.sqrt(w * (1 - w) / 1_000_000)
        assert abs(est - w) <= 3 * sigma


def test_sample_io_roundtrip(tmp_path, circle_sample):
    special = np.array([[5e-324, 1e308], [2.2250738585072014e-308, 0.1], [0.0, 1.0 / 3.0]])
    for points in (circle_sample.points, special, np.empty((0, 2))):
        # one point or none per tuple: the sidecar must add up
        sample = dataclasses.replace(circle_sample, points=points,
                                     tuples_drawn=circle_sample.trivial_count + len(points))
        csv = tmp_path / "s.csv"
        engine.write_sample(sample, csv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file reads without a warning
            back = engine.read_sample(csv)
        assert back.points.shape == points.shape
        assert back.points.tobytes() == points.tobytes()
        assert back.trivial_count == circle_sample.trivial_count
        assert back.tuples_drawn == sample.tuples_drawn
        assert back.space == circle_sample.space
        assert back.seed == circle_sample.seed
        assert (back.n, back.k) == (circle_sample.n, circle_sample.k)


@pytest.mark.parametrize("n, k, rows, trivial, tuples, reads", [
    (4, 1, 2, 3, 5, True), (4, 1, 2, 3, 6, False), (4, 1, 2, 3, 4, False), (4, 1, 0, 5, 5, True),
    (5, 1, 2, 3, 5, True), (5, 1, 7, 3, 5, True), (5, 1, 1, 3, 5, False), (4, 1, 0, -1, 5, False)])
def test_read_sample_checks_the_sidecar_counts(n, k, rows, trivial, tuples, reads, tmp_path):
    # at n = 2k+2 each tuple gives one point or none; otherwise any number
    points = np.column_stack([np.zeros(rows), np.arange(1.0, rows + 1)])
    engine.write_sample(engine.PersistenceSetSample("x", n, k, tuples, points, trivial, 0), tmp_path / "s.csv")
    if reads:
        assert len(engine.read_sample(tmp_path / "s.csv").points) == rows
    else:
        with pytest.raises(MalformedFile, match="s.csv.json: "):
            engine.read_sample(tmp_path / "s.csv")


def _edit_csv(csv, other):
    lines = csv.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:-2] + ("1" if lines[1][-2] != "1" else "2") + "\n"  # the last digit of a row
    csv.write_text("".join(lines))


def _truncate_csv(csv, other):
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-2]))


def _flip_data_byte(csv, other):
    data = bytearray(csv.with_name(csv.name + ".f64").read_bytes())
    data[-3] ^= 1
    csv.with_name(csv.name + ".f64").write_bytes(bytes(data))


COMPANION_MISMATCHES = {
    "csv-edited": _edit_csv,
    "csv-truncated": _truncate_csv,
    "companion-deleted": lambda csv, other: os.remove(f"{csv}.f64"),
    "companion-header-only": lambda csv, other: os.truncate(f"{csv}.f64", 72),
    "companion-cut-mid-header": lambda csv, other: os.truncate(f"{csv}.f64", 50),
    "companion-cut-mid-row": lambda csv, other: os.truncate(f"{csv}.f64", os.path.getsize(f"{csv}.f64") - 4),
    "companion-data-byte-flipped": _flip_data_byte,
    "another-sample's-companion": lambda csv, other: os.replace(f"{other}.f64", f"{csv}.f64"),
    "bare-csv": lambda csv, other: (os.remove(f"{csv}.f64"), csv.write_text("t_b,t_d\n2.0,2.5\n")),
}


@pytest.mark.parametrize("mismatch", COMPANION_MISMATCHES)
def test_read_points_parses_the_csv_when_its_companion_does_not_match(mismatch, tmp_path, circle_sample,
                                                                       monkeypatch):
    csv, other = tmp_path / "s.csv", tmp_path / "other.csv"
    engine.write_sample(dataclasses.replace(circle_sample, points=circle_sample.points[:50]), csv)
    engine.write_sample(dataclasses.replace(circle_sample, points=circle_sample.points[50:90]), other)
    COMPANION_MISMATCHES[mismatch](csv, other)
    parses = []
    monkeypatch.setattr(engine, "read_csv", lambda *args: parses.append(args) or metric.read_csv(*args))
    want = metric.read_csv(csv, engine.SAMPLE_HEADER)
    assert engine.read_points(csv).tobytes() == want.tobytes()
    assert parses == [(csv, engine.SAMPLE_HEADER)]


def test_read_points_keeps_the_errors_of_the_parse(tmp_path, circle_sample):
    csv = tmp_path / "s.csv"
    engine.write_sample(circle_sample, csv)
    csv.write_text("t_b,t_d\n0.1,x\n")
    with pytest.raises(MalformedFile) as parsed:
        metric.read_csv(csv, engine.SAMPLE_HEADER)
    with pytest.raises(MalformedFile) as read:
        engine.read_points(csv)
    assert str(read.value) == str(parsed.value)
    os.remove(csv)  # the companion and the sidecar stay
    with pytest.raises(FileNotFoundError) as parsed:
        metric.read_csv(csv, engine.SAMPLE_HEADER)
    with pytest.raises(FileNotFoundError) as read:
        engine.read_sample(csv)
    assert str(read.value) == str(parsed.value)


@pytest.mark.parametrize("n, k, tuples, seed", [(4, -1, 5, 0), (13, 1, 5, 0), (4, 1, 0, 0), (4, 1, 5, -1)])
def test_read_sample_and_a_campaign_share_their_limits(n, k, tuples, seed, tmp_path):
    with pytest.raises(UnsupportedCombination) as refused:
        engine.sample_persistence_set(spaces.CircleGeodesic(), n, k, tuples, seed=seed)
    engine.write_sample(engine.PersistenceSetSample("x", n, k, tuples, np.empty((0, 2)), tuples, seed),
                        tmp_path / "s.csv")
    with pytest.raises(MalformedFile) as read:
        engine.read_sample(tmp_path / "s.csv")
    assert str(read.value) == f"{tmp_path / 's.csv'}.json: {refused.value}"


def test_svg_outputs(tmp_path, circle_sample):
    engine.svg_scatter(circle_sample.points, tmp_path / "p.svg", angular=True, title="t")
    h = engine.histogram(circle_sample, 30, 30)
    engine.svg_heatmap(h, tmp_path / "h.svg", angular=True, title="t")
    scatter = (tmp_path / "p.svg").read_text()
    heat = (tmp_path / "h.svg").read_text()
    assert scatter.startswith("<svg") and 'width="720"' in scatter
    assert "π/2" in scatter  # angular ticks at pi/4 multiples
    assert heat.count("<rect") > 10


def test_svg_bytes(tmp_path, circle_sample):
    # recorded before the two writers shared their frame and closing code
    engine.svg_scatter(circle_sample.points, tmp_path / "p.svg", angular=True, title="t")
    engine.svg_heatmap(engine.histogram(circle_sample, 30, 30), tmp_path / "h.svg", angular=True, title="t")
    for name, want in (("p.svg", "0b6a69805d060bf066d57e403f945f8c93e71bf3af0392b0f65932e9315329c1"),
                       ("h.svg", "5ae048bda1d2cee6ad29cfa45b25e8150ba2bb4f0c8b7b54b7a261507cb920dd")):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_svg_scatter_holds_no_whole_plot_strings(tmp_path):
    # whole-plot strings took 8.8 MB for the 20,000 marks drawn of 10^6 points
    pts = np.random.default_rng(6).random((10**6, 2))
    assert traced_peak(engine.svg_scatter, pts, tmp_path / "p.svg") < 3e6


def test_histogram_holds_no_per_point_index_arrays():
    # one np.histogram2d call over every point took about 41 bytes a point
    pts = np.random.default_rng(6).random((10**6, 2))
    assert traced_peak(engine.histogram, engine.PersistenceSetSample("x", 4, 1, len(pts), pts, 0, 0)) < 8 * len(pts)


def cloud_space(size=30):
    v = np.random.default_rng(5).standard_normal((size, 3))
    return engine.FiniteSpace(metric.validate(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)))


@pytest.mark.parametrize("space", ["s1", "sphere:m=2", "torus", "glued:3.5,4.5:alpha=0.5", cloud_space()],
                         ids=["s1", "sphere", "torus", "glued", "finite"])
def test_distance_matrix_of_a_kept_tuple_gives_its_point(space):
    # the matrix of a kept tuple, by the one raw-point route, gives the tuple's point bit for bit
    space = engine.space_of(space)
    s = engine.sample_persistence_set(space, 4, 1, 50_000, seed=9)
    kept = engine.kept_tuples(space, s)
    assert len(kept) == len(s.points) > 1000
    for i in range(0, len(s.points), 50):
        dm = spaces.distance_matrix(space, kept[i])
        tb, td = principal.principal_of_pairs(condensed(dm.entries), 4)
        assert np.array([tb, td]).tobytes() == s.points[i].tobytes()


@pytest.mark.parametrize("block", [engine.BLOCK, 300])
def test_finite_kept_tuples_align_with_points(block, monkeypatch):
    # 20 points of the unit 2-sphere and three repeats; 300 ends blocks inside the chunk
    monkeypatch.setattr(engine, "BLOCK", block)
    v = np.random.default_rng(8).standard_normal((20, 3))
    v = (v / np.linalg.norm(v, axis=1)[:, None])[[*range(20), 2, 5, 5]]
    dm = metric.validate(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1))
    space = engine.FiniteSpace(dm)
    s = engine.sample_persistence_set(space, 4, 1, 20_000, seed=6)
    kept = engine.kept_tuples(space, s)
    assert kept.shape == (len(s.points), 4, 1) and len(s.points) > 500
    for tup, point in zip(kept, s.points):
        tb, td = principal.principal_of_pairs(condensed(spaces.distance_matrix(space, tup).entries), 4)
        assert np.array([tb, td]).tobytes() == point.tobytes()


def test_oracle_kept_tuples_align_with_points():
    # eight points on a wedge of two circles: some diagrams carry two points
    g = graphs.parse_family("wedge:3.5,4.5")
    s = engine.sample_persistence_set(g, 8, 1, 1024, seed=3)
    kept = engine.kept_tuples(g, s)
    assert len(s.points) + s.trivial_count > s.tuples_drawn
    assert kept.shape == (len(s.points), 8, 2)
    for tup, point in zip(kept, s.points):
        assert tuple(point) in vr_diagram(spaces.distance_matrix(g, tup), 1).points


def test_oracle_fallback_is_the_same_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context, **start):
            started.append(max_workers)
            super().__init__(max_workers, mp_context, **start)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    runs = [engine.sample_persistence_set(spaces.CircleGeodesic(), 5, 1, 1500, seed=5, workers=w)
            for w in (1, 2)]
    assert runs[0].trivial_count == runs[1].trivial_count
    assert np.array_equal(runs[0].points, runs[1].points)
    assert np.array_equal(*(engine.kept_tuples("s1", r) for r in runs))
    assert started == [2]  # two chunks of at most 1024 tuples


def test_a_spawned_pool_writes_the_bytes_of_a_forked_one(tmp_path, monkeypatch):
    # the pool names fork; under spawn each worker imports persets afresh and unpickles the space by reference
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    get_context, asked, written = multiprocessing.get_context, [], []

    def spawn(method=None):
        asked.append(method)
        return get_context("spawn")

    for name in ("fork", "spawn"):
        if name == "spawn":
            monkeypatch.setattr(multiprocessing, "get_context", spawn)
        sample = engine.sample_persistence_set("s1", 5, 1, 2048, seed=37, workers=2)  # two chunks
        engine.write_sample(sample, tmp_path / f"{name}.csv")
        written.append([(tmp_path / f"{name}.csv{suffix}").read_bytes() for suffix in ("", ".json", ".f64")])
    assert asked == (["fork"] if "fork" in multiprocessing.get_all_start_methods() else [])
    assert written[0] == written[1] and len(sample.points) > 0


class CountedSpace(engine.FiniteSpace):
    pickles = 0  # in this process

    def __reduce__(self):
        CountedSpace.pickles += 1
        return CountedSpace, (self.matrix,)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_pool_pickles_the_space_at_most_once_a_worker(method, monkeypatch):
    # a task carries a chunk index and a count: the space reaches a worker with its start, by
    # inheritance under fork and as one pickle under spawn, not once for each of eight chunks
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda name=None: get_context(method))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "CHUNK", 1024)
    space = CountedSpace(cloud_space().matrix)
    serial = engine.sample_persistence_set(space, 4, 1, 8 * 1024, seed=38)
    monkeypatch.setattr(CountedSpace, "pickles", 0)
    pooled = engine.sample_persistence_set(space, 4, 1, 8 * 1024, seed=38, workers=2)
    assert CountedSpace.pickles <= 2, CountedSpace.pickles
    assert pooled.points.tobytes() == serial.points.tobytes() and pooled.trivial_count == serial.trivial_count


@pytest.mark.parametrize("space, n, k, tuples", [(cloud_space(), 4, 1, 140_000),
                                                 ("glued:3.5,4.5:alpha=0.5", 4, 1, 140_000),
                                                 ("s1", 5, 1, 1100)], ids=["finite", "graph", "oracle"])
def test_kept_tuples_of_a_sample_read_from_its_file(space, n, k, tuples, tmp_path):
    # a partial last chunk each; the sample file holds no tuples, the redraw from its seed does
    s = engine.sample_persistence_set(space, n, k, tuples, seed=4)
    engine.write_sample(s, tmp_path / "s.csv")
    kept = engine.kept_tuples(space, engine.read_sample(tmp_path / "s.csv"))
    assert len(kept) == len(s.points) > 0
    assert kept.tobytes() == engine.kept_tuples(space, s).tobytes()


def test_kept_tuples_refuse_a_space_or_sample_that_does_not_match():
    s = engine.sample_persistence_set("glued:3.5,4.5:alpha=0.5", 4, 1, 70_000, seed=4)
    with pytest.raises(UnsupportedCombination, match="the sample is of 'graph:2v:3e', not of 's1'"):
        engine.kept_tuples("s1", s)
    # one descriptor, other edge lengths: the redraw gives other points
    assert graphs.parse_family("glued:3.6,4.5:alpha=0.5").descriptor == s.space
    with pytest.raises(UnsupportedCombination, match="redraws other points"):
        engine.kept_tuples("glued:3.6,4.5:alpha=0.5", s)
    # another seed, a point short, a point over, one ulp off
    for points, seed in [(s.points, 5), (s.points[:-1], 4), (s.points[[*range(len(s.points)), 0]], 4),
                         (np.nextafter(s.points, 9), 4)]:
        with pytest.raises(UnsupportedCombination, match="redraws other points"):
            engine.kept_tuples("glued:3.5,4.5:alpha=0.5", dataclasses.replace(s, points=points, seed=seed))
    with pytest.raises(UnsupportedCombination, match="tuples must be >= 1"):
        engine.kept_tuples("glued:3.5,4.5:alpha=0.5", dataclasses.replace(s, points=s.points[:0], tuples_drawn=0))


@pytest.fixture
def recording_pool(monkeypatch):
    started = []

    class Pool:  # records the pool size and runs the chunks in this process
        def __init__(self, max_workers, mp_context, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)  # as each worker would at its start

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args, chunksize):
            return map(fn, *args)

    monkeypatch.setattr(engine, "CHUNK", 1024)
    monkeypatch.setattr(engine, "_campaign", ())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return started


def test_pool_is_capped_at_the_chunk_count(recording_pool):
    started = recording_pool
    s8 = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 1500, seed=3, workers=8)
    s1 = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 1500, seed=3, workers=1)
    assert started == [2]  # two chunks: a larger pool would fork idle processes
    assert np.array_equal(s8.points, s1.points) and s8.trivial_count == s1.trivial_count


@pytest.mark.parametrize("cpus, want", [(3, [3]), (1, []), (None, [])])
def test_pool_is_capped_at_the_cpu_count(cpus, want, recording_pool, monkeypatch):
    # five chunks; one CPU, or an unknown count, runs them in this process
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    s = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 5000, seed=3, workers=10_000)
    assert recording_pool == want
    assert s.trivial_count + len(s.points) == 5000
