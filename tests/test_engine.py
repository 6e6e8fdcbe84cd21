import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from persets import engine, graphs, metric, oracle, principal, regions, spaces
from persets.errors import EmptySample, RegionMismatch, UnsupportedCombination

from conftest import circle_angles_matrix

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

    monkeypatch.setattr(engine, "sample_tuples", draw)
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
    _, pairs = engine.sample_tuples(space, engine._chunk_rng(3, 0), 500, 4)
    dgms = [oracle.vr_diagram(metric.DistanceMatrix(m), 1).points
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
    s = engine.sample_persistence_set(engine.FiniteSpace(dm), 4, 1, 3000, seed=4,
                                      keep_nontrivial_tuples=True)
    assert s.space == "finite:6"
    assert s.kept_tuples.shape == (len(s.points), 4, 1)
    for tup, point in zip(s.kept_tuples[:50], s.points):
        dgm = principal.principal_diagram(metric.restrict(dm, tup[:, 0]), 1)
        assert dgm.point == tuple(point)


class Segment:
    """A space defined outside the package: the unit interval."""

    descriptor = "segment"

    def sample_points(self, rng, count):
        return rng.random((count, 1))

    def prepare(self, points):
        return points

    def pair_distance(self, p, q):
        return np.abs(p[..., 0] - q[..., 0])


def test_custom_space_needs_only_the_protocol():
    # an interval is a tree: no 4-point subset carries a 1-cycle
    s = engine.sample_persistence_set(Segment(), 4, 1, 5000, seed=2, keep_nontrivial_tuples=True)
    assert s.space == "segment"
    assert s.trivial_count == 5000 and s.kept_tuples.shape == (0, 4, 1)


def test_prepare_runs_once_per_block(monkeypatch):
    calls = []
    prepare, pair_distance = graphs.MetricGraph.prepare, graphs.MetricGraph.pair_distance

    def spy_prepare(self, points):
        calls.append(points.shape)
        return prepare(self, points)

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

    def prepare(self, points):
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
    assert h.counts.sum() == 0 and h.empty_mass == 10


def test_histogram_of_one_point_records_the_bins_numpy_used(tmp_path):
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.array([[2.0, 2.5]]), 9, 0)
    h = engine.histogram(s, 5, 5)
    assert (h.range_b, h.range_d) == ((1.5, 2.5), (2.0, 3.0))
    assert h.bin_area == pytest.approx(0.04) and h.counts[2, 2] == h.counts.sum() == 1
    engine.write_histogram(h, tmp_path / "h.csv")
    with open(tmp_path / "h.csv.json", encoding="utf-8") as fh:
        assert json.load(fh)["range_b"] == [1.5, 2.5]
    assert engine.density_l1_error(h, regions.circle_density) > 0


def test_histogram_mass_bookkeeping(circle_sample):
    h = engine.histogram(circle_sample, 50, 50, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    assert h.counts.sum() + h.empty_mass == h.total
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


def test_density_region_mismatch():
    s = engine.PersistenceSetSample("x", 4, 1, 10, np.empty((0, 2)), 10, 0)
    h = engine.histogram(s, 5, 5)
    with pytest.raises(RegionMismatch):
        engine.density_l1_error(h, regions.circle_density)


def test_coordinate_cdf_circle(circle_sample):
    cdf = engine.coordinate_cdf(circle_sample, "totalPersistence")
    assert cdf(-1e-9) == 0.0
    assert cdf(0.0) >= 8.0 / 9.0 - 0.01
    # max persistence over the triangle is pi/2, attained at the apex;
    # the mass beyond pi/3 is exactly 1/243 (integrate the density)
    assert cdf(PI / 2) == 1.0
    assert float(cdf(PI / 3)) == pytest.approx(1.0 - 1.0 / 243.0, abs=2e-3)
    assert float(cdf(PI / 3)) < 1.0


def test_coordinate_cdf_unit_step():
    s = engine.PersistenceSetSample("x", 4, 1, 1, np.array([[0.5, 1.25]]), 0, 0)
    cdf = engine.coordinate_cdf(s, "totalPersistence")
    assert cdf(0.74999) == 0.0 and cdf(0.75) == 1.0
    assert engine.coordinate_cdf(s, "birth")(0.5) == 1.0
    assert engine.coordinate_cdf(s, "death")(1.2) == 0.0


def test_coordinate_cdf_identical_seeds():
    a = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 30_000, seed=5)
    b = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 30_000, seed=5)
    ca = engine.coordinate_cdf(a, "totalPersistence")
    cb = engine.coordinate_cdf(b, "totalPersistence")
    assert ca.l1_distance(cb) == 0.0


def test_coordinate_cdf_refuses_multi_point_diagrams():
    # n = 8, k = 1: a tuple may give several points; a per-point CDF is not the campaign's
    s = engine.sample_persistence_set("wedge:3.5,4.5", 8, 1, 1024, seed=3)
    assert len(s.points) + s.trivial_count > s.tuples_drawn
    with pytest.raises(UnsupportedCombination, match="n = 2k"):
        engine.coordinate_cdf(s, "death")


def test_coordinate_cdf_errors(circle_sample):
    with pytest.raises(EmptySample):
        engine.coordinate_cdf(engine.PersistenceSetSample("x", 4, 1, 0, np.empty((0, 2)), 0, 0))
    with pytest.raises(UnsupportedCombination):
        engine.coordinate_cdf(circle_sample, "midlife")


def test_cdf_stability_under_scaling():
    # scale gap 5%: the distribution-function distance is bounded by
    # L(zeta) * L(F) * d_GW1 <= 2 * 2 * (0.05 * pi / 2) = 0.1 pi
    a = engine.sample_persistence_set(spaces.CircleGeodesic(), 4, 1, 120_000, seed=5)
    b = engine.sample_persistence_set(
        spaces.CircleGeodesic(diameter=1.05 * PI), 4, 1, 120_000, seed=5
    )
    ca = engine.coordinate_cdf(a, "totalPersistence")
    cb = engine.coordinate_cdf(b, "totalPersistence")
    assert ca.l1_distance(cb) <= 2.0 * 2.0 * (0.05 * PI / 2.0)


def test_two_point_measure_values():
    assert engine.two_point_measure(0.5, 1.0, 2).empty_mass == pytest.approx(0.5)
    m = engine.two_point_measure(0.3, 2.0, 5)
    assert m.empty_mass == pytest.approx(0.3**5 + 0.7**5)
    assert m.empty_mass == pytest.approx(0.17050, abs=1e-5)
    assert m.point_mass == pytest.approx(1 - m.empty_mass)
    assert m.location == (0.0, 2.0)
    assert engine.two_point_measure(0.5, 1.0, 40).empty_mass < 1e-3


def test_two_point_empirical_matches_closed_form():
    for alpha, n, seed in [(0.3, 2, 1), (0.5, 5, 2), (0.3, 10, 3)]:
        w = engine.two_point_measure(alpha, 1.0, n).empty_mass
        est = engine.sample_two_point_empty_fraction(alpha, n, 1_000_000, seed)
        sigma = math.sqrt(w * (1 - w) / 1_000_000)
        assert abs(est - w) <= 3 * sigma


def test_sample_io_roundtrip(tmp_path, circle_sample):
    special = np.array([[5e-324, 1e308], [2.2250738585072014e-308, 0.1], [0.0, 1.0 / 3.0]])
    for points in (circle_sample.points, special, np.empty((0, 2))):
        sample = dataclasses.replace(circle_sample, points=points)
        csv = tmp_path / "s.csv"
        engine.write_sample(sample, csv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file reads without a warning
            back = engine.read_sample(csv)
        assert back.points.shape == points.shape
        assert back.points.tobytes() == points.tobytes()
        assert back.trivial_count == circle_sample.trivial_count
        assert back.tuples_drawn == circle_sample.tuples_drawn
        assert back.space == circle_sample.space
        assert back.seed == circle_sample.seed
        assert (back.n, back.k) == (circle_sample.n, circle_sample.k)


def test_histogram_io(tmp_path, circle_sample):
    h = engine.histogram(circle_sample, 10, 10)
    engine.write_histogram(h, tmp_path / "h.csv")
    grid = np.loadtxt(tmp_path / "h.csv", delimiter=",")
    assert grid.shape == (10, 10)
    assert os.path.exists(tmp_path / "h.csv.json")


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


def test_kept_tuples_align_with_points():
    s = engine.sample_persistence_set(
        spaces.CircleGeodesic(), 4, 1, 50_000, seed=9, keep_nontrivial_tuples=True
    )
    assert s.kept_tuples is not None and len(s.kept_tuples) == len(s.points)
    c = spaces.CircleGeodesic()
    for i in range(0, len(s.points), 500):
        mat = c.pair_distance(s.kept_tuples[i][:, None, :], s.kept_tuples[i][None, :, :])
        tb, td = principal.principal_of_pairs(metric.condensed(mat), 4)
        assert (tb, td) == (s.points[i, 0], s.points[i, 1])


def test_oracle_kept_tuples_align_with_points():
    # eight points on a wedge of two circles: some diagrams carry two points
    g = graphs.parse_family("wedge:3.5,4.5")
    s = engine.sample_persistence_set(g, 8, 1, 1024, seed=3, keep_nontrivial_tuples=True)
    assert len(s.points) + s.trivial_count > s.tuples_drawn
    assert s.kept_tuples.shape == (len(s.points), 8, 2)
    i, j = np.triu_indices(8, 1)
    for tup, point in zip(s.kept_tuples, s.points):
        mat = metric.squareform(g.pair_distance(tup[i], tup[j]), 8)
        assert tuple(point) in oracle.vr_diagram(metric.DistanceMatrix(mat), 1).points


def test_oracle_fallback_is_the_same_for_any_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    runs = [engine.sample_persistence_set(spaces.CircleGeodesic(), 5, 1, 1500, seed=5, workers=w,
                                          keep_nontrivial_tuples=True)
            for w in (1, 2)]
    assert runs[0].trivial_count == runs[1].trivial_count
    assert np.array_equal(runs[0].points, runs[1].points)
    assert np.array_equal(runs[0].kept_tuples, runs[1].kept_tuples)
    assert started == [2]  # two chunks of at most 1024 tuples


@pytest.fixture
def recording_pool(monkeypatch):
    started = []

    class Pool:  # records the pool size and runs the chunks in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args, chunksize):
            return map(fn, *args)

    monkeypatch.setattr(engine, "CHUNK", 1024)
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
