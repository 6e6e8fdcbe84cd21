"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Campaign sizes and tolerances are pinned here, not
configurable: they are the exit bar of the package.
"""
import math
import sys
import time

import numpy as np
import pytest

from persets import (
    diagram_metrics as dmx,
    engine,
    graph_analysis as ga,
    graphs,
    metric,
    regions,
    spaces,
)

from conftest import circle_matrix, cloud_matrix_r3
from reference import (bottleneck_distance, circle_vs_sphere_crosspolytope_bound, euclidean_image, principal_diagram,
                       reconstruct, sample_two_point_empty_fraction, split_decompose, tight_span_persistence,
                       two_point_measure, vr_diagram, vr_diagrams)

PI = math.pi


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def s1_campaign():
    """Criterion 3's campaign, shared by criteria 4, 6 and 14."""
    t0 = time.perf_counter()
    sample = engine.sample_persistence_set(
        spaces.CircleGeodesic(), 4, 1, 1_000_000, seed=7, workers=1
    )
    elapsed = time.perf_counter() - t0
    return sample, elapsed


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = nontrivial = 0
    for k in (0, 1, 2):
        n = 2 * k + 2
        for i in range(1000):
            dm = cloud_matrix_r3(rng, n) if i % 2 == 0 else circle_matrix(rng, n)
            fast = principal_diagram(dm, k)
            slow = vr_diagram(dm, k)
            assert fast.is_empty == slow.is_empty, (k, i)
            if not fast.is_empty:
                assert len(slow.points) == 1
                assert abs(slow.points[0][0] - fast.points[0][0]) <= 1e-12
                assert abs(slow.points[0][1] - fast.points[0][1]) <= 1e-12
                nontrivial += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        checked == 3000 and elapsed < 30.0,
        f"principal == oracle on {checked} matrices ({nontrivial} nontrivial), {elapsed:.1f}s < 30s",
    )


def test_criterion_02_emptiness_below_threshold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for n in range(2, 9):
        degrees = [k for k in range(n - 1) if k > n / 2 - 1]
        if not degrees:
            continue  # no degree k <= n-2 exceeds n/2-1; higher degrees
            # have no k-simplices at all
        for i in range(500):
            dm = cloud_matrix_r3(rng, n) if i % 2 == 0 else circle_matrix(rng, n)
            dgms = vr_diagrams(dm, max_degree=n - 2)
            for k in degrees:
                assert dgms[k].is_empty, (n, k, i)
                checked += 1
    elapsed = time.perf_counter() - t0
    report(2, checked > 0 and elapsed < 60.0, f"{checked} degree checks all empty, {elapsed:.1f}s < 60s")


def test_criterion_03_s1_nontrivial_fraction(s1_campaign):
    sample, elapsed = s1_campaign
    frac = sample.nontrivial_fraction
    ok = abs(frac - 1.0 / 9.0) <= 0.01 and elapsed < 10.0
    report(3, ok, f"fraction {frac:.5f} in 1/9 +- 0.01, campaign {elapsed:.2f}s < 10s")


def test_criterion_04_s1_region_containment_and_coverage(s1_campaign):
    sample, _ = s1_campaign
    pts = sample.points
    inside = regions.contains(regions.CircleOddK(1, PI), pts[:, 0], pts[:, 1], tol=1e-9)
    all_inside = bool(np.asarray(inside).all())
    boundary = regions.boundary_points(regions.CircleOddK(1, PI), step=1e-2)
    worst = 0.0
    for start in range(0, len(boundary), 64):
        block = boundary[start : start + 64]
        d = np.abs(block[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
        worst = max(worst, float(d.max()))
    ok = all_inside and worst <= 0.05
    report(4, ok, f"containment {all_inside}, boundary coverage {worst:.4f} <= 0.05")


def test_criterion_05_even_k_region():
    sample = engine.sample_persistence_set(spaces.CircleGeodesic(), 6, 2, 1_000_000, seed=11)
    pts = sample.points
    tb_min = float(pts[:, 0].min())
    inside = regions.contains(regions.CircleEvenK(2, PI), pts[:, 0], pts[:, 1], tol=1e-9)
    ok = tb_min >= 2 * PI / 3 - 1e-9 and bool(np.asarray(inside).all())
    report(5, ok, f"n=6 k=2: min t_b {tb_min:.6f} >= 2pi/3 - 1e-9, all {len(pts)} points in region")


def test_criterion_06_density_check(s1_campaign):
    sample, _ = s1_campaign
    hist = engine.histogram(sample, 50, 50, range_b=(PI / 2, PI), range_d=(2 * PI / 3, PI))
    err = engine.density_l1_error(hist, regions.circle_density)
    mass = regions.circle_density_mass()
    ok = err <= 0.05 and abs(mass - 1.0 / 9.0) <= 1e-6
    report(6, ok, f"L1 error {err:.4f} <= 0.05, quadrature mass |{mass:.9f} - 1/9| <= 1e-6")


def test_criterion_07_model_surface_regions():
    ok_parts = []
    for kappa, model in [
        (1.0, spaces.ModelSurface(kappa=1.0)),
        (-1.0, spaces.ModelSurface(kappa=-1.0, disk_radius=PI)),
    ]:
        sample = engine.sample_persistence_set(model, 4, 1, 100_000, seed=13)
        pts = sample.points
        inside = regions.contains(regions.ModelSurfaceRegion(kappa), pts[:, 0], pts[:, 1], tol=1e-6)
        part = bool(np.asarray(inside).all())
        if kappa > 0:
            part = part and float(pts[:, 1].max()) <= PI + 1e-9
        ok_parts.append(part)
    report(7, all(ok_parts), f"kappa=+1 containment {ok_parts[0]}, kappa=-1 containment {ok_parts[1]}")


def test_criterion_08_euclidean_circle_and_sphere(s1_campaign):
    se = engine.sample_persistence_set(spaces.SphereEuclidean(m=1), 4, 1, 100_000, seed=17)
    in_circle = regions.contains(
        regions.EuclideanCircle(), se.points[:, 0], se.points[:, 1], tol=1e-6
    )
    s2 = engine.sample_persistence_set(spaces.SphereEuclidean(m=2), 4, 1, 100_000, seed=19)
    in_sphere = regions.contains(
        regions.EuclideanSphereM(2), s2.points[:, 0], s2.points[:, 1], tol=1e-6
    )
    geo, _ = s1_campaign
    tbe, tde = euclidean_image(geo.points[:, 0], geo.points[:, 1])
    image_in = regions.contains(regions.EuclideanCircle(), tbe, tde, tol=1e-6)
    parts = [bool(np.asarray(m).all()) for m in (in_circle, in_sphere, image_in)]
    report(8, all(parts), f"S1_E {parts[0]}, S2_E {parts[1]}, chord image of S1 sample {parts[2]}")


def test_criterion_09_gh_lower_bounds():
    (pa, ra), (pb, rb) = (dmx.region_points(r, 1e-3, 5e-3)
                          for r in (regions.CircleOddK(1, PI), regions.ModelSurfaceRegion(1.0)))
    hausdorff = dmx.hausdorff_bottleneck_points(pa, pb, region_a=ra, region_b=rb)
    gh = hausdorff / 2.0
    crosspoly = circle_vs_sphere_crosspolytope_bound(3)
    ok = (
        abs(hausdorff - 0.4293) <= 0.01
        and abs(gh - 0.2147) <= 0.005
        and crosspoly == PI / 8
    )
    report(
        9,
        ok,
        f"hausdorff {hausdorff:.4f} ~ 0.4293, gh {gh:.4f} ~ 0.2147, "
        f"crosspolytope bound == pi/8 exactly: {crosspoly == PI / 8}",
    )


def test_criterion_10_graph_betti_recovery():
    glued = graphs.glued_cycles([3.5, 4.5], alpha=0.5)
    s_glued = engine.sample_persistence_set(glued, 4, 1, 100_000, seed=5)
    rep_glued = ga.detect_corners(s_glued)
    lams_glued = sorted(rep_glued.lambdas)
    glued_ok = (
        rep_glued.estimated_betti == 2
        and abs(lams_glued[0] / 1.75 - 1) <= 0.02
        and abs(lams_glued[1] / 2.25 - 1) <= 0.02
    )

    tree = graphs.tree_of_cycles([8.0, 10.0, 12.8], tree_edge=0.35)
    s_tree = engine.sample_persistence_set(tree, 4, 1, 100_000, seed=5)
    rep_tree = ga.detect_corners(s_tree)
    lams_tree = sorted(rep_tree.lambdas)
    tree_ok = rep_tree.estimated_betti == 3 and all(
        abs(l / t - 1) <= 0.02 for l, t in zip(lams_tree, [4.0, 5.0, 6.4])
    )

    flares = graphs.circle_with_flares_figure()
    s_flares = engine.sample_persistence_set(flares, 4, 1, 100_000, seed=11)
    frac = s_flares.nontrivial_fraction
    outside = ~np.asarray(
        regions.contains(
            regions.CircleOddK(1, PI), s_flares.points[:, 0], s_flares.points[:, 1], tol=1e-9
        )
    )
    flares_ok = abs(frac - 0.076) <= 0.01 and int(outside.sum()) > 0

    report(
        10,
        glued_ok and tree_ok and flares_ok,
        f"glued betti {rep_glued.estimated_betti} lams {[round(l, 3) for l in lams_glued]}, "
        f"tree betti {rep_tree.estimated_betti} lams {[round(l, 3) for l in lams_tree]}, "
        f"flares fraction {frac:.4f} ~ 0.076 with {int(outside.sum())} points beyond the circle region",
    )


def test_criterion_11_stability_under_perturbation():
    rng = np.random.default_rng(1111)
    eta = 0.05
    worst = 0.0
    for _ in range(1000):
        pts = rng.normal(size=(4, 3))
        bump = rng.normal(size=(4, 3))
        bump /= np.linalg.norm(bump, axis=1, keepdims=True)
        bump *= rng.uniform(0, eta, size=(4, 1))
        d1 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d2 = np.linalg.norm((pts + bump)[:, None] - (pts + bump)[None, :], axis=-1)
        np.fill_diagonal(d1, 0.0)
        np.fill_diagonal(d2, 0.0)
        assert np.abs(d1 - d2).max() <= 2 * eta + 1e-12
        g1 = principal_diagram(metric.DistanceMatrix(d1), 1)
        g2 = principal_diagram(metric.DistanceMatrix(d2), 1)
        worst = max(worst, bottleneck_distance(g1, g2))
    report(11, worst <= 2 * eta + 1e-12, f"max bottleneck {worst:.4f} <= 0.1 over 1000 perturbations")


def test_criterion_12_two_point_concentration():
    checks = []
    for alpha in (0.3, 0.5):
        for n in (2, 5, 10):
            w = two_point_measure(alpha, 1.0, n).empty_mass
            est = sample_two_point_empty_fraction(alpha, n, 1_000_000, seed=n * 100 + int(alpha * 10))
            sigma = math.sqrt(w * (1.0 - w) / 1_000_000)
            checks.append(abs(est - w) <= 3.0 * sigma)
    tail = max(
        two_point_measure(0.3, 1.0, 40).empty_mass,
        two_point_measure(0.5, 1.0, 40).empty_mass,
    )
    ok = all(checks) and tail < 1e-3
    report(12, ok, f"6/6 empirical checks within 3 sigma, empty mass at n=40: {tail:.2e} < 1e-3")


def test_criterion_13_split_metric_agreement():
    rng = np.random.default_rng(1313)
    worst_recon = 0.0
    for i in range(10_000):
        dm = cloud_matrix_r3(rng, 4) if i % 2 == 0 else circle_matrix(rng, 4)
        dec = split_decompose(dm)
        worst_recon = max(worst_recon, float(np.abs(reconstruct(dec) - dm.entries).max()))
        assert tight_span_persistence(dec) == principal_diagram(dm, 1), i
    report(13, worst_recon <= 1e-9, f"tight-span == principal on 10000 matrices, recon error {worst_recon:.2e}")


def test_criterion_14_performance(s1_campaign):
    sample, elapsed = s1_campaign
    throughput = sample.tuples_drawn / elapsed
    ok = elapsed < 10.0 and throughput >= 3e5
    report(
        14,
        ok,
        f"1e6-tuple campaign in {elapsed:.2f}s (< 10s), single-thread {throughput:,.0f} diagrams/s >= 300,000",
    )
