import math
import tracemalloc

import numpy as np
import pytest

from persets import regions as reg
from persets.errors import InvalidDescriptor, TooLarge

from reference import euclidean_image

PI = math.pi


def test_circle_odd_k1_membership():
    r = reg.CircleOddK(1, PI)
    assert reg.contains(r, PI / 2, PI)
    assert not reg.contains(r, 0.9 * PI / 2, PI)
    assert reg.contains(r, 2 * PI / 3, 2 * PI / 3, tol=1e-12)  # diagonal vertex
    assert not reg.contains(r, 2.0, 2.2)  # below the lower edge


def test_circle_even_k2_membership():
    r = reg.CircleEvenK(2, PI)
    assert reg.contains(r, 2 * PI / 3, 0.9 * PI)
    assert not reg.contains(r, 0.6 * PI, 0.9 * PI)
    assert not reg.contains(r, 2 * PI / 3, 1.1 * PI)


def test_flat_surface_membership():
    r = reg.ModelSurfaceRegion(kappa=0.0)
    assert reg.contains(r, 1.0, math.sqrt(2.0))
    assert not reg.contains(r, 1.0, 1.5)
    assert not reg.contains(r, 1.0, 0.9)  # below diagonal


def test_euclidean_circle_membership():
    r = reg.EuclideanCircle()
    assert reg.contains(r, math.sqrt(2.0), 2.0)
    assert not reg.contains(r, 1.2, 1.9)  # t_b below sqrt(2)
    assert not reg.contains(r, 1.5, 1.6)  # below the lower curve


def test_model_surface_tolerance_slack():
    r = reg.ModelSurfaceRegion(kappa=1.0)
    tb, td = 1.0, 2 * math.asin(math.sqrt(2) * math.sin(0.5))  # exact boundary
    assert reg.contains(r, tb, td, tol=1e-9)
    assert not reg.contains(r, tb, td + 1e-6, tol=1e-9)


def test_boundary_triangle_vertices_present():
    pts = reg.boundary_points(reg.CircleOddK(1, PI), step=1e-2)
    for v in [(PI / 2, PI), (2 * PI / 3, 2 * PI / 3), (PI, PI)]:
        gap = np.abs(pts - np.asarray(v)).max(axis=1).min()
        assert gap <= 1e-2


def test_boundary_sphere_left_curve_equation():
    pts = reg.boundary_points(reg.ModelSurfaceRegion(kappa=1.0), step=1e-3)
    td = pts[:, 1]
    on_curve = np.abs(pts[:, 0] - 2.0 * np.arcsin(np.sin(td / 2.0) / math.sqrt(2.0)))
    # the left boundary is present: many rows satisfy its equation
    assert (on_curve < 1e-9).sum() > 1000


def test_boundary_step_halving_doubles_count():
    a = len(reg.boundary_points(reg.CircleOddK(1, PI), step=2e-3))
    b = len(reg.boundary_points(reg.CircleOddK(1, PI), step=1e-3))
    assert 1.8 <= b / a <= 2.2


def test_boundary_positive_step_required():
    with pytest.raises(InvalidDescriptor):
        reg.boundary_points(reg.CircleOddK(1, PI), step=0.0)


@pytest.mark.parametrize("make, step", [
    (reg.boundary_points, 1e-300),  # the count alone is out of the float range
    (reg.boundary_points, PI * 1e-8),  # one side just past the cap of 1e8
    (reg.interior_grid, PI / 2e4),  # 2e4 points a side, 4e8 in all
], ids=["boundary-1e-300", "boundary-past-cap", "interior-past-cap"])
def test_an_oversized_region_grid_is_refused_before_it_is_made(make, step):
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="more than 1e[+]08"):
            make(reg.ModelSurfaceRegion(kappa=1.0), step)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_region_side_is_counted_whole_before_its_boundary_is_made():
    # the boundary alone is 7e6 points (110 MB); the interior grid at 5e-3 would be 3.6e11
    from persets import diagram_metrics
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="step 0.005 makes a region grid of 3.6e[+]11 points"):
            diagram_metrics.region_points(reg.parse_region("ptolemaic:cap=3000"), 1e-3, 5e-3)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_boundary_is_counted_over_all_its_pieces():
    # sides of 5e7, 1.5e7 and 5e7 points: each is under the cap, the boundary is not
    with pytest.raises(TooLarge, match="makes a region grid of 1.15e[+]08 points"):
        reg.boundary_points(reg.PtolemaicEnvelope(diameter_cap=5e4), 1e-3)


def test_the_finest_documented_grids_are_well_within_the_cap():
    # s1 vs s2-geodesic at step 2.5e-4 (interior 1e-3): both regions lie in [0, pi]^2
    assert 10 * reg._count(2.5e-4, PI) < reg.MAX_GRID_POINTS
    assert 10 * reg._count(1e-3, PI) ** 2 < reg.MAX_GRID_POINTS


def test_circle_density_values():
    assert reg.circle_density(0.9 * PI, PI) == 0.0
    assert reg.circle_density(PI / 2, PI / 2 + 1e-3) == 0.0  # outside the region
    inside = reg.circle_density(0.55 * PI, 0.95 * PI)
    assert inside == pytest.approx(12.0 / PI**3 * (PI - 0.95 * PI))


def test_circle_density_total_mass():
    assert reg.circle_density_mass() == pytest.approx(1.0 / 9.0, abs=1e-6)


def test_circle_region_inside_sphere_region():
    # persistence sets grow under isometric embeddings: S1 in S2
    grid = np.linspace(0.0, PI, 200)
    tb, td = np.meshgrid(grid, grid)
    in_circle = reg.contains(reg.CircleOddK(1, PI), tb, td)
    in_sphere = reg.contains(reg.ModelSurfaceRegion(1.0), tb, td, tol=1e-9)
    assert not np.any(in_circle & ~in_sphere)


def test_chord_map_sends_circle_boundary_to_euclidean_boundary():
    pts = reg.boundary_points(reg.CircleOddK(1, PI), step=1e-3)
    tbe, tde = euclidean_image(pts[:, 0], pts[:, 1])
    left = 2.0 * tbe * np.sqrt(1.0 - tbe**2 / 4.0)
    on_lower = np.abs(tde - left) < 1e-9
    on_top = np.abs(tde - 2.0) < 1e-9
    on_diag = np.abs(tde - tbe) < 1e-9
    assert np.all(on_lower | on_top | on_diag)
    assert reg.contains(reg.EuclideanCircle(), tbe, tde, tol=1e-9).all()


def test_kappa_to_zero_boundary_limit():
    td = np.linspace(0.1, 2.0, 40)
    for kappa in (1e-4, -1e-4):
        s = math.sqrt(abs(kappa))
        if kappa > 0:
            tb = 2.0 / s * np.arcsin(np.sin(s * td / 2.0) / math.sqrt(2.0))
        else:
            tb = 2.0 / s * np.arcsinh(np.sinh(s * td / 2.0) / math.sqrt(2.0))
        assert np.abs(tb - td / math.sqrt(2.0)).max() <= 1e-3


@pytest.mark.parametrize("kappa", [-4.0, -0.25, 0.25, 4.0])
def test_curvature_scales_the_boundary(kappa):
    # scaling a surface by c multiplies its distances by c and its curvature by 1/c^2, so the
    # boundary at kappa and step h c (cap included) is the kappa = +-1 boundary at step h, times c
    c, h = 1.0 / math.sqrt(abs(kappa)), 1.0 / 64
    unit = reg.boundary_points(reg.ModelSurfaceRegion(math.copysign(1.0, kappa)), step=h)
    scaled = reg.boundary_points(reg.ModelSurfaceRegion(kappa), step=h * c)
    assert scaled.shape == unit.shape
    assert np.abs(scaled - c * unit).max() <= 1e-12


def test_euclidean_spheres_stabilize():
    grid_b = np.linspace(0.0, 2.2, 111)
    grid_d = np.linspace(0.0, 2.2, 113)
    tb, td = np.meshgrid(grid_b, grid_d)
    base = reg.contains(reg.EuclideanSphereM(2), tb, td)
    for m in (3, 5, 9):
        assert np.array_equal(reg.contains(reg.EuclideanSphereM(m), tb, td), base)
    # union of scaled copies of the m=2 region over lam in [0, 1]
    lams = np.linspace(1e-3, 1.0, 400)
    union = np.zeros_like(base)
    for lam in lams:
        union |= reg.contains(reg.EuclideanSphereM(2), tb / lam, td / lam, tol=1e-12)
    assert not np.any(union & ~base)
    inner = base & (td <= np.minimum(math.sqrt(2) * tb, 2.0) - 0.01) & (td >= tb + 0.01)
    assert not np.any(inner & ~union)


def test_ptolemaic_envelope():
    r = reg.PtolemaicEnvelope(diameter_cap=2.0)
    assert reg.contains(r, 1.5, 2.0)
    assert not reg.contains(r, 1.5, 2.2)
    assert not reg.contains(r, 1.0, 1.5)


def test_parse_region():
    assert isinstance(reg.parse_region("s1"), reg.CircleOddK)
    assert isinstance(reg.parse_region("s1:k=2"), reg.CircleEvenK)
    assert reg.parse_region("s1:k=3:lambda=2.0") == reg.CircleOddK(3, 2.0)
    assert reg.parse_region("s2-geodesic") == reg.ModelSurfaceRegion(1.0)
    assert reg.parse_region("mk:kappa=-1") == reg.ModelSurfaceRegion(-1.0)
    assert isinstance(reg.parse_region("s1-e"), reg.EuclideanCircle)
    assert reg.parse_region("sphere-e:m=3") == reg.EuclideanSphereM(3)
    assert reg.parse_region("ptolemaic:cap=2").diameter_cap == 2.0
    with pytest.raises(InvalidDescriptor):
        reg.parse_region("mystery")
