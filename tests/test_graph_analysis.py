import math

import numpy as np
import pytest

from persets import engine, graph_analysis as ga, graphs, metric, spaces
from persets.errors import NotPrincipal41

from conftest import circle_matrix, cloud_matrix_r3
from reference import (SizeMismatch, non_isometric_cycle_figure, principal_diagram, random_tree, reconstruct,
                       split_decompose, tight_span_persistence)

PI = math.pi


def test_split_square():
    s2 = math.sqrt(2.0)
    d = np.array([[0, 1, s2, 1], [1, 0, 1, s2], [s2, 1, 0, 1], [1, s2, 1, 0]], float)
    dec = split_decompose(metric.validate(d))
    assert dec.b == pytest.approx(s2 - 1.0)
    assert dec.c == pytest.approx(s2 - 1.0)
    assert np.allclose(dec.pendant, 1.0 - s2 / 2.0)
    np.testing.assert_allclose(reconstruct(dec), d, atol=1e-12)
    dgm = tight_span_persistence(dec)
    assert dgm.points[0] == pytest.approx((1.0, s2))


def test_split_collinear_points():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    d = np.abs(np.subtract.outer(x, x))
    dec = split_decompose(metric.validate(d))
    assert min(dec.b, dec.c) == pytest.approx(0.0, abs=1e-12)
    assert tight_span_persistence(dec).is_empty
    np.testing.assert_allclose(reconstruct(dec), d, atol=1e-12)


def test_split_zero_pairing_tie_is_lexicographic():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    d = np.abs(np.subtract.outer(x, x))
    dec = split_decompose(metric.validate(d))
    # sums: {01}{23}=2, {02}{13}=4, {03}{12}=4: tie broken to {02}{13}
    assert dec.zero_split == ((0, 2), (1, 3))


def test_split_wedge_two_and_two():
    # two points per circle: the box degenerates (b = 0), no persistence
    g = graphs.wedge_of_circles([4.0, 6.0])
    pts = [(0, 0.7), (0, 2.9), (1, 1.1), (1, 4.9)]
    dm = spaces.distance_matrix(g, pts)
    dec = split_decompose(dm)
    assert min(dec.b, dec.c) == pytest.approx(0.0, abs=1e-12)
    assert tight_span_persistence(dec).is_empty
    assert principal_diagram(dm, 1).is_empty


def test_split_needs_four_points():
    with pytest.raises(SizeMismatch):
        split_decompose(metric.validate([[0, 1], [1, 0]]))


def test_reconstruction_identity_random(rng):
    for i in range(2000):
        dm = cloud_matrix_r3(rng, 4) if i % 2 else circle_matrix(rng, 4)
        dec = split_decompose(dm)
        assert dec.b >= -1e-12 and dec.c >= -1e-12
        assert min(dec.pendant) >= -1e-9
        np.testing.assert_allclose(reconstruct(dec), dm.entries, atol=1e-9)


def test_tight_span_agrees_with_principal(rng):
    # the acceptance suite runs the full 1e4 sweep
    for i in range(2000):
        dm = cloud_matrix_r3(rng, 4) if i % 2 else circle_matrix(rng, 4)
        via_split = tight_span_persistence(split_decompose(dm))
        via_extremes = principal_diagram(dm, 1)
        assert via_split == via_extremes


def test_tight_span_persistence_bounded_by_box_sides(rng):
    for _ in range(500):
        dm = circle_matrix(rng, 4)
        dec = split_decompose(dm)
        dgm = tight_span_persistence(dec)
        if not dgm.is_empty:
            (tb, td), = dgm.points
            assert td - tb <= min(dec.b, dec.c) + 1e-12


def test_detect_corners_glued_cycles():
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    s = engine.sample_persistence_set(g, 4, 1, 100_000, seed=5)
    rep = ga.detect_corners(s)
    assert rep.estimated_betti == 2
    lams = sorted(rep.lambdas)
    assert lams[0] == pytest.approx(1.75, rel=0.02)
    assert lams[1] == pytest.approx(2.25, rel=0.02)
    assert all(c.support >= 10 for c in rep.corners)
    assert not any(c.caveat for c in rep.corners)


def test_detect_corners_wedge():
    g = graphs.wedge_of_circles([3.2, 4.0])
    s = engine.sample_persistence_set(g, 4, 1, 100_000, seed=6)
    rep = ga.detect_corners(s)
    assert rep.estimated_betti == 2
    lams = sorted(rep.lambdas)
    assert lams[0] == pytest.approx(1.6, rel=0.02)
    assert lams[1] == pytest.approx(2.0, rel=0.02)


def test_detect_corners_tree_is_empty(rng):
    g = random_tree(rng, 24)
    s = engine.sample_persistence_set(g, 4, 1, 40_000, seed=8)
    assert len(s.points) == 0
    rep = ga.detect_corners(s)
    assert rep.estimated_betti == 0


def test_detect_corners_flares_graph():
    # flares are trees attached at vertices, so the only true corner is
    # (pi/2, pi).  The flares also displace part of the region upward off
    # the corner line (that is the point of the example: the set sees the
    # decorations); the scan cannot always tell that cloud from a second
    # cycle, so it reports the reliable first corner and raises the
    # truncation flag on the off-line mass.
    g = graphs.circle_with_flares_figure()
    s = engine.sample_persistence_set(g, 4, 1, 100_000, seed=9)
    rep = ga.detect_corners(s)
    assert rep.corners[0].lam == pytest.approx(PI, rel=0.02)
    assert rep.truncated


def test_detect_corners_requires_principal_41(circle_sample_n6=None):
    s = engine.sample_persistence_set(engine_space(), 6, 2, 1000, seed=1)
    with pytest.raises(NotPrincipal41):
        ga.detect_corners(s)


def engine_space():
    from persets import spaces

    return spaces.CircleGeodesic()


def test_near_corner_configurations_look_like_squares():
    # configurations within the apex band of the corner have all sides
    # close to lam/2 and both diagonals close to lam
    g = graphs.wedge_of_circles([2 * PI])  # single circle, lam = pi
    s = engine.sample_persistence_set(g, 4, 1, 400_000, seed=11)
    band = 0.1
    tb, td = s.points[:, 0], s.points[:, 1]
    apex = np.abs(td - 2.0 * tb) <= band * td
    assert apex.sum() > 50
    lam = PI
    for tup in engine.kept_tuples(g, s)[apex][:200]:
        d = spaces.distance_matrix(g, tup).entries
        partner = d.argmax(axis=1)
        diagonals = d[np.arange(4), partner]
        side_mask = ~np.eye(4, dtype=bool)
        side_mask[np.arange(4), partner] = False
        sides = d[side_mask]
        assert np.all(np.abs(diagonals - lam) <= 2 * band * lam)
        assert np.all(np.abs(sides - lam / 2) <= 2 * band * lam)


def test_no_straddling_corner_configurations_on_glued_cycles():
    # square-like configurations in an admissible gluing stay inside one side
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    s = engine.sample_persistence_set(g, 4, 1, 200_000, seed=12)
    rep = ga.detect_corners(s)
    assert rep.estimated_betti == 2
    tb, td = s.points[:, 0], s.points[:, 1]
    rho = tb + td / 2.0
    near_line = np.abs(td - 2.0 * tb) <= 0.1 * td
    kept = engine.kept_tuples(g, s)
    # edge 0 = shared path, edge 1 = arc of cycle 1, edge 2 = arc of cycle 2
    for corner in rep.corners:
        strip = (rho <= corner.lam * 1.08) & near_line
        assert strip.any()
        for tup in kept[strip]:
            edges = set(int(e) for e, _ in tup)
            assert not ({1, 2} <= edges), "corner configuration straddles the gluing"


def test_non_isometric_cycle_has_no_corner_at_its_length():
    # approximate reconstruction of the picture: the 8-cycle walk is
    # shortcut by the chord [1,5], so it is not isometric to a circle and
    # contributes no (2, 4) corner; the genuine cycles (lengths 4 and 6,
    # glued over the unit chord) are still found first
    g = non_isometric_cycle_figure()
    s = engine.sample_persistence_set(g, 4, 1, 100_000, seed=5)
    pts = s.points
    near_2_4 = (np.abs(pts[:, 0] - 2.0) <= 0.05) & (np.abs(pts[:, 1] - 4.0) <= 0.05)
    assert int(near_2_4.sum()) == 0
    rep = ga.detect_corners(s)
    lams = sorted(rep.lambdas)
    assert lams[0] == pytest.approx(2.0, rel=0.02)
    assert any(abs(l / 3.0 - 1) <= 0.02 for l in lams)
    assert not any(abs(l / 4.0 - 1) <= 0.05 for l in lams)


def test_corner_lambdas_are_separated():
    g = graphs.tree_of_cycles([6.0, 8.0, 10.0], 0.5)
    s = engine.sample_persistence_set(g, 4, 1, 100_000, seed=5)
    rep = ga.detect_corners(s)
    lams = sorted(rep.lambdas)
    assert all(b / a > 1.08 for a, b in zip(lams, lams[1:]))
