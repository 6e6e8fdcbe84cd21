import math
import re

import numpy as np
import pytest

from persets import engine, graphs, metric, spaces
from persets.errors import InvalidDescriptor, InvalidPoint

from conftest import draw

ALL_MODELS = [
    spaces.CircleGeodesic(),
    spaces.CircleGeodesic(diameter=3.5),
    spaces.SphereGeodesic(m=2),
    spaces.SphereEuclidean(m=1),
    spaces.SphereEuclidean(m=2),
    spaces.TorusL2(),
    spaces.ModelSurface(kappa=1.0),
    spaces.ModelSurface(kappa=-1.0, disk_radius=math.pi),
    spaces.EuclideanDisk(m=2, radius=1.0),
]


def test_circle_wraparound():
    c = spaces.CircleGeodesic(diameter=math.pi)
    assert spaces.distance(c, [0.0], [1.5 * math.pi]) == pytest.approx(math.pi / 2, abs=1e-15)


def test_circle_scaling():
    c = spaces.CircleGeodesic(diameter=3.5)
    assert spaces.distance(c, [0.0], [math.pi]) == pytest.approx(3.5, abs=1e-12)


def test_sphere_antipodes_and_quarter():
    s = spaces.SphereGeodesic(m=2)
    e1, e2 = [1, 0, 0], [0, 1, 0]
    assert spaces.distance(s, e1, [-1, 0, 0]) == pytest.approx(math.pi, abs=1e-12)
    assert spaces.distance(s, e1, e2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_model_surface_witness_family():
    # the antipodal pair of the t = 1 witness family: <x1, x3> = 1 - 2 t^2
    m = spaces.ModelSurface(kappa=1.0)
    x1 = [0.0, 1.0, 0.0]
    x3 = [0.0, -1.0, 0.0]
    assert spaces.distance(m, x1, x3) == pytest.approx(math.acos(-1.0), abs=1e-12)


def test_point_validation():
    s = spaces.SphereGeodesic(m=2)
    with pytest.raises(InvalidPoint):
        spaces.distance(s, [1, 0, 0], [0.5, 0, 0])
    h = spaces.ModelSurface(kappa=-1.0)
    with pytest.raises(InvalidPoint):
        spaces.distance(h, [1, 0, 0], [-1, 0, 0])  # lower sheet


@pytest.mark.parametrize("model, point", [
    (spaces.SphereGeodesic(m=2), [math.nan, 0.0, 0.0]),
    (spaces.SphereEuclidean(m=2), [math.nan, 0.0, 0.0]),
    (spaces.EuclideanDisk(m=2, radius=1.0), [math.nan, 0.0]),
    (spaces.ModelSurface(kappa=1.0), [math.nan, 0.0, 0.0]),
    (spaces.ModelSurface(kappa=-1.0), [math.nan, 0.0, 0.0]),  # the x1 > 0 check
    (spaces.ModelSurface(kappa=-1.0), [1.0, math.nan, 0.0]),  # the quadric check
], ids=["sphere", "sphere-e", "disk", "mk+", "mk-x1", "mk-quadric"])
def test_a_nan_point_is_not_on_the_model(model, point):
    # every comparison with NaN is false, so each check must fail on it
    other = draw(model, np.random.default_rng(0), 1)[0]
    with pytest.raises(InvalidPoint):
        spaces.distance(model, point, other)
    with pytest.raises(InvalidPoint):
        spaces.distance_matrix(model, [other, point])


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.descriptor)
def test_a_scalar_is_not_a_point(model):
    # a 0-d array has no last axis to hold coordinates
    with pytest.raises(InvalidPoint, match=re.escape("got shape ()")):
        spaces.distance(model, 0.5, 0.25)
    with pytest.raises(InvalidPoint, match=re.escape("got shape ()")):
        model.validate_point(0.5)


def five_point_space():
    v = np.random.default_rng(3).standard_normal((5, 3))
    return engine.FiniteSpace(metric.validate(np.linalg.norm(v[:, None] - v[None], axis=-1)))


@pytest.mark.parametrize("space", ALL_MODELS + [graphs.parse_family("wedge:3,4"), five_point_space()],
                         ids=lambda space: space.descriptor)
def test_zero_points_give_an_empty_matrix(space):
    width = draw(space, np.random.default_rng(0), 1).shape[1]
    assert spaces.distance_matrix(space, np.empty((0, width))).entries.shape == (0, 0)


@pytest.mark.parametrize("space", ALL_MODELS + [graphs.parse_family("wedge:3,4"), five_point_space()],
                         ids=lambda space: space.descriptor)
def test_distance_matrix_takes_a_point_list(space):
    # one point alone, or a stack of point lists, is not a point list
    points = draw(space, np.random.default_rng(0), 2)
    for bad in (points[0], points[None]):
        with pytest.raises(InvalidPoint, match=re.escape(f"(count, D) array, got shape {bad.shape}")):
            spaces.distance_matrix(space, bad)


FAMILIES = ["wedge:3.5,4.5", "flares:c=6.2832,k=4,L=1", "flares-fig", "glued:3.5,4.5:alpha=0.5",
            "treecycles:6,8,10:edge=0.5"]


@pytest.mark.parametrize("descriptor", [model.descriptor for model in ALL_MODELS] + FAMILIES + ["finite"])
def test_sample_stream_does_not_depend_on_the_row_block(descriptor, monkeypatch):
    # 2,500 rows: blocks of 1 and 1000 rows end inside the draw, the default block holds all of it;
    # the stream's blocks, its points and the generator state after it are the same for each
    space = five_point_space() if descriptor == "finite" else engine.space_of(descriptor)
    seen = set()
    for rows in (1, 1000, spaces._ROWS):
        monkeypatch.setattr(spaces, "_ROWS", rows)
        rng = np.random.default_rng(9)
        blocks = list(space.sample_points(rng, 2500))
        assert max(len(b) for b in blocks) == min(rows, 2500)
        points = np.concatenate(blocks)
        assert points.shape == (2500, blocks[0].shape[1])
        seen.add((points.dtype.str, points.tobytes(), rng.random()))
    assert len(seen) == 1


@pytest.mark.parametrize("row", [5, -1, 1.5, math.nan], ids=["past-end", "negative", "fractional", "nan"])
def test_finite_points_off_the_rows_raise_invalid_point(row):
    space = five_point_space()
    message = f"row index {row:g} is not one of the 5 rows"
    with pytest.raises(InvalidPoint, match=message):
        spaces.distance(space, [row], [0])
    with pytest.raises(InvalidPoint, match=message):
        spaces.distance_matrix(space, [[0], [4], [row]])


@pytest.mark.parametrize("rows", [[0, 1], [[0, 1], [2, 3]], 0], ids=["two-wide", "two-wide-rows", "scalar"])
def test_finite_points_are_one_wide_rows(rows):
    space = five_point_space()
    with pytest.raises(InvalidPoint, match="finite points are row indices"):
        spaces.distance(space, rows, rows)
    with pytest.raises(InvalidPoint, match="finite points are row indices"):
        spaces.distance_matrix(space, rows)


@pytest.mark.parametrize("space, p, q", [
    (spaces.TorusL2(), [[0, 1], [1, 2], [2, 3]], [[0, 1], [1, 2]]),
    (graphs.parse_family("wedge:3,4"), [[0, 0.5], [1, 0.5]], [[0, 0.1], [1, 0.2], [0, 0.3]]),
    (five_point_space(), [[0], [1], [2]], [[3], [4]]),
], ids=["model", "graph", "finite"])
def test_point_arrays_that_do_not_broadcast_raise_invalid_point(space, p, q):
    shapes = f"shapes {np.shape(p)} and {np.shape(q)} do not broadcast"
    with pytest.raises(InvalidPoint, match=re.escape(shapes)):
        spaces.distance(space, p, q)


def test_finite_distance_is_the_matrix_entry():
    space = five_point_space()
    assert spaces.distance(space, [1], [3]) == space.matrix[1, 3]


def test_model_surface_disk_radius():
    assert spaces.ModelSurface(kappa=-4.0).disk_radius == math.pi / 2
    assert spaces.ModelSurface(kappa=1.0).disk_radius is None
    for kappa, radius in [(-1.0, -3.0), (-1.0, 0.0), (-1.0, math.inf), (-1.0, math.nan),
                          (1.0, 5.0), (1.0, math.pi)]:
        with pytest.raises(InvalidDescriptor):
            spaces.ModelSurface(kappa=kappa, disk_radius=radius)


def test_sample_count_zero():
    rng = np.random.default_rng(0)
    assert list(spaces.CircleGeodesic().sample_points(rng, 0)) == []


def test_circle_mean_distance():
    # E d = lam/2 for uniform pairs on the circle of diameter lam = pi
    rng = np.random.default_rng(11)
    pts = draw(spaces.CircleGeodesic(), rng, 1_000_000)
    c = spaces.CircleGeodesic()
    d = c.pair_distance(pts[0::2], pts[1::2])
    assert d.mean() == pytest.approx(math.pi / 2, abs=0.01)


def test_sphere_mean_distance():
    # antipodal symmetry of the uniform measure forces mean pi/2
    rng = np.random.default_rng(12)
    s = spaces.SphereGeodesic(m=1)
    pts = draw(s, rng, 1_000_000)
    d = s.pair_distance(pts[0::2], pts[1::2])
    assert d.mean() == pytest.approx(math.pi / 2, abs=0.01)


def test_distance_matrix_regular_four_gon():
    c = spaces.CircleGeodesic()
    dm = spaces.distance_matrix(c, [[0.0], [math.pi / 2], [math.pi], [1.5 * math.pi]])
    a = dm.entries
    for i in range(4):
        assert a[i, (i + 1) % 4] == pytest.approx(math.pi / 2, abs=1e-15)
        assert a[i, (i + 2) % 4] == pytest.approx(math.pi, abs=1e-15)


def test_distance_matrix_single_point():
    dm = spaces.distance_matrix(spaces.CircleGeodesic(), [[1.0]])
    assert dm.n == 1 and dm[0, 0] == 0.0


def test_cross_polytope_matrix_on_sphere():
    k = 2
    s = spaces.SphereGeodesic(m=k)
    pts = []
    for i in range(k + 1):
        e = np.zeros(k + 1)
        e[i] = 1.0
        pts.extend([e, -e])
    dm = spaces.distance_matrix(s, np.asarray(pts))
    a = dm.entries
    for i in range(2 * k + 2):
        for j in range(2 * k + 2):
            if i == j:
                continue
            expected = math.pi if j == i ^ 1 else math.pi / 2
            assert a[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__ + str(getattr(m, 'kappa', '')))
def test_triangle_inequality_random_triples(model):
    rng = np.random.default_rng(7)
    n = 100_000
    a = draw(model, rng, n)
    b = draw(model, rng, n)
    c = draw(model, rng, n)
    dab = model.pair_distance(a, b)
    dbc = model.pair_distance(b, c)
    dac = model.pair_distance(a, c)
    assert (dac <= dab + dbc + 1e-9).all()


def test_equatorial_circle_embeds_isometrically():
    # angles -> (cos, sin, 0): geodesic sphere distance equals circle distance
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * math.pi, size=(20000, 1))
    phi = rng.uniform(0, 2 * math.pi, size=(20000, 1))
    circle = spaces.CircleGeodesic()
    sphere = spaces.SphereGeodesic(m=2)
    p = np.concatenate([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    q = np.concatenate([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
    d_sphere = sphere.pair_distance(p, q)
    d_circle = circle.pair_distance(theta, phi)
    # mathematically equal; arccos(cos x) costs ~1e-8 near the endpoints
    np.testing.assert_allclose(d_sphere, d_circle, atol=1e-7)


def test_chordal_equals_two_sin_half_geodesic():
    rng = np.random.default_rng(4)
    geo = spaces.SphereGeodesic(m=2)
    eu = spaces.SphereEuclidean(m=2)
    p = draw(geo, rng, 50000)
    q = draw(geo, rng, 50000)
    np.testing.assert_allclose(
        eu.pair_distance(p, q), 2.0 * np.sin(geo.pair_distance(p, q) / 2.0), atol=1e-12
    )


def test_hyperbolic_sampler_stays_in_disk():
    R = 2.0
    m = spaces.ModelSurface(kappa=-1.0, disk_radius=R)
    rng = np.random.default_rng(5)
    pts = draw(m, rng, 20000)
    m.validate_point(pts)
    center = np.array([1.0, 0.0, 0.0])
    d = m.pair_distance(pts, center[None, :])
    assert d.max() <= R + 1e-9


def test_sampler_batch_matches_pointwise():
    model = spaces.TorusL2()
    rng = np.random.default_rng(6)
    [(pts, pairs)] = engine.pair_blocks(model, rng, 64, 4, spaces.Scratch())  # one block
    assert pts.shape == (64, 4, 2) and pairs.shape == (6, 64)
    mats = metric.squareform(pairs, 4)
    for t in range(0, 64, 7):
        ref = spaces.distance_matrix(model, pts[t])
        np.testing.assert_array_equal(mats[t], ref.entries)


def test_parse_space_roundtrip():
    for text in ["s1", "s1:lambda=3.5", "sphere:m=2", "sphere-e:m=2", "torus",
                 "mk:kappa=-1:R=3.14159", "mk:kappa=1", "disk:m=2:R=1"]:
        model = spaces.parse_space(text)
        again = spaces.parse_space(model.descriptor)
        assert type(again) is type(model) and again.descriptor == model.descriptor
    with pytest.raises(InvalidDescriptor):
        spaces.parse_space("klein-bottle")
    with pytest.raises(InvalidDescriptor):
        spaces.parse_space("mk")  # kappa required


@pytest.mark.parametrize("text", ["s1:lambda=abc", "sphere:m=", "mk:kappa=-1:R=x", "disk:m=2:R"])
def test_parse_space_bad_option_names_the_descriptor(text):
    with pytest.raises(InvalidDescriptor, match=re.escape(repr(text))):
        spaces.parse_space(text)


@pytest.mark.parametrize("text, message", [
    ("mk:kappa=-1:R=0", "r must be > 0"),  # was read as the default R = pi
    ("mk:kappa=-1:R=-2", "r must be > 0"),
    ("mk:kappa=1:R=5", "R is the disk radius of kappa < 0 only"),  # R was dropped
    ("disk:m=2:R=-1", "r must be > 0"),
    ("s1:lambda=0", "lambda must be > 0"),  # every tuple was trivial
    ("s1:lambda=-3.5", "lambda must be > 0"),
    ("mk:kappa=nan", "'nan' is not a finite number"),
    ("mk:kappa=-inf", "'-inf' is not a finite number"),
    ("disk:m=2:R=inf", "'inf' is not a finite number"),
    ("sphere:m=33", "m must be a whole number from 1 to 32"),
    ("mk:kappa=-4:R=177.6", "disk radius must be <= 355 / sqrt(-kappa) = 177.5, not 177.6"),
])
def test_parse_space_refuses_numbers_out_of_range(text, message):
    with pytest.raises(InvalidDescriptor, match=f"{re.escape(message)}.* in {re.escape(repr(text))}"):
        spaces.parse_space(text)


def test_descriptor_bounds_accept_their_limits():
    assert spaces.parse_space(f"sphere:m={spaces.MAX_WHOLE}").m == spaces.MAX_WHOLE
    # the widest hyperbolic disk still gives finite distances
    model = spaces.parse_space(f"mk:kappa=-1:R={spaces.MAX_HYPERBOLIC_RADIUS:g}")
    p = draw(model, np.random.default_rng(1), 256)
    assert np.isfinite(model.pair_distance(p[:128], p[128:])).all()


@pytest.mark.parametrize("dim", list(range(1, 21)) + [128, 129, 200])
def test_dot_adds_in_numpys_order_for_any_layout(dim):
    rng = np.random.default_rng(dim)
    # magnitudes over ten decades: any change of summation order shows in the bits
    p = rng.standard_normal((33, dim)) * 10.0 ** rng.integers(-5, 5, (33, dim))
    q = rng.standard_normal((33, dim))
    want_dot, want_norm = np.sum(p * q, axis=-1), np.linalg.norm(p, axis=-1)
    pf, qf = np.asfortranarray(p), np.asfortranarray(q)  # contiguous coordinate columns
    for a, b in ((p, q), (pf, qf)):
        assert spaces._dot(a, b).tobytes() == want_dot.tobytes()
        assert np.sqrt(spaces._dot(a, a)).tobytes() == want_norm.tobytes()
    if dim >= 8:  # numpy's own sum adds columns in another order
        assert np.sum(pf * qf, axis=-1).tobytes() != want_dot.tobytes()
    zero = np.zeros((2, dim))  # a sum of negative zeros is +0, as in numpy
    assert spaces._dot(-zero, zero + 1).tobytes() == np.sum(-zero * (zero + 1), axis=-1).tobytes()
