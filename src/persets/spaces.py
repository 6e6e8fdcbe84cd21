"""Closed-form model spaces: exact distances and uniform samplers.

Every space the engine samples (these models, metric graphs, finite
datasets) has the same four members:

* ``sample_points(rng, count)`` -- i.i.d. draws from the uniform
  (normalized Riemannian / Lebesgue) measure: a generator of (rows, D)
  blocks whose concatenation is the (count, D) draw, whatever the block
  sizes.  A sampler that makes one pass (circle, torus, spheres, mk with
  kappa > 0, finite datasets) draws each block of ``row_counts`` when it
  is asked for: successive numpy Generator calls continue one stream, so
  the blocks change no bit.  One that makes two passes over the draw
  (disk, mk with kappa < 0) draws it whole and yields its ``rows_of``
  views; a metric graph holds only its first pass whole, 2 B a point
  (``graphs.sample_graph``);
* ``prepare(points, scratch)`` -- called with an (n, B, D) array of
  points (position first) and the campaign's ``Scratch``; returns n
  items, item i being the points of position i in the form
  ``pair_distance`` takes, which may be views of ``scratch`` arrays that
  the next block overwrites.  These models return the array as it is
  and ignore the scratch (``RawPoints``), a metric graph its points'
  edge ends (``graphs.GraphEnds``), a finite dataset its row indices'
  flat offsets into the distance matrix (``engine.FiniteSpace``);
* ``pair_distance(p, q)`` -- exact distances of two items that
  ``prepare`` returned, and only of those;
* ``descriptor`` -- the sidecar string (here the inverse of parse_space).

Each of the three also has ``validate_point(p)``: InvalidPoint unless p
is (..., D) rows of points of the space, checked first for width by
``points_of``.  Raw points reach a distance only through ``distance``
and ``distance_matrix`` below: validate, ``prepare``, ``pair_distance``.
So the distance matrix of an index tuple of a dataset ``dm`` is
``distance_matrix(engine.FiniteSpace(dm), rows)`` for (count, 1) rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDescriptor, InvalidPoint
from .metric import DistanceMatrix, squareform, validate

TWO_PI = 2.0 * math.pi
_POINT_TOL = 1e-12
_ROWS = 1 << 13  # drawn rows per block of a sampler's stream and per step of its arithmetic
# m and k of any descriptor: flares:k=32 has 64 vertices
MAX_WHOLE = 32
# sqrt(-kappa) R of a hyperbolic disk: cosh(355)^2 = 1.5e308 still fits a double, so at
# kappa = -1 the products of two hyperboloid coordinates stay finite (cosh overflows past 710.5)
MAX_HYPERBOLIC_RADIUS = 355.0


def _dot(p, q):
    """Sum of p * q over the last axis, with the bits ``np.sum(p * q, axis=-1)``
    gives on a contiguous last axis, whatever the layout of p and q.

    Below 8 coordinates numpy adds a row in sequence; one column at a
    time gives the same bits, far faster on many short rows (the + 0.0 is
    numpy's zero start: a sum of negative zeros is +0).
    """
    if p.shape[-1] >= 8:
        return np.sum(np.ascontiguousarray(p * q), axis=-1)
    total = p[..., 0] * q[..., 0]
    for d in range(1, p.shape[-1]):
        total += p[..., d] * q[..., d]
    return total + 0.0


def points_of(p, width, what):
    """p as a float array of (..., width) rows; InvalidPoint naming ``what`` otherwise."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != width:
        raise InvalidPoint(f"{what}, got shape {p.shape}")
    return p


def check_indices(index, count, name):
    """InvalidPoint unless every value of ``index`` is a whole number in [0, count)."""
    bad = ~((index >= 0) & (index < count) & (index == np.floor(index)))  # NaN fails
    if bad.any():
        raise InvalidPoint(f"{name} index {index[bad][0]:g} is not one of the {count} {name}s")


def row_blocks(*arrays):
    """Aligned views of ``_ROWS`` rows of equally long arrays, block by block."""
    return zip(*([a[r:r + _ROWS] for r in range(0, len(a), _ROWS)] for a in arrays))


def rows_of(points):
    """The ``sample_points`` stream of a whole draw: its ``_ROWS``-row views."""
    return (block for (block,) in row_blocks(points))


def row_counts(count):
    """The row counts of the ``_ROWS``-row blocks of ``count`` rows: the blocks of a one-pass sampler."""
    return (min(_ROWS, count - r) for r in range(0, count, _ROWS))


class Scratch(dict):
    """The buffers of one campaign in one process, reused by each block it runs."""

    def array(self, key, shape, dtype=float):
        """A C-contiguous ``shape`` view of the buffer under ``key``, made anew if too small or of another dtype."""
        size, buffer = math.prod(shape), self.get(key)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self[key] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _unit_vectors(rng, count, dim, radius=1.0):
    """``count`` uniform points of the sphere of ``radius`` in R^dim, scaled and normalized in place."""
    v = rng.standard_normal(size=(count, dim))
    for (block,) in row_blocks(v):
        norm = np.sqrt(_dot(block, block))[:, None]
        if radius != 1.0:
            block *= radius
        block /= norm
    return v


class RawPoints:
    """A space whose ``pair_distance`` takes the drawn points as they are."""

    def prepare(self, points, scratch):
        return points


def _circle_arc(a, b):
    """Geodesic distance of two angles on the unit circle (diameter pi)."""
    d = np.abs(a - b)
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class CircleGeodesic(RawPoints):
    """Geodesic circle of diameter ``diameter`` (unit circle: diameter pi)."""

    diameter: float = math.pi

    @property
    def descriptor(self):
        return "s1" if self.diameter == math.pi else f"s1:lambda={self.diameter:g}"

    def sample_points(self, rng, count):
        return (rng.uniform(0.0, TWO_PI, size=(rows, 1)) for rows in row_counts(count))

    def pair_distance(self, p, q):
        return _circle_arc(p[..., 0], q[..., 0]) * (self.diameter / math.pi)

    def validate_point(self, p):
        if not np.isfinite(points_of(p, 1, "circle points are single angles")).all():
            raise InvalidPoint("circle points are finite angles")


@dataclass(frozen=True)
class SphereGeodesic(RawPoints):
    """Unit m-sphere with geodesic (arc length) distance, range [0, pi]."""

    m: int = 2

    @property
    def descriptor(self):
        return f"sphere:m={self.m}"

    def sample_points(self, rng, count):
        return (_unit_vectors(rng, rows, self.m + 1) for rows in row_counts(count))

    def pair_distance(self, p, q):
        # unit-vector inner products overshoot [-1, 1] by ~1e-16: clamp
        dot = np.clip(_dot(p, q), -1.0, 1.0)
        return np.arccos(dot)

    def validate_point(self, p):
        p = points_of(p, self.m + 1, f"sphere points are vectors in R^{self.m + 1}")
        if not np.abs(np.linalg.norm(p, axis=-1) - 1.0).max(initial=0.0) <= _POINT_TOL:  # NaN fails too
            raise InvalidPoint("sphere point is not a unit vector")


@dataclass(frozen=True)
class SphereEuclidean(RawPoints):
    """Unit m-sphere with chordal (Euclidean) distance, range [0, 2]."""

    m: int = 2

    @property
    def descriptor(self):
        return "s1-e" if self.m == 1 else f"sphere-e:m={self.m}"

    def sample_points(self, rng, count):
        return (_unit_vectors(rng, rows, self.m + 1) for rows in row_counts(count))

    def pair_distance(self, p, q):
        diff = p - q
        return np.sqrt(_dot(diff, diff))

    def validate_point(self, p):
        SphereGeodesic(self.m).validate_point(p)


@dataclass(frozen=True)
class TorusL2(RawPoints):
    """Product of two unit geodesic circles with the l2 product metric."""

    descriptor = "torus"

    def sample_points(self, rng, count):
        return (rng.uniform(0.0, TWO_PI, size=(rows, 2)) for rows in row_counts(count))

    def pair_distance(self, p, q):
        d1 = _circle_arc(p[..., 0], q[..., 0])
        d2 = _circle_arc(p[..., 1], q[..., 1])
        return np.sqrt(d1 * d1 + d2 * d2)

    def validate_point(self, p):
        if not np.isfinite(points_of(p, 2, "torus points are angle pairs")).all():
            raise InvalidPoint("torus points are finite angles")


@dataclass(frozen=True)
class ModelSurface(RawPoints):
    """Complete simply connected surface of constant curvature kappa != 0.

    kappa > 0: the sphere of radius 1/sqrt(kappa) in R^3, sampled uniformly.
    kappa < 0: the hyperboloid model (x1 > 0); the surface is unbounded, so
    sampling is uniform w.r.t. hyperbolic area on the geodesic disk of
    radius ``disk_radius`` around the apex (default pi/sqrt(-kappa)), a
    finite number > 0; kappa > 0 takes none.
    """

    kappa: float
    disk_radius: float | None = None

    def __post_init__(self):
        if self.kappa == 0:
            raise InvalidDescriptor("kappa must be nonzero; use EuclideanDisk for flat space")
        if self.disk_radius is None:
            if self.kappa < 0:
                object.__setattr__(self, "disk_radius", math.pi / math.sqrt(-self.kappa))
        elif self.kappa > 0:
            raise InvalidDescriptor("R is the disk radius of kappa < 0 only")
        elif not 0.0 < self.disk_radius < math.inf:
            raise InvalidDescriptor(f"disk radius must be finite and > 0, not {self.disk_radius!r}")
        elif not math.sqrt(-self.kappa) * self.disk_radius <= MAX_HYPERBOLIC_RADIUS:
            raise InvalidDescriptor(f"disk radius must be <= {MAX_HYPERBOLIC_RADIUS:g} / sqrt(-kappa) = "
                                    f"{MAX_HYPERBOLIC_RADIUS / math.sqrt(-self.kappa):g}, not {self.disk_radius:g}")

    @property
    def descriptor(self):
        if self.kappa > 0:
            return f"mk:kappa={self.kappa:g}"
        return f"mk:kappa={self.kappa:g}:R={self.disk_radius:g}"

    def sample_points(self, rng, count):
        if self.kappa > 0:
            r = 1.0 / math.sqrt(self.kappa)
            return (_unit_vectors(rng, rows, 3, r) for rows in row_counts(count))
        s = math.sqrt(-self.kappa)
        a = 1.0 / s
        # geodesic polar area element ~ sinh(s r): invert its CDF
        smax = math.cosh(s * self.disk_radius) - 1.0
        pts = np.empty((count, 3))
        draws = rng.random(count)  # the bits of rng.uniform(0.0, 1.0, size=count)
        for block, u in row_blocks(pts, draws):
            sr = np.arccosh(1.0 + u * smax)
            block[:, 0] = a * np.cosh(sr)
            block[:, 1] = a * np.sinh(sr)
        rng.random(out=draws)  # TWO_PI * x: the bits of rng.uniform(0.0, TWO_PI, size=count)
        for block, x in row_blocks(pts, draws):
            theta = TWO_PI * x
            block[:, 2] = block[:, 1] * np.sin(theta)
            block[:, 1] *= np.cos(theta)
        return rows_of(pts)

    def pair_distance(self, p, q):
        if self.kappa > 0:
            dot = self.kappa * _dot(p, q)
            return np.arccos(np.clip(dot, -1.0, 1.0)) / math.sqrt(self.kappa)
        mink = -p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]
        dot = self.kappa * mink
        return np.arccosh(np.maximum(dot, 1.0)) / math.sqrt(-self.kappa)

    def validate_point(self, p):
        p = points_of(p, 3, "model surface points live in R^3")
        if self.kappa > 0:
            form = np.sum(p * p, axis=-1)
        else:
            form = -p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2
            if not np.min(p[..., 0], initial=np.inf) > 0:
                raise InvalidPoint("hyperboloid points need x1 > 0")
        # the quadratic form cancels terms of size |p|^2, so the achievable
        # accuracy scales with them (hyperboloid points grow with the disk)
        scale = max(1.0, abs(1.0 / self.kappa), float(np.max(np.sum(p * p, axis=-1), initial=0.0)))
        if not np.abs(form - 1.0 / self.kappa).max(initial=0.0) <= _POINT_TOL * scale:
            raise InvalidPoint("point does not satisfy the quadric equation")


@dataclass(frozen=True)
class EuclideanDisk(RawPoints):
    """Closed ball of radius R in R^m with the Euclidean metric."""

    m: int = 2
    radius: float = 1.0

    @property
    def descriptor(self):
        return f"disk:m={self.m}:R={self.radius:g}"

    def sample_points(self, rng, count):
        v = _unit_vectors(rng, count, self.m)
        for block, u in row_blocks(v, rng.uniform(0.0, 1.0, size=(count, 1))):
            block *= self.radius * u ** (1.0 / self.m)
        return rows_of(v)

    def pair_distance(self, p, q):
        diff = p - q
        return np.sqrt(_dot(diff, diff))

    def validate_point(self, p):
        p = points_of(p, self.m, f"disk points are vectors in R^{self.m}")
        if not np.linalg.norm(p, axis=-1).max(initial=0.0) <= self.radius * (1 + 1e-12):
            raise InvalidPoint("point is outside the disk")


def _pair_distance(space, p, q):
    """``pair_distance`` of valid raw points p and q, broadcast, through ``prepare``."""
    p, q = np.broadcast_arrays(p, q)
    d = space.pair_distance(*space.prepare(np.stack([p, q]).reshape(2, -1, p.shape[-1]), Scratch()))
    return d.reshape(p.shape[:-1])


def distance(space, p, q):
    """Exact distances of the points p and q of a space, validated,
    broadcasting over leading axes (InvalidPoint if they do not); a float
    for two single points."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    space.validate_point(p)
    space.validate_point(q)
    try:
        np.broadcast_shapes(p.shape, q.shape)
    except ValueError:
        raise InvalidPoint(f"point arrays of shapes {p.shape} and {q.shape} do not broadcast") from None
    d = _pair_distance(space, p, q)
    return float(d) if d.ndim == 0 else d


def distance_matrix(space, points) -> DistanceMatrix:
    """Validated distance matrix of a (count, D) point list of a space: its
    i < j pairs, mirrored."""
    pts = np.asarray(points, dtype=float)
    space.validate_point(pts)
    if pts.ndim != 2:
        raise InvalidPoint(f"a point list is a (count, D) array, got shape {pts.shape}")
    i, j = np.triu_indices(len(pts), 1)
    return validate(squareform(_pair_distance(space, pts[i], pts[j]), len(pts)))


# ---------------------------------------------------------------------------
# Compact descriptor strings, e.g. "s1", "s1:lambda=3.5", "sphere:m=2",
# "sphere-e:m=2", "torus", "mk:kappa=-1:R=3.14159", "disk:m=2:R=1".
# ---------------------------------------------------------------------------

def parse_number(value: str, text: str) -> float:
    """A finite number of the descriptor ``text``; InvalidDescriptor if malformed."""
    try:
        number = float(value)
    except ValueError:
        raise InvalidDescriptor(f"bad number {value!r} in {text!r}") from None
    if not math.isfinite(number):
        raise InvalidDescriptor(f"{value!r} is not a finite number in {text!r}")
    return number


def parse_options(items, text: str) -> dict:
    """{key: number} of the "key=value" items of the descriptor ``text``; m and k
    are ints from 1 to MAX_WHOLE, and lambda, r and cap (diameters, radii, caps) are > 0."""
    kv = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise InvalidDescriptor(f"malformed option {item!r} in {text!r}")
        key, number = key.strip().lower(), parse_number(value, text)
        if key in ("m", "k"):  # dimensions, degrees and flare counts
            if not (1 <= number <= MAX_WHOLE and number.is_integer()):
                raise InvalidDescriptor(f"{key} must be a whole number from 1 to {MAX_WHOLE} in {text!r}")
            number = int(number)
        elif key in ("lambda", "r", "cap") and not number > 0:
            raise InvalidDescriptor(f"{key} must be > 0 in {text!r}")
        kv[key] = number
    return kv


def no_unused_options(kv: dict, text: str) -> None:
    """InvalidDescriptor naming the first option of ``text`` its parser did not pop from ``kv``."""
    if kv:
        raise InvalidDescriptor(f"unknown option {next(iter(kv))!r} in {text!r}")


def parse_space(text: str):
    parts = text.strip().split(":")
    name = parts[0].lower()
    kv = parse_options(parts[1:], text)
    try:
        if name == "s1":
            model = CircleGeodesic(diameter=kv.pop("lambda", math.pi))
        elif name == "s1-e":
            model = SphereEuclidean(m=1)
        elif name == "sphere":
            model = SphereGeodesic(m=kv.pop("m", 2))
        elif name == "sphere-e":
            model = SphereEuclidean(m=kv.pop("m", 2))
        elif name == "torus":
            model = TorusL2()
        elif name == "mk":
            try:
                model = ModelSurface(kappa=kv.pop("kappa"), disk_radius=kv.pop("r", None))
            except InvalidDescriptor as exc:
                raise InvalidDescriptor(f"{exc}, in {text!r}") from None
        elif name == "disk":
            model = EuclideanDisk(m=kv.pop("m", 2), radius=kv.pop("r", 1.0))
        else:
            raise InvalidDescriptor(f"unknown space {name!r} in {text!r}")
    except KeyError as exc:
        raise InvalidDescriptor(f"missing option {exc} in {text!r}") from None
    no_unused_options(kv, text)
    return model


def is_angular(model) -> bool:
    """True when distances are angles (plots get pi/4 axis ticks)."""
    return isinstance(model, (CircleGeodesic, SphereGeodesic, TorusL2)) or (
        isinstance(model, ModelSurface) and model.kappa > 0
    )
