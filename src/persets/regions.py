"""Closed-form persistence-set regions, boundaries and densities.

Every characterization the sampling engine is checked against lives here:

* geodesic circle, odd and even degree (triangle / half-strip regions),
* constant-curvature surfaces via the spherical / hyperbolic Ptolemaic
  boundary sin(sqrt(k)/2 t_d) = sqrt(2) sin(sqrt(k)/2 t_b) and its
  hyperbolic and flat (t_d = sqrt(2) t_b) analogues,
* Euclidean circle and Euclidean spheres (which stabilize from m = 2 on),
* the generic Ptolemaic envelope t_d <= min(sqrt(2) t_b, diameter cap).

A region is any object with ``inside(tb, td, tol)`` (its own inequalities
on float arrays; ``contains`` adds 0 <= t_b <= t_d) and ``boundary(step,
cap)`` (its boundary as a list of (N, 2) polyline pieces, unbounded ones
cut at the death ``cap``, None for the default).

Membership tests take an additive tolerance per inequality; regions are
closed (non-strict) because sampled points never land exactly on the
measure-zero boundary, so the strict/non-strict distinction is untestable
and intentionally ignored.  Trig comparisons stay in sin/sinh form, never
as differences of arccos, to avoid cancellation near the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDescriptor, TooLarge
from .spaces import no_unused_options, parse_options

SQRT2 = math.sqrt(2.0)
# points in one boundary piece or interior grid of a region, counted before
# any is made; s1 vs s2-geodesic at step 2.5e-4 (interior 1e-3) makes 1e7
MAX_GRID_POINTS = 10**8


def _check_count(count, step):
    """TooLarge when a region grid at ``step`` holds ``count`` > MAX_GRID_POINTS points (or NaN)."""
    if not count <= MAX_GRID_POINTS:
        raise TooLarge(f"step {step:g} makes a region grid of {count:.3g} points, "
                       f"more than {MAX_GRID_POINTS:.0e}")


def _count(step, length):
    """Points of a piece of parameter ``length`` at ``step``; an infinite step keeps its two ends."""
    if step == math.inf:
        return 2
    _check_count(length / step + 1.0, step)  # a float: inf for a step too small to divide by
    return max(2, int(math.ceil(length / step)) + 1)


def check_grids(region, step=None, interior_step=None, t_d_cap=None) -> None:
    """TooLarge if the boundary at ``step`` (its pieces together) or the interior grid at
    ``interior_step`` would hold more than MAX_GRID_POINTS points.  Both are counted from the
    two ends of each boundary piece, the boundary at an infinite step, before either is made."""
    with np.errstate(all="ignore"):  # ends past the doubles give an inf or NaN count
        ends = region.boundary(math.inf, t_d_cap)
    if step is not None:
        _check_count(sum(_count(step, np.abs(e[-1] - e[0]).max()) for e in ends), step)
    if interior_step is not None:
        corners = np.concatenate(ends)
        width, height = corners.max(axis=0) - corners.min(axis=0)
        _check_count(_count(interior_step, width) * _count(interior_step, height), interior_step)


def _chain(step, *corners):
    """The polyline through ``corners``, one piece per side at parameter resolution ``step``."""
    pieces = []
    for p, q in zip(corners, corners[1:]):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        t = np.linspace(0.0, 1.0, _count(step, np.abs(q - p).max()))[:, None]
        pieces.append(p[None, :] * (1 - t) + q[None, :] * t)
    return pieces


@dataclass(frozen=True)
class CircleOddK:
    k: int = 1
    lam: float = math.pi  # circle diameter

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise InvalidDescriptor("CircleOddK needs odd k >= 1")

    def inside(self, tb, td, tol):
        return ((self.k + 1) * (self.lam - tb) <= td + tol) & (td <= self.lam + tol)

    def boundary(self, step, cap):
        k, lam = self.k, self.lam
        apex = (lam * k / (k + 1), lam)
        diag = lam * (k + 1) / (k + 2)
        return _chain(step, apex, (diag, diag), (lam, lam), apex)


@dataclass(frozen=True)
class CircleEvenK:
    k: int = 2
    lam: float = math.pi

    def __post_init__(self):
        if self.k < 2 or self.k % 2 == 1:
            raise InvalidDescriptor("CircleEvenK needs even k >= 2")

    def inside(self, tb, td, tol):
        return (tb >= self.lam * self.k / (self.k + 1) - tol) & (td <= self.lam + tol)

    def boundary(self, step, cap):
        lam = self.lam
        left = lam * self.k / (self.k + 1)
        return _chain(step, (left, left), (left, lam), (lam, lam), (left, left))


@dataclass(frozen=True)
class ModelSurfaceRegion:
    kappa: float = 0.0

    def inside(self, tb, td, tol):
        kappa = self.kappa
        if kappa > 0:
            s = math.sqrt(kappa)
            return (td <= math.pi / s + tol) & (
                np.sin(np.minimum(s * td, math.pi) / 2.0) <= SQRT2 * np.sin(s * tb / 2.0) + tol)
        if kappa == 0:
            return td <= SQRT2 * tb + tol
        s = math.sqrt(-kappa)
        return np.sinh(s * td / 2.0) <= SQRT2 * np.sinh(s * tb / 2.0) + tol

    def boundary(self, step, cap):
        # the left boundary is parameterized by t_d
        kappa = self.kappa
        if kappa > 0:
            s = math.sqrt(kappa)
            top = math.pi / s
            td = np.linspace(0.0, top, _count(step, top))
            curve = np.column_stack([2.0 / s * np.arcsin(np.sin(s * td / 2.0) / SQRT2), td])
            return [curve, *_chain(step, (2.0 / s * math.asin(1.0 / SQRT2), top), (top, top), (0.0, 0.0))]
        if cap is None:
            cap = 4.0 / math.sqrt(-kappa) if kappa < 0 else 4.0
        td = np.linspace(0.0, cap, _count(step, cap))
        if kappa == 0:
            curve = np.column_stack([td / SQRT2, td])
        else:
            s = math.sqrt(-kappa)
            curve = np.column_stack([2.0 / s * np.arcsinh(np.sinh(s * td / 2.0) / SQRT2), td])
        return [curve, *_chain(step, (0.0, 0.0), (cap, cap))]


@dataclass(frozen=True)
class EuclideanCircle:
    def inside(self, tb, td, tol):
        return (tb >= SQRT2 - tol) & (td <= 2.0 + tol) & (
            2.0 * tb * np.sqrt(np.clip(1.0 - tb * tb / 4.0, 0.0, None)) <= td + tol)

    def boundary(self, step, cap):
        # the lower curve is parameterized by t_b
        sqrt3 = math.sqrt(3.0)
        tb = np.linspace(SQRT2, sqrt3, _count(step, sqrt3 - SQRT2))
        curve = np.column_stack([tb, 2.0 * tb * np.sqrt(1.0 - tb * tb / 4.0)])
        return [curve, *_chain(step, (sqrt3, sqrt3), (2.0, 2.0), (SQRT2, 2.0), (SQRT2, SQRT2))]


@dataclass(frozen=True)
class EuclideanSphereM:
    m: int = 2

    def __post_init__(self):
        if self.m < 2:
            raise InvalidDescriptor("EuclideanSphereM stabilizes from m = 2; use EuclideanCircle for m = 1")

    def inside(self, tb, td, tol):
        # deaths cap at 2, the chordal diameter of the unit sphere
        return td <= np.minimum(SQRT2 * tb, 2.0) + tol

    def boundary(self, step, cap):
        return _chain(step, (0.0, 0.0), (SQRT2, 2.0), (2.0, 2.0), (0.0, 0.0))


@dataclass(frozen=True)
class PtolemaicEnvelope:
    diameter_cap: float = math.inf

    def inside(self, tb, td, tol):
        return td <= np.minimum(SQRT2 * tb, self.diameter_cap) + tol

    def boundary(self, step, cap):
        cap = self.diameter_cap if math.isfinite(self.diameter_cap) else (cap or 4.0)
        return _chain(step, (0.0, 0.0), (cap / SQRT2, cap), (cap, cap), (0.0, 0.0))


def contains(region, t_b, t_d, tol: float = 0.0):
    """Vectorized membership in ``0 <= t_b <= t_d`` and the region, with additive slack ``tol``
    per inequality; a bool for scalar input."""
    tb = np.asarray(t_b, dtype=float)
    td = np.asarray(t_d, dtype=float)
    ok = (tb >= -tol) & (tb <= td + tol)
    ok &= region.inside(tb, td, tol)
    return ok if ok.shape else bool(ok)


def boundary_points(region, step: float, t_d_cap: float | None = None) -> np.ndarray:
    """Deterministic polyline discretization of the region boundary.

    Unbounded regions (kappa <= 0, Ptolemaic without cap) are truncated at
    ``t_d_cap`` (default 4/sqrt(-kappa), or 4 in flat cases).  Returns an
    (N, 2) array of (t_b, t_d) rows at parameter resolution ``step``.
    """
    if step <= 0:
        raise InvalidDescriptor("step must be positive")
    check_grids(region, step, t_d_cap=t_d_cap)
    return np.concatenate(region.boundary(step, t_d_cap), axis=0)


def interior_grid(region, step: float, t_d_cap: float | None = None) -> np.ndarray:
    """Regular grid of interior points (membership-tested) at spacing step."""
    check_grids(region, interior_step=step, t_d_cap=t_d_cap)
    bpts = boundary_points(region, max(step, 1e-3), t_d_cap=t_d_cap)
    lo = bpts.min(axis=0)
    hi = bpts.max(axis=0)
    counts = _count(step, hi[0] - lo[0]), _count(step, hi[1] - lo[1])
    _check_count(counts[0] * counts[1], step)
    tb, td = np.meshgrid(np.linspace(lo[0], hi[0], counts[0]), np.linspace(lo[1], hi[1], counts[1]))
    mask = contains(region, tb.ravel(), td.ravel(), tol=0.0)
    return np.column_stack([tb.ravel()[mask], td.ravel()[mask]])


def circle_density(t_b, t_d) -> np.ndarray:
    """Density of the principal degree-1 persistence measure of the circle.

    12/pi^3 (pi - t_d) on the odd-k=1 triangle of the unit circle, zero
    outside; integrates to 1/9, the probability that four uniform points
    produce any persistence at all.
    """
    tb = np.asarray(t_b, dtype=float)
    td = np.asarray(t_d, dtype=float)
    inside = contains(CircleOddK(1, math.pi), tb, td)
    out = np.where(inside, 12.0 / math.pi**3 * (math.pi - td), 0.0)
    return out if out.shape else float(out)


def circle_density_mass() -> float:
    """Numerical integral of circle_density over its region (Simpson, 2001 nodes).

    Independent check of the closed-form total mass 1/9: integrate the
    strip width analytically in t_b and Simpson-integrate over t_d.
    """
    td = np.linspace(2.0 * math.pi / 3.0, math.pi, 2001)
    width = np.maximum(1.5 * td - math.pi, 0.0)
    f = 12.0 / math.pi**3 * (math.pi - td) * width
    # Simpson weights
    h = td[1] - td[0]
    w = np.ones_like(td)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((f * w).sum() * h / 3.0)


def parse_region(text: str):
    """Compact CLI names: "s1", "s1:k=3:lambda=2", "s2-geodesic",
    "mk:kappa=-1", "r2", "s1-e", "sphere-e:m=3", "ptolemaic:cap=2"."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    kv = parse_options(parts[1:], text)
    if name == "s1":
        k, lam = kv.pop("k", 1), kv.pop("lambda", math.pi)
        region = CircleOddK(k, lam) if k % 2 == 1 else CircleEvenK(k, lam)
    elif name == "s2-geodesic":
        region = ModelSurfaceRegion(kappa=1.0)
    elif name == "mk":
        region = ModelSurfaceRegion(kappa=kv.pop("kappa", 0.0))
    elif name == "r2":
        region = ModelSurfaceRegion(kappa=0.0)
    elif name == "s1-e":
        region = EuclideanCircle()
    elif name == "sphere-e":
        region = EuclideanSphereM(m=kv.pop("m", 2))
    elif name == "ptolemaic":
        region = PtolemaicEnvelope(diameter_cap=kv.pop("cap", math.inf))
    else:
        raise InvalidDescriptor(f"unknown region {name!r} in {text!r}")
    no_unused_options(kv, text)
    return region
