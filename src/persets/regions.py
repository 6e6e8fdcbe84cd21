"""Closed-form persistence-set regions, boundaries and densities.

Every characterization the sampling engine is checked against lives here:

* geodesic circle, odd and even degree (triangle / half-strip regions),
* constant-curvature surfaces via the spherical / hyperbolic Ptolemaic
  boundary sin(sqrt(k)/2 t_d) = sqrt(2) sin(sqrt(k)/2 t_b) and its
  hyperbolic and flat (t_d = sqrt(2) t_b) analogues,
* Euclidean circle and Euclidean spheres (which stabilize from m = 2 on),
* the generic Ptolemaic envelope t_d <= min(sqrt(2) t_b, diameter cap).

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

from .errors import InvalidDescriptor
from .spaces import parse_options

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CircleOddK:
    k: int = 1
    lam: float = math.pi  # circle diameter

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise InvalidDescriptor("CircleOddK needs odd k >= 1")


@dataclass(frozen=True)
class CircleEvenK:
    k: int = 2
    lam: float = math.pi

    def __post_init__(self):
        if self.k < 2 or self.k % 2 == 1:
            raise InvalidDescriptor("CircleEvenK needs even k >= 2")


@dataclass(frozen=True)
class ModelSurfaceRegion:
    kappa: float = 0.0


@dataclass(frozen=True)
class EuclideanCircle:
    pass


@dataclass(frozen=True)
class EuclideanSphereM:
    m: int = 2

    def __post_init__(self):
        if self.m < 2:
            raise InvalidDescriptor("EuclideanSphereM stabilizes from m = 2; use EuclideanCircle for m = 1")


@dataclass(frozen=True)
class PtolemaicEnvelope:
    diameter_cap: float = math.inf


RegionSpec = (
    CircleOddK | CircleEvenK | ModelSurfaceRegion | EuclideanCircle | EuclideanSphereM | PtolemaicEnvelope
)


def contains(region: RegionSpec, t_b, t_d, tol: float = 0.0):
    """Vectorized membership with additive slack ``tol`` per inequality."""
    tb = np.asarray(t_b, dtype=float)
    td = np.asarray(t_d, dtype=float)
    ok = (tb >= -tol) & (tb <= td + tol)

    if isinstance(region, CircleOddK):
        lam = region.lam
        ok &= (region.k + 1) * (lam - tb) <= td + tol
        ok &= td <= lam + tol
    elif isinstance(region, CircleEvenK):
        lam = region.lam
        ok &= tb >= lam * region.k / (region.k + 1) - tol
        ok &= td <= lam + tol
    elif isinstance(region, ModelSurfaceRegion):
        kappa = region.kappa
        if kappa > 0:
            s = math.sqrt(kappa)
            ok &= td <= math.pi / s + tol
            ok &= np.sin(np.minimum(s * td, math.pi) / 2.0) <= SQRT2 * np.sin(s * tb / 2.0) + tol
        elif kappa == 0:
            ok &= td <= SQRT2 * tb + tol
        else:
            s = math.sqrt(-kappa)
            ok &= np.sinh(s * td / 2.0) <= SQRT2 * np.sinh(s * tb / 2.0) + tol
    elif isinstance(region, EuclideanCircle):
        ok &= tb >= SQRT2 - tol
        ok &= td <= 2.0 + tol
        ok &= 2.0 * tb * np.sqrt(np.clip(1.0 - tb * tb / 4.0, 0.0, None)) <= td + tol
    elif isinstance(region, EuclideanSphereM):
        # deaths cap at 2, the chordal diameter of the unit sphere
        ok &= td <= np.minimum(SQRT2 * tb, 2.0) + tol
    elif isinstance(region, PtolemaicEnvelope):
        ok &= td <= np.minimum(SQRT2 * tb, region.diameter_cap) + tol
    else:
        raise InvalidDescriptor(f"unknown region {region!r}")
    return ok if ok.shape else bool(ok)


def boundary_points(region: RegionSpec, step: float, t_d_cap: float | None = None) -> np.ndarray:
    """Deterministic polyline discretization of the region boundary.

    Unbounded regions (kappa <= 0, Ptolemaic without cap) are truncated at
    ``t_d_cap`` (default 4/sqrt(-kappa), or 4 in flat cases).  Returns an
    (N, 2) array of (t_b, t_d) rows at parameter resolution ``step``.
    """
    if step <= 0:
        raise InvalidDescriptor("step must be positive")
    segs = []

    def seg(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        m = max(2, int(math.ceil(np.abs(q - p).max() / step)) + 1)
        t = np.linspace(0.0, 1.0, m)[:, None]
        segs.append(p[None, :] * (1 - t) + q[None, :] * t)

    def curve(f, d_lo, d_hi):
        # left boundary parameterized by t_d
        m = max(2, int(math.ceil((d_hi - d_lo) / step)) + 1)
        td = np.linspace(d_lo, d_hi, m)
        segs.append(np.column_stack([f(td), td]))

    if isinstance(region, CircleOddK):
        k, lam = region.k, region.lam
        apex = (lam * k / (k + 1), lam)
        diag = (lam * (k + 1) / (k + 2), lam * (k + 1) / (k + 2))
        far = (lam, lam)
        seg(apex, diag)
        seg(diag, far)
        seg(far, apex)
    elif isinstance(region, CircleEvenK):
        k, lam = region.k, region.lam
        left = lam * k / (k + 1)
        seg((left, left), (left, lam))
        seg((left, lam), (lam, lam))
        seg((lam, lam), (left, left))
    elif isinstance(region, ModelSurfaceRegion):
        kappa = region.kappa
        if kappa > 0:
            s = math.sqrt(kappa)
            top = math.pi / s
            curve(lambda td: 2.0 / s * np.arcsin(np.sin(s * td / 2.0) / SQRT2), 0.0, top)
            seg((2.0 / s * math.asin(1.0 / SQRT2), top), (top, top))
            seg((top, top), (0.0, 0.0))
        else:
            cap = t_d_cap if t_d_cap is not None else (4.0 / math.sqrt(-kappa) if kappa < 0 else 4.0)
            if kappa == 0:
                curve(lambda td: td / SQRT2, 0.0, cap)
            else:
                s = math.sqrt(-kappa)
                curve(lambda td: 2.0 / s * np.arcsinh(np.sinh(s * td / 2.0) / SQRT2), 0.0, cap)
            seg((0.0, 0.0), (cap, cap))
    elif isinstance(region, EuclideanCircle):
        sqrt3 = math.sqrt(3.0)
        # lower curve t_d = 2 t_b sqrt(1 - t_b^2/4), parameterized by t_b
        m = max(2, int(math.ceil((sqrt3 - SQRT2) / step)) + 1)
        tb = np.linspace(SQRT2, sqrt3, m)
        segs.append(np.column_stack([tb, 2.0 * tb * np.sqrt(1.0 - tb * tb / 4.0)]))
        seg((sqrt3, sqrt3), (2.0, 2.0))
        seg((2.0, 2.0), (SQRT2, 2.0))
        seg((SQRT2, 2.0), (SQRT2, SQRT2))
    elif isinstance(region, EuclideanSphereM):
        seg((0.0, 0.0), (SQRT2, 2.0))
        seg((SQRT2, 2.0), (2.0, 2.0))
        seg((2.0, 2.0), (0.0, 0.0))
    elif isinstance(region, PtolemaicEnvelope):
        cap = region.diameter_cap if math.isfinite(region.diameter_cap) else (t_d_cap or 4.0)
        seg((0.0, 0.0), (cap / SQRT2, cap))
        seg((cap / SQRT2, cap), (cap, cap))
        seg((cap, cap), (0.0, 0.0))
    else:
        raise InvalidDescriptor(f"unknown region {region!r}")
    return np.concatenate(segs, axis=0)


def interior_grid(region: RegionSpec, step: float, t_d_cap: float | None = None) -> np.ndarray:
    """Regular grid of interior points (membership-tested) at spacing step."""
    bpts = boundary_points(region, max(step, 1e-3), t_d_cap=t_d_cap)
    lo = bpts.min(axis=0)
    hi = bpts.max(axis=0)
    nb = max(2, int(math.ceil((hi[0] - lo[0]) / step)) + 1)
    nd = max(2, int(math.ceil((hi[1] - lo[1]) / step)) + 1)
    tb, td = np.meshgrid(np.linspace(lo[0], hi[0], nb), np.linspace(lo[1], hi[1], nd))
    mask = contains(region, tb.ravel(), td.ravel(), tol=0.0)
    pts = np.column_stack([tb.ravel()[mask], td.ravel()[mask]])
    return pts


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


def circle_density_mass(quad_points: int = 2001) -> float:
    """Numerical integral of circle_density over its region (Simpson grid).

    Independent check of the closed-form total mass 1/9: integrate the
    strip width analytically in t_b and Simpson-integrate over t_d.
    """
    td = np.linspace(2.0 * math.pi / 3.0, math.pi, quad_points)
    width = np.maximum(1.5 * td - math.pi, 0.0)
    f = 12.0 / math.pi**3 * (math.pi - td) * width
    # Simpson weights
    h = td[1] - td[0]
    w = np.ones_like(td)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((f * w).sum() * h / 3.0)


def corner_point(k: int, lam: float) -> tuple[float, float]:
    """The minimal-birth / maximal-death diagram of the diameter-lam circle.

    It is realized only by the regular (2k+2)-gon, hence "corner": the
    unique tip of the region at maximal death.
    """
    if k < 0 or lam <= 0:
        raise InvalidDescriptor("need k >= 0 and lam > 0")
    return (lam * k / (k + 1), lam)


def euclidean_image(t_b, t_d):
    """Coordinatewise chord map d -> 2 sin(d/2) sending geodesic circle
    diagrams onto Euclidean circle diagrams."""
    tb = np.asarray(t_b, dtype=float)
    td = np.asarray(t_d, dtype=float)
    return 2.0 * np.sin(tb / 2.0), 2.0 * np.sin(td / 2.0)


def circle_region_for(k: int, lam: float = math.pi) -> RegionSpec:
    return CircleOddK(k, lam) if k % 2 == 1 else CircleEvenK(k, lam)


def parse_region(text: str) -> RegionSpec:
    """Compact CLI names: "s1", "s1:k=3:lambda=2", "s2-geodesic",
    "mk:kappa=-1", "r2", "s1-e", "s2-e", "sphere-e:m=3", "ptolemaic:cap=2"."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    kv = parse_options(parts[1:], text)
    if name == "s1":
        return circle_region_for(kv.get("k", 1), kv.get("lambda", math.pi))
    if name in ("s2-geodesic", "s2"):
        return ModelSurfaceRegion(kappa=1.0)
    if name == "mk":
        return ModelSurfaceRegion(kappa=kv.get("kappa", 0.0))
    if name == "r2":
        return ModelSurfaceRegion(kappa=0.0)
    if name == "s1-e":
        return EuclideanCircle()
    if name in ("s2-e", "sphere-e"):
        return EuclideanSphereM(m=kv.get("m", 2))
    if name == "ptolemaic":
        return PtolemaicEnvelope(diameter_cap=kv.get("cap", math.inf))
    raise InvalidDescriptor(f"unknown region {name!r} in {text!r}")
