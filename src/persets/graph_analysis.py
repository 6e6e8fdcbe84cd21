"""Cycle detection in metric graphs from their degree-1 principal persistence.

Corner detection exploits that the persistence region of a cycle of
length 2*lam in an admissible graph is the triangle with apex
(lam/2, lam), whose maximal-persistence edge lies on the exact line
t_b + t_d/2 = lam.  The statistic rho = t_b + t_d/2 is therefore >= lam
for every point of that cycle, with equality attained along a whole edge
of the region, so min rho is a sharp, bias-free estimator of lam even
though the density vanishes at the apex itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPrincipal41


@dataclass(frozen=True)
class Corner:
    lam: float
    support: int
    caveat: bool = False


@dataclass(frozen=True)
class CornerReport:
    corners: tuple[Corner, ...]
    truncated: bool = False  # the scan hit off-structure mass and stopped

    @property
    def estimated_betti(self) -> int:
        return len(self.corners)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(c.lam for c in self.corners)


def detect_corners(sample, rel_tol: float = 0.08, min_support: int = 10) -> CornerReport:
    """Find the corner points (lam/2, lam) of a degree-1 campaign on a graph.

    Scans the statistic rho = t_b + t_d/2 upward.  Each admissible cycle
    of half-length lam contributes points with rho >= lam exactly, a whole
    boundary edge at rho = lam, and deaths capped at lam exactly, so:

    * lam_hat = min rho of the remaining points estimates the smallest
      remaining cycle with O(lam / #points) bias;
    * the strip rho <= lam_hat (1 + rel_tol) collects its witnesses
      (``support``); the corner is real only if the strip's deaths reach
      lam_hat (the edge must end in an apex, not a loose cloud);
    * accepted corners peel every point with t_d <= lam_hat, which removes
      the whole cycle but no larger cycle's edge evidence.

    Rejected strips are discarded and the scan continues, so the loop
    terminates.  Once the rejected strips accumulate min_support points,
    the sample is showing substantial off-line structure (for example the
    displaced copies of the cycle region that dead-end decorations
    create), corners above it cannot be trusted, and the scan stops with
    ``truncated`` set.  Cycles with lam closer than rel_tol merge; the
    report flags corners whose strip is chased by more points just above.
    """
    if sample.n != 4 or sample.k != 1:
        raise NotPrincipal41(f"corner detection needs n=4, k=1 campaigns, got n={sample.n}, k={sample.k}")
    pts = np.asarray(sample.points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return CornerReport(())
    tb, td = pts[:, 0], pts[:, 1]
    rho = tb + td / 2.0

    corners: list[Corner] = []
    alive = np.ones(len(pts), dtype=bool)
    rejected_mass = 0
    truncated = False
    while alive.any():
        live_rho = np.sort(rho[alive])
        # up to three leading strays (rare near-square configurations
        # straddling an edge gluing sit isolated below the next cycle's
        # edge) are dropped when their gap dwarfs the local spacing
        start = 0
        if len(live_rho) > min_support:
            window = live_rho[: max(min_support, 20)]
            typical = float(np.median(np.diff(window)))
            while (
                start < min(3, len(live_rho) - 1)
                and typical > 0.0
                and live_rho[start + 1] - live_rho[start] > 6.0 * typical
            ):
                start += 1
        lam = float(live_rho[start])
        strip = alive & (rho <= lam * (1.0 + rel_tol))
        support = int(strip.sum())
        apex_ok = bool(td[strip].max() >= lam * (1.0 - 2.0 * rel_tol))
        if support >= min_support and apex_ok:
            alive &= td > lam
            # survivors hugging this corner from above suggest a nearby,
            # possibly merged, second cycle
            tail = alive & ~strip & (rho <= lam * (1.0 + 3.0 * rel_tol))
            corners.append(Corner(lam=lam, support=support, caveat=bool(tail.any())))
        else:
            rejected_mass += support
            if rejected_mass >= min_support:
                truncated = True
                break
        alive &= ~strip
    return CornerReport(tuple(corners), truncated=truncated)
