"""Split-metric machinery for 4-point spaces and cycle detection in graphs.

Any 4-point pseudo-metric decomposes into split metrics with no
split-prime part: after relabeling so that the pairing with maximal
within-sum pairs the diagonals (x1,x3), (x2,x4), the space embeds in a
"box with pendant edges" graph with box sides b, c and pendants a_1..a_4:

    d12 = a1+a2+b     d23 = a2+a3+c     d34 = a3+a4+b     d41 = a4+a1+c
    d13 = a1+a3+b+c   d24 = a2+a4+b+c

Persistence is nontrivial exactly when all four of |a2-a1| < b,
|a4-a3| < b, |a3-a2| < c, |a1-a4| < c hold, with birth = longest side,
death = shortest diagonal, and persistence bounded by min(b, c).

Corner detection exploits that the persistence region of a cycle of
length 2*lam in an admissible graph is the triangle with apex
(lam/2, lam), whose maximal-persistence edge lies on the exact line
t_b + t_d/2 = lam.  The statistic rho = t_b + t_d/2 is therefore >= lam
for every point of that cycle, with equality attained along a whole edge
of the region, so min rho is a sharp, bias-free estimator of lam even
though the density vanishes at the apex itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPrincipal41, SizeMismatch
from .metric import DistanceMatrix
from .oracle import Diagram

_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@dataclass(frozen=True)
class SplitDecomposition:
    pendant: tuple[float, float, float, float]  # a1..a4 in box labeling
    b: float  # isolation index of the {x1,x4} | {x2,x3} split
    c: float  # isolation index of the {x1,x2} | {x3,x4} split
    zero_split: tuple[tuple[int, int], tuple[int, int]]  # original indices
    labeling: tuple[int, int, int, int]  # x_{i+1} = input index labeling[i]
    relabeled: np.ndarray = field(compare=False)  # 4x4 matrix in box labeling


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


def split_decompose(matrix: DistanceMatrix) -> SplitDecomposition:
    """Split-metric decomposition of a 4-point pseudo-metric.

    The pairing with the largest within-sum (ties: lexicographically
    first) has isolation index zero and becomes the diagonal pairing; its
    two competitors give the box sides, and the pendants are Gromov
    products.  Reconstruction from the box is exact by construction.
    """
    if matrix.n != 4:
        raise SizeMismatch("split decomposition needs exactly 4 points")
    a = matrix.entries
    sums = [a[p[0], p[1]] + a[q[0], q[1]] for p, q in _PAIRINGS]
    zero = int(np.argmax(sums))
    s_max = sums[zero]

    # relabel so the zero pairing becomes {(x1,x3),(x2,x4)}
    if zero == 0:  # {0,1} | {2,3}
        labeling = (0, 2, 1, 3)
    elif zero == 1:  # {0,2} | {1,3}
        labeling = (0, 1, 2, 3)
    else:  # {0,3} | {1,2}
        labeling = (0, 1, 3, 2)
    m = a[np.ix_(labeling, labeling)]

    b = 0.5 * (s_max - (m[0, 3] + m[1, 2]))  # beta of {x1,x4} | {x2,x3}
    c = 0.5 * (s_max - (m[0, 1] + m[2, 3]))  # beta of {x1,x2} | {x3,x4}
    pendant = (
        0.5 * (m[0, 1] + m[0, 3] - m[1, 3]),
        0.5 * (m[0, 1] + m[1, 2] - m[0, 2]),
        0.5 * (m[1, 2] + m[2, 3] - m[1, 3]),
        0.5 * (m[0, 3] + m[2, 3] - m[0, 2]),
    )
    return SplitDecomposition(
        pendant=tuple(float(x) for x in pendant),
        b=float(b),
        c=float(c),
        zero_split=_PAIRINGS[zero],
        labeling=labeling,
        relabeled=m,
    )


def reconstruct(dec: SplitDecomposition) -> np.ndarray:
    """Distances rebuilt from the box realization, in the input labeling."""
    a1, a2, a3, a4 = dec.pendant
    b, c = dec.b, dec.c
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = a1 + a2 + b
    m[1, 2] = m[2, 1] = a2 + a3 + c
    m[2, 3] = m[3, 2] = a3 + a4 + b
    m[0, 3] = m[3, 0] = a4 + a1 + c
    m[0, 2] = m[2, 0] = a1 + a3 + b + c
    m[1, 3] = m[3, 1] = a2 + a4 + b + c
    inv = np.argsort(dec.labeling)
    return m[np.ix_(inv, inv)]


def tight_span_persistence(dec: SplitDecomposition) -> Diagram:
    """Degree-1 persistence read off the box realization.

    Independent of the t_b/t_d route: the four strict pendant inequalities
    decide nontriviality, then birth/death are the extreme side/diagonal.
    """
    a1, a2, a3, a4 = dec.pendant
    b, c = dec.b, dec.c
    if abs(a2 - a1) < b and abs(a4 - a3) < b and abs(a3 - a2) < c and abs(a1 - a4) < c:
        m = dec.relabeled
        t_b = max(m[0, 1], m[1, 2], m[2, 3], m[0, 3])
        t_d = min(m[0, 2], m[1, 3])
        return Diagram(1, ((float(t_b), float(t_d)),))
    return Diagram(1, ())


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
