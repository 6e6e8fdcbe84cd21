"""Degree-k Vietoris-Rips persistence of a 2k+2 point space, geometrically.

For |X| = 2k+2 the degree-k diagram has at most one point, and it is
computable from the two largest distances out of every point: with
t_d(x) the largest and t_b(x) the second largest,

    t_b(X) = max_x t_b(x),   t_d(X) = min_x t_d(x),

and the diagram is {(t_b(X), t_d(X))} exactly when t_b(X) < t_d(X),
empty otherwise.  This costs O(n^2) per space and reads only its n(n-1)/2
distances, as a pair list (``metric.condensed``) that vectorizes over the
batches the sampling engine runs on.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SizeMismatch, TooFewPoints
from .metric import DistanceMatrix, condensed


@dataclass(frozen=True)
class PrincipalDiagram:
    """Empty diagram or a single (birth, death) point with birth < death."""

    point: Optional[tuple[float, float]] = None

    @property
    def is_empty(self) -> bool:
        return self.point is None

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return () if self.point is None else (self.point,)

    @property
    def persistence(self) -> float:
        return 0.0 if self.point is None else self.point[1] - self.point[0]


@dataclass(frozen=True)
class PointExtremes:
    """Per-point (t_b, t_d, index of the unique farthest point or None)."""

    per_point: tuple[tuple[float, float, Optional[int]], ...]

    def tb_global(self) -> float:
        return max(p[0] for p in self.per_point)

    def td_global(self) -> float:
        return min(p[1] for p in self.per_point)


def point_tops(pairs, n: int):
    """Per-point (t_b, t_d), two (n, ...) arrays, of a (n(n-1)/2, ...) pair list.

    A running top two per point that starts from its diagonal zero, so a
    two-point space has t_b = 0, t_d = its diameter (pseudo-metric convention).
    """
    pairs = np.asarray(pairs, dtype=float)
    td = np.zeros((n,) + pairs.shape[1:])
    tb = np.full_like(td, -np.inf)
    low = np.empty(pairs.shape[1:])
    for x, i, j in zip(pairs, *np.triu_indices(n, 1)):
        for r in (i, j):
            np.minimum(td[r, ...], x, out=low)
            np.maximum(tb[r, ...], low, out=tb[r, ...])
            np.maximum(td[r, ...], x, out=td[r, ...])
    return tb, td


def principal_of_pairs(pairs, n: int):
    """Global (t_b(X), t_d(X)) of n-point spaces given as a pair list."""
    tb, td = point_tops(pairs, n)
    return tb.max(axis=0), td.min(axis=0)


def point_extremes(matrix: DistanceMatrix) -> PointExtremes:
    """Per-point extremes of a single matrix; ties leave the index unset."""
    if matrix.n < 2:
        raise TooFewPoints("point extremes need at least 2 points")
    a = matrix.entries
    tb_rows, td_rows = point_tops(condensed(a), matrix.n)
    per = []
    for i in range(matrix.n):
        row = a[i].copy()
        row[i] = -np.inf  # the farthest point is over the *other* indices
        top = np.flatnonzero(row == td_rows[i])
        vd = int(top[0]) if top.size == 1 else None
        per.append((float(tb_rows[i]), float(td_rows[i]), vd))
    return PointExtremes(tuple(per))


def principal_diagram(matrix: DistanceMatrix, k: int) -> PrincipalDiagram:
    """The unique degree-k diagram point of a 2k+2 point space, or empty.

    Fewer than 2k+2 points can never produce degree-k homology, so that
    case is a constant-empty fast path.  More points are out of scope
    (the diagram may then hold several points: use the brute-force
    oracle) and raise SizeMismatch.

    The comparison t_b < t_d is exact: ties mean no persistence, and for
    continuous samples ties have measure zero.
    """
    if k < 0:
        raise SizeMismatch("k must be >= 0")
    n = 2 * k + 2
    if matrix.n < n:
        return PrincipalDiagram(None)
    if matrix.n > n:
        raise SizeMismatch(f"degree {k} needs at most {n} points, got {matrix.n}")
    tb, td = principal_of_pairs(condensed(matrix.entries), n)
    if tb < td:
        return PrincipalDiagram((float(tb), float(td)))
    return PrincipalDiagram(None)


def ptolemy_slack(matrix: DistanceMatrix) -> float:
    """Worst Ptolemaic slack over the three pairings of a 4-point space.

    The three ways of splitting {x1..x4} into two pairs give products
    p_i = d(pair) * d(opposite pair); the Ptolemaic inequality for the
    4-tuple says every p_i <= p_j + p_k, and only the largest product can
    break it.  Returned is max_i (p_i - p_j - p_k): <= 0 certifies the
    inequality, and equality 0 is attained by concyclic planar points.
    """
    if matrix.n != 4:
        raise SizeMismatch("ptolemy_slack needs exactly 4 points")
    a = matrix.entries
    p1 = a[0, 1] * a[2, 3]
    p2 = a[0, 2] * a[1, 3]
    p3 = a[0, 3] * a[1, 2]
    total = p1 + p2 + p3
    return float(max(2.0 * p - total for p in (p1, p2, p3)))
