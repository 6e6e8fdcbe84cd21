"""Degree-k Vietoris-Rips persistence of a 2k+2 point space, geometrically.

For |X| = 2k+2 the degree-k diagram has at most one point, and it is
computable from the two largest distances out of every point: with
t_d(x) the largest and t_b(x) the second largest,

    t_b(X) = max_x t_b(x),   t_d(X) = min_x t_d(x),

and the diagram is {(t_b(X), t_d(X))} exactly when t_b(X) < t_d(X),
empty otherwise.  This costs O(n^2) per space and reads only its n(n-1)/2
distances, as a pair list (``metric.condensed``) that vectorizes over the
batches the sampling engine runs on.  Each point's top two is one running
pass over its n - 1 distances, folded into (t_b(X), t_d(X)) as soon as it
is done, so a batch of B spaces needs a few buffers of B values, whatever n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import SizeMismatch, TooFewPoints
from .metric import DistanceMatrix, condensed
from .oracle import Diagram


@dataclass(frozen=True)
class PointExtremes:
    """Per-point (t_b, t_d, index of the unique farthest point or None)."""

    per_point: tuple[tuple[float, float, Optional[int]], ...]

    def tb_global(self) -> float:
        return max(p[0] for p in self.per_point)

    def td_global(self) -> float:
        return min(p[1] for p in self.per_point)


@lru_cache(maxsize=None)
def _incident(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of each point's n - 1 distances in a pair list, in pair order."""
    i, j = np.triu_indices(n, 1)
    return tuple(tuple(np.flatnonzero((i == x) | (j == x)).tolist()) for x in range(n))


def _candidates(pairs, n: int) -> list:
    """Each point's candidates for its top two: its distances and its diagonal zero.

    From the first two distances on, the zero changes no bit of a top two
    of distances >= 0 (on a tie numpy's maximum and minimum return their
    second operand), so it is listed only at n = 2, where a point has one
    distance.
    """
    if n == 2:
        return [[0.0, pairs[0]]] * 2
    return [[pairs[p] for p in rows] for rows in _incident(n)]


def _top_two(xs, tb, td, low) -> None:
    """The second largest and the largest of ``xs`` into ``tb`` and ``td``; ``low`` is scratch."""
    first, second, *rest = xs
    np.minimum(first, second, out=tb)
    np.maximum(first, second, out=td)
    for x in rest:
        np.minimum(td, x, out=low)
        np.maximum(tb, low, out=tb)
        np.maximum(td, x, out=td)


def principal_of_pairs(pairs, n: int, out=None):
    """Global (t_b(X), t_d(X)) of n-point spaces given as a (n(n-1)/2, ...) pair list.

    They are written into ``out``, two arrays of the batch shape ``pairs.shape[1:]``,
    if given.  Each point's top two is folded in as soon as it is done.
    """
    pairs = np.asarray(pairs, dtype=float)
    tb, td = out if out is not None else (np.empty(pairs.shape[1:]), np.empty(pairs.shape[1:]))
    lo, hi, low = (np.empty(pairs.shape[1:]) for _ in range(3))
    first, *rest = _candidates(pairs, n)
    _top_two(first, tb, td, low)
    for xs in rest:
        _top_two(xs, lo, hi, low)
        np.maximum(tb, lo, out=tb)
        np.minimum(td, hi, out=td)
    return tb, td


def point_extremes(matrix: DistanceMatrix) -> PointExtremes:
    """Per-point extremes of a single matrix; ties leave the index unset."""
    if matrix.n < 2:
        raise TooFewPoints("point extremes need at least 2 points")
    a = matrix.entries
    tb, td, low = np.empty(()), np.empty(()), np.empty(())
    per = []
    for i, xs in enumerate(_candidates(condensed(a), matrix.n)):
        _top_two(xs, tb, td, low)
        row = a[i].copy()
        row[i] = -np.inf  # the farthest point is over the *other* indices
        top = np.flatnonzero(row == td)
        vd = int(top[0]) if top.size == 1 else None
        per.append((float(tb), float(td), vd))
    return PointExtremes(tuple(per))


def principal_diagram(matrix: DistanceMatrix, k: int) -> Diagram:
    """The degree-k diagram of a 2k+2 point space: one point or empty.

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
        return Diagram(k, ())
    if matrix.n > n:
        raise SizeMismatch(f"degree {k} needs at most {n} points, got {matrix.n}")
    tb, td = principal_of_pairs(condensed(matrix.entries), n)
    return Diagram(k, ((float(tb), float(td)),) if tb < td else ())


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
