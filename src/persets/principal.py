"""Degree-k Vietoris-Rips persistence of a 2k+2 point space, geometrically.

For |X| = 2k+2 the degree-k diagram has at most one point, and it is
computable from the two largest distances out of every point: with
t_d(x) the largest and t_b(x) the second largest,

    t_b(X) = max_x t_b(x),   t_d(X) = min_x t_d(x),

and the diagram is {(t_b(X), t_d(X))} exactly when t_b(X) < t_d(X),
empty otherwise.  This costs O(n^2) per space and reads only its n(n-1)/2
distances, as a pair list (its i < j entries in ``np.triu_indices``
order) that vectorizes over the batches the sampling engine runs on.
Each point's top two is one running pass over its n - 1 distances,
folded into (t_b(X), t_d(X)) as soon as it is done, so a batch of B
spaces needs a few buffers of B values, whatever n.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


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
    """Global (t_b(X), t_d(X)) of n-point spaces given as a (n(n-1)/2, ...) pair list,
    two arrays of the batch shape ``pairs.shape[1:]``.  Each point's top two is
    folded in as soon as it is done.  ``out``, if given, is five arrays of that
    shape: t_b, t_d and three work arrays.
    """
    pairs = np.asarray(pairs, dtype=float)
    tb, td, lo, hi, low = out if out is not None else (np.empty(pairs.shape[1:]) for _ in range(5))
    first, *rest = _candidates(pairs, n)
    _top_two(first, tb, td, low)
    for xs in rest:
        _top_two(xs, lo, hi, low)
        np.maximum(tb, lo, out=tb)
        np.minimum(td, hi, out=td)
    return tb, td
