"""Brute-force Vietoris-Rips persistent homology over GF(2).

The slow trusted referee.  Every n-point space has the same degree-k
boundary matrix, listed once; a space only orders its rows and columns by
value, and column reduction reads its reduced diagram off the pivot pairs.
Hard-capped at 12 points; it validates the geometric algorithm.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import TooLarge

MAX_POINTS = 12


@lru_cache(maxsize=None)
def _complex(n: int, k: int):
    """The degree-k boundary matrix on n points: its row count, the edges of its rows (k-simplices)
    then columns ((k+1)-simplices), each lexicographic, as rows of a pair list with 0.0 appended
    (a vertex reads it; a row is padded with its first edge), and each column's faces as rows."""
    if n > MAX_POINTS:
        raise TooLarge(f"oracle is capped at {MAX_POINTS} points, got {n}")
    if k + 2 > n:
        raise TooLarge(f"degree {k} needs at least {k + 2} points, got {n}")
    index = {s: i for size in {2, k + 1} for i, s in enumerate(combinations(range(n), size))}
    rows, columns = (list(combinations(range(n), size)) for size in (k + 1, k + 2))
    edges = [[index[e] for e in combinations(s, 2)] or [n * (n - 1) // 2] for s in rows + columns]
    return (len(rows), np.array([e + e[:1] * ((k + 1) * (k + 2) // 2 - len(e)) for e in edges]),
            tuple(tuple(index[f] for f in combinations(s, k + 1)) for s in columns))


def filtration(column, n: int, k: int):
    """One space's rows and columns (listing indices, rows first) in filtration order, and their
    values in that order, from its pair list with a 0.0 appended.  Each enters at its first largest
    edge (as ``max`` picks it); a stable argsort keeps the listing's order among equal values, so
    every row comes before the columns it bounds (a face's edges are among its column's, and no
    distance is below a vertex's 0.0)."""
    lengths = column[_complex(n, k)[1]]
    values = lengths[np.arange(len(lengths)), lengths.argmax(axis=1)]
    order = values.argsort(kind="stable")
    return order, values[order]


def diagrams_of_pairs(pairs, n: int, k: int):
    """The reduced degree-k diagrams of the spaces of a (n(n-1)/2, B) pair list: their (m, 2)
    (birth, death) points, in space order and each space's sorted, and each space's point count.

    Columns are GF(2) bitmasks over filtration positions, each reduced by the reduced columns
    whose pivots it meets; a pivot pair (i, j) is the point (value_i, value_j) if value_i <
    value_j.  The (k+1)-skeleton of a simplex has no essential class in degree k >= 1, and
    degree 0 keeps only its one component, which reduced homology drops."""
    count, _, faces = _complex(n, k)
    points, per_tuple = [], []
    for column in np.vstack([pairs, np.zeros(len(pairs[0]))]).T:
        order, values = filtration(column, n, k)
        value, bit, pivots, found = values.tolist(), [0] * count, [0] * len(order), []
        for j, s in enumerate(order.tolist()):
            if s < count:
                bit[s] = 1 << j
                continue
            col = sum(map(bit.__getitem__, faces[s - count]))  # distinct faces: the sum is the XOR
            while col:
                low = col.bit_length() - 1
                other = pivots[low]
                if not other:
                    pivots[low] = col
                    if value[low] < value[j]:
                        found.append((value[low], value[j]))
                    break
                col ^= other
        points += sorted(found)
        per_tuple.append(len(found))
    return np.array(points, dtype=float).reshape(-1, 2), np.array(per_tuple, dtype=np.intp)
