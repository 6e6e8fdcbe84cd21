"""Brute-force Vietoris-Rips persistent homology over GF(2).

The slow trusted referee.  Every n-point space has the same complex, listed
once; a space only orders it by (value, dimension, lexicographic vertices),
and standard column reduction reads its reduced-homology diagrams off the
pivot pairs.  Hard-capped at 12 points; it validates the geometric algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import TooLarge
from .metric import DistanceMatrix, condensed

MAX_POINTS = 12


@dataclass(frozen=True)
class Diagram:
    """Finite multiset of (birth, death) pairs in one homology degree."""

    degree: int
    points: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.points


@lru_cache(maxsize=None)
def _complex(n: int, top: int):
    """The simplices of dimensions 1 .. top on n vertices, by dimension, then lexicographically:
    their dimensions, their edges' rows in a pair list (a row per simplex, padded with its
    first edge) and their faces' positions (vertex v at v, the i-th simplex listed at n + i)."""
    if n > MAX_POINTS:
        raise TooLarge(f"oracle is capped at {MAX_POINTS} points, got {n}")
    if top > n - 1:
        raise TooLarge(f"top dimension {top} exceeds n-1 = {n - 1}")
    row = {edge: r for r, edge in enumerate(combinations(range(n), 2))}
    simplices = [s for size in range(2, top + 2) for s in combinations(range(n), size)]
    position = {s: n + i for i, s in enumerate(simplices)} | {(v,): v for v in range(n)}
    edges = [[row[e] for e in combinations(s, 2)] for s in simplices]
    return (np.array([len(s) - 1 for s in simplices]),
            np.array([e + e[:1] * (top * (top + 1) // 2 - len(e)) for e in edges]),
            tuple(tuple(position[f] for f in combinations(s, len(s) - 1)) for s in simplices))


def filtration(column, n: int, top: int):
    """One space's simplices above its vertices, as listing indices in filtration order, and
    their values in that order, from its pair list.  Each enters at its first largest edge (as
    ``max`` picks it); a stable argsort keeps the listing's order among equal values."""
    lengths = column[_complex(n, top)[1]]
    values = np.take_along_axis(lengths, lengths.argmax(axis=1)[:, None], axis=1)[:, 0]
    order = values.argsort(kind="stable")
    return order, values[order]


def diagrams_of_pairs(pairs, n: int, top: int) -> list[list[Diagram]]:
    """The reduced diagrams of degrees 0 .. top - 1 of each space of a (n(n-1)/2, B) pair list.

    Vertices enter at 0.0, the rest as ``filtration`` orders them.  Columns are GF(2) bitmasks
    over filtration positions, each reduced by the reduced columns whose pivots it meets; a
    pivot pair (i, j) with dim(i) = d is the degree-d point (value_i, value_j) if value_i <
    value_j.  Below ``top`` the complex is a simplex's skeleton, so its one component is the
    only essential class: reduced homology drops it."""
    dims, _, faces = _complex(n, top)
    bits = [1 << p for p in range(n + len(faces))]
    out = []
    for column in np.asarray(pairs, dtype=float).T:
        order, values = filtration(column, n, top)
        at = list(range(n)) + (n + order.argsort()).tolist()
        value, dim = [0.0] * n + values.tolist(), [0] * n + dims[order].tolist()
        pivots, points = [0] * len(bits), [[] for _ in range(top)]
        for j, s in enumerate(order.tolist(), n):
            col = sum(bits[at[f]] for f in faces[s])  # distinct faces: the sum is their XOR
            while col:
                low = col.bit_length() - 1
                other = pivots[low]
                if not other:
                    pivots[low] = col
                    if value[low] < value[j]:
                        points[dim[low]].append((value[low], value[j]))
                    break
                col ^= other
        out.append([Diagram(d, tuple(sorted(p))) for d, p in enumerate(points)])
    return out


def vr_diagrams(matrix: DistanceMatrix, max_degree: int) -> list[Diagram]:
    """Diagrams for degrees 0 .. max_degree of one matrix: a batch of one."""
    return diagrams_of_pairs(condensed(matrix.entries)[:, None], matrix.n, max_degree + 1)[0]


def vr_diagram(matrix: DistanceMatrix, degree: int) -> Diagram:
    """The single degree-``degree`` reduced diagram of the matrix."""
    return vr_diagrams(matrix, degree)[degree]
