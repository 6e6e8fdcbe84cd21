"""Brute-force Vietoris-Rips persistent homology over GF(2).

The slow trusted referee: enumerate every simplex up to a dimension cap,
sort by (filtration value, dimension, lexicographic vertices), reduce the
boundary matrix by standard column reduction, and read reduced-homology
diagrams off the pivot pairs.  Hard-capped at 12 points; it exists to
validate the geometric algorithm, not to be fast.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import NonMonotoneFiltration, TooLarge
from .metric import DistanceMatrix

MAX_POINTS = 12


@dataclass(frozen=True)
class Diagram:
    """Finite multiset of (birth, death) pairs in one homology degree."""

    degree: int
    points: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.points


@dataclass(frozen=True)
class Filtration:
    """Simplices as (sorted vertex tuple, value), sorted filtration order."""

    simplices: tuple[tuple[tuple[int, ...], float], ...]
    max_dim: int


def build_vr_filtration(matrix: DistanceMatrix, max_dim: int) -> Filtration:
    """All simplices of dimension <= max_dim with value = diameter."""
    n = matrix.n
    if n > MAX_POINTS:
        raise TooLarge(f"oracle is capped at {MAX_POINTS} points, got {n}")
    if max_dim > n - 1:
        raise TooLarge(f"max_dim {max_dim} exceeds n-1 = {n - 1}")
    a = matrix.entries
    simplices = []
    for size in range(1, max_dim + 2):
        for verts in combinations(range(n), size):
            if size == 1:
                value = 0.0
            else:
                value = max(a[i, j] for i, j in combinations(verts, 2))
            simplices.append((verts, float(value)))
    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return Filtration(tuple(simplices), max_dim)


def reduce(filtration: Filtration) -> list[Diagram]:
    """Reduced-homology diagrams for degrees 0 .. max_dim - 1.

    Columns are GF(2) bitmasks over row indices; a pair (i, j) with
    dim(i) = d yields the degree-d point (value_i, value_j).  Zero
    persistence pairs are dropped.  Degree 0 uses reduced homology: the
    single essential component is discarded.
    """
    simplices = filtration.simplices
    index = {}
    for pos, (verts, value) in enumerate(simplices):
        index[verts] = pos
        for face in combinations(verts, len(verts) - 1):
            if not face:
                continue
            fpos = index.get(face)
            if fpos is None:
                raise NonMonotoneFiltration(f"face {face} of {verts} missing or late")
            if simplices[fpos][1] > value:
                raise NonMonotoneFiltration(f"face {face} enters after {verts}")

    columns = []
    for verts, _ in simplices:
        mask = 0
        if len(verts) > 1:
            for face in combinations(verts, len(verts) - 1):
                mask |= 1 << index[face]
        columns.append(mask)

    pivot_of_row = {}
    pairs = []  # (birth_index, death_index)
    unpaired_creators = set()
    for j, col in enumerate(columns):
        while col:
            low = col.bit_length() - 1
            other = pivot_of_row.get(low)
            if other is None:
                pivot_of_row[low] = j
                pairs.append((low, j))
                unpaired_creators.discard(low)
                break
            col ^= columns[other]
        else:
            unpaired_creators.add(j)

    by_degree = {d: [] for d in range(filtration.max_dim)}
    for i, j in pairs:
        dim = len(simplices[i][0]) - 1
        birth, death = simplices[i][1], simplices[j][1]
        if birth < death and dim in by_degree:
            by_degree[dim].append((birth, death))

    # Reduced homology: one essential vertex is the dropped [0, inf)
    # component.  Other essentials (impossible for VR below max_dim, but
    # legal for arbitrary filtrations) become infinite-death points.
    essential_dims = sorted(
        (len(simplices[i][0]) - 1, simplices[i][1]) for i in unpaired_creators
    )
    if not essential_dims or essential_dims[0][0] != 0:
        raise NonMonotoneFiltration("expected an essential component in degree 0")
    for d, birth in essential_dims[1:]:
        if d in by_degree:
            by_degree[d].append((birth, math.inf))

    return [
        Diagram(degree=d, points=tuple(sorted(by_degree[d])))
        for d in range(filtration.max_dim)
    ]


def vr_diagrams(matrix: DistanceMatrix, max_degree: int) -> list[Diagram]:
    """Convenience wrapper: diagrams for degrees 0 .. max_degree."""
    filtration = build_vr_filtration(matrix, max_dim=max_degree + 1)
    return reduce(filtration)


def vr_diagram(matrix: DistanceMatrix, degree: int) -> Diagram:
    """The single degree-``degree`` reduced diagram of the matrix."""
    return vr_diagrams(matrix, degree)[degree]
