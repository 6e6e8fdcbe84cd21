"""Finite pseudo-metric spaces as distance matrices.

A DistanceMatrix is the universal input format of the package: symmetric,
nonnegative, zero diagonal, triangle inequality within a relative
tolerance.  Pseudo-metrics (zero off-diagonal entries from repeated
points) are accepted on purpose: restricting a matrix to an index tuple
with repeats produces exactly such matrices.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AxiomViolation, IndexOutOfRange, MalformedFile, NonFinite, NotSquare

# Relative triangle-inequality tolerance.  Model-space distances go through
# arccos, which loses ~1e-16 absolute near +-1; 1e-9 * max entry absorbs that.
TRIANGLE_RTOL = 1e-9
# Triangle violations listed in an AxiomViolation; the rest are only counted.
TRIANGLES_LISTED = 1000
# Entries per row block of the triangle sweep (256 KB of float64, cache-resident).
_SWEEP_ENTRIES = 1 << 15


@dataclass(frozen=True)
class DistanceMatrix:
    """Validated n x n pseudo-metric matrix.  Treat ``entries`` as read-only."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, ij):
        return self.entries[ij]


@dataclass(frozen=True)
class MetricStats:
    diameter: float
    radius: float
    separation: float


def validate(matrix) -> DistanceMatrix:
    """Check the pseudo-metric axioms and wrap the matrix.

    Raises NotSquare / NonFinite for malformed input and AxiomViolation
    otherwise: it lists every offending entry, except that it lists only
    the first TRIANGLES_LISTED broken triangles and counts the rest.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or infinite entries")

    violations = []
    for i, j in zip(*np.nonzero(a < 0)):
        violations.append(("negative", (int(i), int(j)), float(a[i, j])))
    for i in np.nonzero(np.diagonal(a) != 0)[0]:
        violations.append(("diagonal", (int(i), int(i)), float(a[i, i])))
    asym = a - a.T
    for i, j in zip(*np.nonzero(asym)):
        if i < j:
            violations.append(("asymmetry", (int(i), int(j)), float(abs(asym[i, j]))))
    count = len(violations)

    if not violations:
        # a deficit that overflows to -inf has a two-edge path beyond any
        # double: no violation
        with np.errstate(over="ignore"):
            violations, count = _triangles(a, TRIANGLE_RTOL * float(a.max(initial=0.0)))

    if count:
        raise AxiomViolation(violations, count)
    out = a.copy()
    out.flags.writeable = False
    return DistanceMatrix(out)


def _triangles(a: np.ndarray, tol: float):
    """The first TRIANGLES_LISTED broken triangles in (j, i, k) order, and their count.

    deficit(i, j, k) = (d(i,k) - d(i,j)) - d(j,k) for middle vertex j;
    above ``tol`` means broken.  Each row block of _SWEEP_ENTRIES entries
    goes through one buffer once per middle vertex, and only the count of
    each (j, block) is kept; a second pass recomputes the broken (j, block)
    pairs in that order until TRIANGLES_LISTED triangles are listed.
    """
    n = a.shape[0]
    rows = max(1, _SWEEP_ENTRIES // max(n, 1))
    starts = range(0, n, rows)
    buf = np.empty((min(rows, n), n))

    def deficits(r, j):
        block = a[r:r + rows]
        out = buf[:len(block)]
        np.subtract(block, block[:, j:j + 1], out=out)
        return np.subtract(out, a[j], out=out)

    broken = np.zeros((n, len(starts)), dtype=np.int64)
    for b, r in enumerate(starts):
        for j in range(n):
            d = deficits(r, j)
            if d.max() > tol:
                broken[j, b] = np.count_nonzero(d > tol)
    listed = []
    for j, b in zip(*np.nonzero(broken)):
        room = TRIANGLES_LISTED - len(listed)
        if room <= 0:
            break
        d = deficits(starts[b], j)
        i, k = np.nonzero(d > tol)
        for x, y in zip(i[:room].tolist(), k[:room].tolist()):
            listed.append(("triangle", (starts[b] + x, int(j), y), float(d[x, y])))
    return listed, int(broken.sum())


def restrict(matrix: DistanceMatrix, indices: Sequence[int]) -> DistanceMatrix:
    """Submatrix at an index tuple, repeats allowed.

    This realizes the map sending an n-tuple of points to its distance
    matrix; repeated indices give zero off-diagonal rows (a pseudo-metric).
    Axioms are hereditary, so no re-validation is needed.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1:
        raise IndexOutOfRange("indices must be a flat tuple")
    if idx.size and (idx.min() < 0 or idx.max() >= matrix.n):
        raise IndexOutOfRange(f"index out of range for size-{matrix.n} matrix")
    sub = matrix.entries[np.ix_(idx, idx)].copy()
    sub.flags.writeable = False
    return DistanceMatrix(sub)


def condensed(entries) -> np.ndarray:
    """The i < j entries of matrices (..., n, n), in triu_indices order: (pairs, ...)."""
    entries = np.asarray(entries)
    i, j = np.triu_indices(entries.shape[-1], 1)
    return np.moveaxis(entries[..., i, j], -1, 0)


def squareform(pairs, n: int) -> np.ndarray:
    """Symmetric zero-diagonal matrices (..., n, n) from a pair list (pairs, ...)."""
    pairs = np.asarray(pairs)
    i, j = np.triu_indices(n, 1)
    out = np.zeros(pairs.shape[1:] + (n, n), dtype=pairs.dtype)
    out[..., i, j] = out[..., j, i] = np.moveaxis(pairs, 0, -1)
    return out


def stats(matrix: DistanceMatrix) -> MetricStats:
    """Diameter, radius and separation of the finite space.

    separation is +inf for a single point (vacuous infimum), which keeps
    the persistence bound t_d - t_b <= sep monotone downstream.
    """
    a = matrix.entries
    n = matrix.n
    diameter = float(a.max()) if n else 0.0
    radius = float(a.max(axis=1).min()) if n else 0.0
    if n <= 1:
        separation = math.inf
    else:
        off = a[~np.eye(n, dtype=bool)]
        separation = float(off.min())
    return MetricStats(diameter=diameter, radius=radius, separation=separation)


# ---------------------------------------------------------------------------
# File formats: CSV rows of comma-separated shortest round-trip decimals
# (repr) under an optional header, or one JSON object.  Distance matrices:
# CSV (n rows, no header) or JSON {"n": int, "d": flat row-major array}.
# ---------------------------------------------------------------------------

_CSV_ROWS = 1 << 14  # rows formatted at a time; bounds the Python lists of a write


def write_csv(path, *blocks, header=None) -> None:
    """2-D arrays side by side, one row per line, each value ``repr`` of its ``tolist()`` item."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for i in range(0, len(blocks[0]), _CSV_ROWS):
            cells = [[",".join(map(repr, row)) for row in b[i:i + _CSV_ROWS].tolist()] for b in blocks]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_csv(path, header=None) -> np.ndarray:
    """The float table of a CSV under ``header``, if given; MalformedFile if it does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            if header is not None and fh.readline().strip() != header:
                raise MalformedFile(f"expected the header {header!r} in {path}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a table may have no rows
                table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise MalformedFile(f"malformed CSV {path}: {exc}") from None
    columns = table.shape[1] if header is None else header.count(",") + 1
    if table.size and table.shape[1] != columns:
        raise MalformedFile(f"{path} has {table.shape[1]} columns under {header!r}")
    return table.reshape(-1, columns)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def whole(value) -> int:
    """A JSON whole number as an int; ValueError for a fraction, a string or a boolean."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def read_json(path, fields: dict) -> dict:
    """{key: convert(value)} of the JSON object in ``path`` for each ``key: convert`` of
    ``fields``; MalformedFile if it does not parse, lacks a key or a converter fails."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            return {key: convert(doc[key]) for key, convert in fields.items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"malformed JSON {path}: {exc!r}") from None


def read_matrix_csv(path) -> DistanceMatrix:
    return validate(read_csv(path))


def write_matrix_csv(matrix: DistanceMatrix, path) -> None:
    write_csv(path, matrix.entries)


def read_matrix_json(path) -> DistanceMatrix:
    doc = read_json(path, {"n": whole, "d": lambda d: np.asarray(d, dtype=float)})
    n, flat = doc["n"], doc["d"]
    if n < 0 or flat.size != n * n:
        raise NotSquare(f"flat array of length {flat.size} does not fill {n}x{n}")
    return validate(flat.reshape(n, n))


def write_matrix_json(matrix: DistanceMatrix, path) -> None:
    write_json(path, {"n": matrix.n, "d": matrix.entries.ravel().tolist()})
