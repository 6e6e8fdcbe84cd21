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
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import AxiomViolation, IndexOutOfRange, MalformedFile, NonFinite, NotSquare

# Relative triangle-inequality tolerance.  Model-space distances go through
# arccos, which loses ~1e-16 absolute near +-1; 1e-9 * max entry absorbs that.
TRIANGLE_RTOL = 1e-9
# Violations listed in an AxiomViolation, of every kind together; the rest are only counted.
VIOLATIONS_LISTED = 1000
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
    otherwise.  It counts every violation and lists the first
    VIOLATIONS_LISTED: negative entries, then diagonal ones, then
    asymmetric pairs i < j, each row-major; broken triangles are swept
    only when none of these is found.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or infinite entries")

    violations, count = _entrywise(a)
    if not count:
        # a deficit that overflows to -inf has a two-edge path beyond any
        # double: no violation
        with np.errstate(over="ignore"):
            top = float(a.max(initial=0.0))
            if not _half_clean(a, TRIANGLE_RTOL * top - 16 * np.finfo(float).eps * top):
                violations, count = _triangles(a, TRIANGLE_RTOL * top)

    if count:
        raise AxiomViolation(violations, count)
    out = a.copy()
    out.flags.writeable = False
    return DistanceMatrix(out)


def _entrywise(a: np.ndarray):
    """The first VIOLATIONS_LISTED negative, diagonal and asymmetric entries, and their count.

    A function of its own so that its n x n masks are freed before the
    triangle sweep: held across it, they slowed a later FiniteSpace
    campaign on the same matrix by up to half.
    """
    with np.errstate(over="ignore"):  # |a - a.T| may overflow to inf
        kinds = (("negative", a < 0, a),
                 ("diagonal", np.diagflat(np.diagonal(a) != 0), a),
                 ("asymmetry", np.triu(a != a.T, 1), np.abs(a - a.T)))
    listed, count = [], 0
    for kind, broken, amount in kinds:
        i, j = np.nonzero(broken)
        count += len(i)
        room = max(VIOLATIONS_LISTED - len(listed), 0)
        i, j = i[:room], j[:room]
        listed += zip([kind] * len(i), zip(i.tolist(), j.tolist()), amount[i, j].tolist())
    return listed, count


def _half_clean(a: np.ndarray, bound: float) -> bool:
    """True if no deficit (d(i,k) - d(i,j)) - d(j,k) with i <= k exceeds ``bound``.

    For symmetric ``a`` the mirrored triple (k, j, i) computes (d(i,k) -
    d(j,k)) - d(i,j), the same exact value.  With entries in [0, M], each
    order is within 3u*M of it (u = eps/2: u*M from the first subtraction,
    2u*M from the second) or overflows to -inf, so the two differ by at
    most 3*eps*M: for bound = tol - 16*eps*M, True proves that the full
    sweep finds no deficit above tol.  Row blocks [r, r+rows) are copied
    over columns k >= r, rows growing as the width n - r shrinks so that a
    block keeps about _SWEEP_ENTRIES entries.
    """
    n = a.shape[0]
    bufs = np.empty((2, max(_SWEEP_ENTRIES, n)))
    r = 0
    while r < n:
        width = n - r
        rows = min(width, max(1, _SWEEP_ENTRIES // width))
        block, out = (buf[:rows * width].reshape(rows, width) for buf in bufs)
        np.copyto(block, a[r:r + rows, r:])
        for j in range(n):
            np.subtract(block, a[j, r:r + rows, None], out=out)  # d(i,j) = d(j,i)
            if np.subtract(out, a[j, r:], out=out).max() > bound:
                return False
        r += rows
    return True


def _triangles(a: np.ndarray, tol: float):
    """The first VIOLATIONS_LISTED broken triangles in (j, i, k) order, and their count.

    deficit(i, j, k) = (d(i,k) - d(i,j)) - d(j,k) for middle vertex j;
    above ``tol`` means broken.  Each row block of _SWEEP_ENTRIES entries
    goes through one buffer once per middle vertex, and only the count of
    each (j, block) is kept; a second pass recomputes the broken (j, block)
    pairs in that order until VIOLATIONS_LISTED triangles are listed.
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
        room = VIOLATIONS_LISTED - len(listed)
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
    """2-D arrays side by side, one row per line, each value ``repr`` of its ``tolist()`` item:
    ``_CSV_ROWS`` rows at a time, one ``%r`` template (``%r`` is ``repr``) over the interleaved columns."""
    if len({len(b) for b in blocks}) > 1:
        raise ValueError(f"blocks of {' and '.join(str(len(b)) for b in blocks)} rows cannot share lines")
    row = ",".join(["%r"] * sum(b.shape[1] for b in blocks)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for i in range(0, len(blocks[0]), _CSV_ROWS):
            columns = [c for b in blocks for c in b[i:i + _CSV_ROWS].T.tolist()]
            fh.write(row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns))))


def read_csv(path, header=None) -> np.ndarray:
    """The float table of a CSV under ``header``, if given; MalformedFile if it does not parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if header is not None and fh.readline().strip() != header:
                raise MalformedFile(f"expected the header {header!r} in {path}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table may have no rows
            # given a path, not a handle, numpy reads the file in blocks rather than by lines
            table = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                               skiprows=0 if header is None else 1, encoding="utf-8")
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


def number(value) -> float:
    """A JSON number as a float; ValueError for a string, a boolean, null or
    an integer beyond the doubles."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("expected a number, got an integer beyond the doubles") from None


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
    doc = read_json(path, {"n": whole, "d": lambda d: np.array([number(x) for x in d], dtype=float)})
    n, flat = doc["n"], doc["d"]
    if n < 0 or flat.size != n * n:
        raise NotSquare(f"flat array of length {flat.size} does not fill {n}x{n}")
    return validate(flat.reshape(n, n))


def write_matrix_json(matrix: DistanceMatrix, path) -> None:
    write_json(path, {"n": matrix.n, "d": matrix.entries.ravel().tolist()})
