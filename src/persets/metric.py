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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AxiomViolation, IndexOutOfRange, NonFinite, NotSquare

# Relative triangle-inequality tolerance.  Model-space distances go through
# arccos, which loses ~1e-16 absolute near +-1; 1e-9 * max entry absorbs that.
TRIANGLE_RTOL = 1e-9


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
    with a structured list of all offending entries otherwise.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or infinite entries")

    n = a.shape[0]
    violations = []
    for i, j in zip(*np.nonzero(a < 0)):
        violations.append(("negative", (int(i), int(j)), float(a[i, j])))
    for i in np.nonzero(np.diagonal(a) != 0)[0]:
        violations.append(("diagonal", (int(i), int(i)), float(a[i, i])))
    asym = a - a.T
    for i, j in zip(*np.nonzero(asym)):
        if i < j:
            violations.append(("asymmetry", (int(i), int(j)), float(abs(asym[i, j]))))

    if not violations:
        tol = TRIANGLE_RTOL * float(a.max(initial=0.0))
        # deficit(i, j, k) = d(i,k) - d(i,j) - d(j,k), positive means broken;
        # sweep the middle vertex to keep memory at O(n^2)
        for j in range(n):
            deficit = a - a[:, [j]] - a[[j], :]
            for i, k in zip(*np.nonzero(deficit > tol)):
                violations.append(
                    ("triangle", (int(i), int(j), int(k)), float(deficit[i, k]))
                )

    if violations:
        raise AxiomViolation(violations)
    out = a.copy()
    out.flags.writeable = False
    return DistanceMatrix(out)


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
# File formats: CSV (n rows of comma-separated decimals, no header) and
# JSON {"n": int, "d": flat row-major array}.
# ---------------------------------------------------------------------------

def read_matrix_csv(path) -> DistanceMatrix:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return validate(np.asarray(rows, dtype=float))


def write_matrix_csv(matrix: DistanceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix.entries:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix_json(path) -> DistanceMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    flat = np.asarray(doc["d"], dtype=float)
    if flat.size != n * n:
        raise NotSquare(f"flat array of length {flat.size} does not fill {n}x{n}")
    return validate(flat.reshape(n, n))


def write_matrix_json(matrix: DistanceMatrix, path) -> None:
    doc = {"n": matrix.n, "d": [float(v) for v in matrix.entries.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
