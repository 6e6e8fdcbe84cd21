"""Finite pseudo-metric spaces as distance matrices.

A DistanceMatrix is the universal input format of the package: symmetric,
nonnegative, zero diagonal, triangle inequality within a relative
tolerance.  Pseudo-metrics (zero off-diagonal entries from repeated
points) are accepted on purpose: the distance matrix of an index tuple
with repeats is exactly such a matrix.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import AxiomViolation, MalformedFile, NonFinite, NotSquare

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
    asymmetric pairs i < j, each row-major.  Only when none of these is
    found are the triangles checked, by one sweep over the pairs i <= k
    (_broken_triangles).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or infinite entries")

    violations, count = _entrywise(a)
    if not count:
        with np.errstate(over="ignore"):  # a deficit at -inf has a two-edge path beyond any double
            violations, count = _broken_triangles(a)

    if count:
        raise AxiomViolation(violations, count)
    out = a.copy()
    out.flags.writeable = False
    return DistanceMatrix(out)


def _entrywise(a: np.ndarray):
    """The first VIOLATIONS_LISTED negative, diagonal and asymmetric entries, and their count.

    Negative and asymmetric entries are found a block of about
    _SWEEP_ENTRIES entries at a time and the diagonal as one vector, and an
    amount is computed only for a listed entry, so no n x n temporary is made.
    """
    n = len(a)
    step = max(1, _SWEEP_ENTRIES // max(n, 1))
    listed, count = [], 0

    def add(kind, i, j):
        nonlocal count
        count += len(i)
        room = max(VIOLATIONS_LISTED - len(listed), 0)
        i, j = i[:room], j[:room]
        amount = np.abs(a[i, j] - a[j, i]) if kind == "asymmetry" else a[i, j]
        listed.extend(zip([kind] * len(i), zip(i.tolist(), j.tolist()), amount.tolist()))

    with np.errstate(over="ignore"):  # |a[i, j] - a[j, i]| may overflow to inf
        for r in range(0, n, step):
            i, j = np.nonzero(a[r:r + step] < 0)
            add("negative", i + r, j)
        diagonal = np.flatnonzero(np.diagonal(a) != 0)
        add("diagonal", diagonal, diagonal)
        for r in range(0, n, step):  # the pairs i < j of rows [r, r + step)
            i, j = np.nonzero(np.triu(a[r:r + step] != a[:, r:r + step].T, r + 1))
            add("asymmetry", i + r, j)
    return listed, count


def _broken_triangles(a: np.ndarray):
    """The first VIOLATIONS_LISTED broken triangles in (j, i, k) order, and their count.

    deficit(i, j, k) = (d(i,k) - d(i,j)) - d(j,k) for middle vertex j; above
    tol = TRIANGLE_RTOL * M (M the largest entry) means broken.  Row blocks
    [r, e), over columns k >= r so that i <= k, keep about _SWEEP_ENTRIES
    entries and go through one buffer per middle vertex.  As ``a`` is
    symmetric, the mirror (k, j, i) computes (d(i,k) - d(j,k)) - d(i,j), the
    same exact value, and each order is within 3u*M of it (u = eps/2: u*M
    from the first subtraction, 2u*M from the second) or overflows to -inf.
    So a (block, j) at or below bound = tol - 16*eps*M is clean in both
    orders; any other is counted against tol, and its mirrors with k >= e
    are credited to the block of row k.  The broken (j, block) pairs are
    then recomputed over full rows, in that order, until VIOLATIONS_LISTED
    triangles are listed.
    """
    n = a.shape[0]
    top = float(a.max(initial=0.0))
    tol = TRIANGLE_RTOL * top
    bound = tol - 16 * np.finfo(float).eps * top
    starts = [0]
    while starts[-1] < n:
        width = n - starts[-1]
        starts.append(starts[-1] + min(width, max(1, _SWEEP_ENTRIES // width)))
    copy, spare = np.empty((2, max(_SWEEP_ENTRIES, n)))
    broken = np.zeros((n, len(starts) - 1), dtype=np.int64)
    for b, (r, e) in enumerate(zip(starts, starts[1:])):
        block, out = (buf[:(e - r) * (n - r)].reshape(e - r, n - r) for buf in (copy, spare))
        np.copyto(block, a[r:e, r:])
        for j in range(n):
            np.subtract(block, a[j, r:e, None], out=out)  # d(i,j) = d(j,i)
            if np.subtract(out, a[j, r:], out=out).max() <= bound:
                continue
            broken[j, b] += np.count_nonzero(out > tol)
            if e < n:
                mirror = spare[:(e - r) * (n - e)].reshape(e - r, n - e)  # [i, k] = deficit(k, j, i)
                np.subtract(a[r:e, e:], a[j, e:], out=mirror)
                per_k = np.count_nonzero(np.subtract(mirror, a[j, r:e, None], out=mirror) > tol, axis=0)
                broken[j, b + 1:] += np.add.reduceat(per_k, np.subtract(starts[b + 1:-1], e))
    listed = []
    for j, b in zip(*np.nonzero(broken)):
        room = VIOLATIONS_LISTED - len(listed)
        if room <= 0:
            break
        r, e = starts[b], starts[b + 1]
        d = (a[r:e] - a[r:e, j, None]) - a[j]
        i, k = np.nonzero(d > tol)
        listed += [("triangle", (r + x, int(j), y), float(d[x, y]))
                   for x, y in zip(i[:room].tolist(), k[:room].tolist())]
    return listed, int(broken.sum())


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
# (repr, or the same bytes from _fixed) under an optional header, or one
# JSON object.  Distance matrices: CSV (n rows, no header).
# ---------------------------------------------------------------------------

_CSV_ROWS = 1 << 10  # rows formatted at a time: the arrays, lists and strings of a write stay near 220 KB
# repr writes [1e-4, 1e16) in fixed notation; _fixed takes the part with an integer part below 100
_FIXED = (1e-4, 100.0)
# with k of these at or below x, 10^(20 - k) x has 17 digits (each double is above its power of ten)
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1e0, 1e1])


def write_csv(path, *blocks, header=None) -> None:
    """2-D arrays side by side, one row per line ending in '\\n', each value ``repr`` of its ``tolist()``
    item: ``_CSV_ROWS`` rows at a time, by ``_fixed`` when the block is float64 inside ``_FIXED``, else
    by one ``%r`` template (``%r`` is ``repr``) over the interleaved columns."""
    if len({len(b) for b in blocks}) > 1:
        raise ValueError(f"blocks of {' and '.join(str(len(b)) for b in blocks)} rows cannot share lines")
    columns = sum(b.shape[1] for b in blocks)
    row = ",".join(["%r"] * columns) + "\n"
    floats = all(b.dtype == np.float64 for b in blocks)
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        for i in range(0, len(blocks[0]), _CSV_ROWS):
            part = [b[i:i + _CSV_ROWS] for b in blocks]
            values = np.concatenate(part, axis=1).ravel() if floats else None
            if floats and _FIXED[0] <= values.min() and values.max() < _FIXED[1]:
                fh.write(_fixed(values, columns)[1:] + b"\n")  # rows start with '\n', not end with it
            else:
                flat = chain.from_iterable(zip(*(c for b in part for c in b.T.tolist())))
                fh.write((row * len(part[0]) % tuple(flat)).encode())


@lru_cache(maxsize=None)
def _tables():
    """The byte tables of _fixed as uint32 words made from bytes, so no output depends on byte order:
    the 200 heads ``,II.`` or ``,<NUL>I.`` ('\\n' for ',' in the first 100), the 10,000 4-digit
    groups, and for each f <= 20 the masks that keep the last f of 20 digits (as (5, 21)); then by
    the _DECADES count k, the scale s = 20 - k and 5^s as uint64."""
    digit = np.frombuffer(b"0123456789", np.uint8)
    groups = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(10_000, 4)
    heads = np.empty((2, 100, 4), np.uint8)
    heads[..., 0] = np.frombuffer(b"\n,", np.uint8)[:, None]
    heads[..., 1:3] = groups[:100, 2:]
    heads[:, :10, 1] = 0
    heads[..., 3] = ord(".")
    masks = np.frombuffer(bytes(20) + b"\xff" * 20, np.uint8).take(np.arange(21)[:, None] + np.arange(20))
    scales = np.arange(20, 14, -1, dtype=np.uint64)
    fives = np.cumprod(np.array([1] + [5] * 20, np.uint64))[scales.view(np.int64)]
    return heads.view(np.uint32).ravel(), groups.view(np.uint32).ravel(), masks.view(np.uint32).T.copy(), fives, scales


def _fixed(x, columns) -> bytes:
    """The rows of ``repr`` values of x, row-major float64 in [1e-4, 100), each row led by '\\n'.

    A value is a head word with the integer part floor(x) (an integer below 100 is a double, so no
    other double's interval reaches it), then five words of 4 digits of d, right-aligned in 20, with
    all but its last f, the fraction, masked to NUL; ``translate`` then deletes the NULs.
    """
    heads, groups, masks, _, _ = _tables()
    d, f = _shortest(x)
    digits = np.empty((5, len(x)), np.uint64)
    for row in digits[::-1]:
        rest = d // 10_000
        np.subtract(d, rest * 10_000, out=row)
        d = rest
    del d, rest
    whole = x.astype(np.uint64).reshape(-1, columns)
    whole[:, 1:] += 100  # ',' in place of '\n'
    canvas = np.empty((6, len(x)), np.uint32)  # value-major once transposed
    heads.take(whole.view(np.int64), out=canvas[0].reshape(whole.shape), mode="clip")
    groups.take(digits.view(np.int64), out=canvas[1:], mode="clip")
    del digits, whole
    canvas[1:] &= masks.take(f.view(np.int64), axis=1)
    text = canvas.T.tobytes()
    del canvas
    return text.translate(None, b"\0")


def _shortest(x):
    """(d, f), uint64, with d / 10^f, 1 <= f <= 20, the decimal ``repr`` gives each x in [1e-4, 100).

    Shortest-interval digits (Ryu: Adams, PLDI 2018), which are the dtoa mode-0 digits of repr.  At
    a scale 10^s that gives 10^s x 17 digits, x = m 2^e gives 10^s x = 4m 5^s / 2^(r + 2) exactly,
    in two limbs, and the reals that round to x lie within 2 5^s / 2^(r + 2) of it.  (Below a power
    of two only half as far, but a power of two in range is a decimal of 10 digits at most, so its
    repr is itself.)  These ends are never integers (4m +- 2 has one factor 2), so a digit dropped
    is a division by 10, and the candidate nearest x is inside whenever one is.  The fewest digits
    win, nearest x, half to even; past two dropped, one candidate is left, and the last fraction
    digit is never dropped.  Every operand is uint64: an int64 one would make float64.
    """
    _, _, _, fives, scales = _tables()
    k = np.searchsorted(_DECADES, x, side="right")
    f, p = scales.take(k), fives.take(k)  # s and 5^s
    bits = x.view(np.uint64)
    r = 1075 - (bits >> 52) - f  # 10^s x = m 5^s / 2^r, 31 <= r <= 46
    m = bits & ((1 << 52) - 1) | (1 << 52)
    ml, mh, pl, ph = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    mid = mh * pl + ml * ph
    ml *= pl
    mh *= ph
    mh += mid >> 32
    mid <<= 32
    mid += ml
    mh += mid < ml  # the carry: m 5^s = mh 2^64 + mid
    del m, ml, pl, ph
    q = (mh << (64 - r)) | (mid >> r)  # floor(10^s x)
    rest = (mid << (64 - r)) >> (62 - r)  # (10^s x - q) 2^(r + 2)
    del mh, mid
    r += 2
    p <<= 1  # the half-gap
    top = q + ((rest + p) >> r)  # the largest integer inside
    bottom = q + (((16 << r) + rest - p) >> r) - 15  # the least integer inside
    d = q + (rest + (q & 1) > (1 << (r - 1)))  # no digit dropped: the nearest integer
    del p, r
    low, high = (bottom + 9) // 10, top // 10  # the candidates with one digit dropped
    del bottom, top
    more = low <= high
    np.copyto(d, (q + 4 + ((rest | (q // 10 & 1)) != 0)) // 10, where=more)  # half to even: x > q if rest
    del q, rest
    f -= more
    low, high = (low + 9) // 10, high // 10
    more = low <= high
    np.copyto(d, low, where=more)
    f -= more
    more = np.flatnonzero(more)
    low, high, fraction = low[more], high[more], f[more]
    while more.size:  # short decimals: drop while a candidate is left, and a fraction digit
        low, high = (low + 9) // 10, high // 10
        keep = np.flatnonzero((low <= high) & (fraction > 1))
        more, low, high, fraction = more[keep], low[keep], high[keep], fraction[keep] - 1
        d[more], f[more] = low, fraction
    return d, f


# suffixes by which numpy, given a path, picks a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_csv(path, header=None) -> np.ndarray:
    """The float table of a CSV under ``header``, if given; MalformedFile if it does not parse.

    Every file is read as UTF-8 text, whatever its name.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if header is not None and fh.readline().strip() != header:
                raise MalformedFile(f"expected the header {header!r} in {path}")
            fh.seek(0)
            # given a path, not a handle, numpy reads the file in blocks rather than by
            # lines, but it would decompress a name with a compressed suffix
            source = fh if str(path).endswith(_COMPRESSED) else path
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a table may have no rows
                table = np.loadtxt(source, delimiter=",", ndmin=2, comments=None,
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
