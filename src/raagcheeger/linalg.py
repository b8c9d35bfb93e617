"""Exact subspaces over a field, plus the subspace enumeration stream used
by the brute-force oracles.

Subspaces are canonicalized by the reduced row echelon form of their row
space, so equality, hashing and deduplication are structural and the
minimizers reported by the oracles are reproducible.  Enumeration order is
fixed: pivot-column sets lexicographically, then free entries filled
lexicographically.  The one subspace stream names each RREF row by its row
in :func:`projective_points`; both kernels of the exhaustive scan read it,
the zero-set kernel of :mod:`raagcheeger.zerosets` as it is and the rank
kernel of :mod:`raagcheeger.pairing` after completing each subspace's rows
to a basis of the whole space.  Every part of the stream is read from one
smaller stream, that of GF(p)^{n-1} in dimension k - 1, and every stream
is built lazily, batch by batch, as it is read: a scan of a stack of
triples reads it once for the whole stack.  The projective points of GF(p)^n
and their codes, which the q-valence min-max and both kernels index by, are
built once per (n, p) in small lru caches, and so is the q-valence
min-max's frame of hyperplanes and projective bases.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets, gaussian_binomial
from .fields import Field, Scalar


class LinalgError(ValueError):
    """Shape or field mismatch, or an unusable enumeration request."""


class _Echelon:
    """Incremental reduced-row-echelon accumulator over a fixed field.

    Rows are kept fully back-reduced and sorted by pivot column, so the row
    list is at all times the canonical RREF basis of the span of everything
    inserted so far.
    """

    __slots__ = ("rows", "pivots", "_p")

    def __init__(self, field: Field):
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._p = field.characteristic

    def residual(self, row: Sequence[Scalar]) -> list:
        """Reduce ``row`` against the accumulated rows; zero iff row is in the span."""
        out = list(row)
        p = self._p
        if p:
            for r, c in zip(self.rows, self.pivots):
                f = out[c]
                if f:
                    out = [(a - f * b) % p for a, b in zip(out, r)]
        else:
            for r, c in zip(self.rows, self.pivots):
                f = out[c]
                if f:
                    out = [a - f * b for a, b in zip(out, r)]
        return out

    def insert(self, row: Sequence[Scalar]) -> bool:
        """Insert a row; return True iff it enlarged the span."""
        row = self.residual(row)
        lead = -1
        for c, v in enumerate(row):
            if v:
                lead = c
                break
        if lead < 0:
            return False
        p = self._p
        v = row[lead]
        if p:
            if v != 1:
                f = pow(v, p - 2, p)
                row = [(a * f) % p for a in row]
            for i, r in enumerate(self.rows):
                f = r[lead]
                if f:
                    self.rows[i] = [(a - f * b) % p for a, b in zip(r, row)]
        else:
            if v != 1:
                row = [a / v for a in row]
            for i, r in enumerate(self.rows):
                f = r[lead]
                if f:
                    self.rows[i] = [a - f * b for a, b in zip(r, row)]
        pos = bisect_left(self.pivots, lead)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, lead)
        return True


@dataclass(frozen=True)
class Subspace:
    """A subspace of L^n held as its canonical RREF basis (no zero rows).

    Two subspaces are equal iff their spans are equal iff the dataclasses
    compare equal.  Direct construction trusts the caller to pass RREF rows;
    use :meth:`from_vectors` for arbitrary generating sets.
    :func:`~raagcheeger.pairing.cheeger_of_subspace` refuses a basis that is
    not canonical.
    """

    field: Field
    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Iterable[Iterable]) -> "Subspace":
        ech = _Echelon(field)
        for v in vectors:
            row = [field.element(x) for x in v]
            if len(row) != ambient_dim:
                raise LinalgError(f"vector of length {len(row)} in ambient dimension {ambient_dim}")
            ech.insert(row)
        return Subspace(field, ambient_dim, tuple(tuple(r) for r in ech.rows))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        f = self.field
        return {
            "ambient": self.ambient_dim,
            "basis": [[f.serialize_scalar(v) for v in row] for row in self.basis],
        }

    @staticmethod
    def from_json_dict(field: Field, data: dict) -> "Subspace":
        return Subspace.from_vectors(field, data["ambient"], data["basis"])


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce an integer or object array mod p in place and return it.

    Computed as x - p * (x // p): numpy vectorizes floor division of integers
    by a scalar but runs ``%`` element by element (on a (256, 5, 18) int8
    array, 3 µs against 120 µs on a shared 2-vCPU machine).  p * (x // p)
    lies in [x - p + 1, x], so for x >= -(p - 1)^2 it stays at or above
    -p * (p - 1).
    """
    x -= p * (x // p)
    return x


def int_type(bound: int):
    """The narrowest numpy integer type holding every integer in
    [-bound, bound], or ``object`` (Python ints) past int64."""
    return next(
        (t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max), object
    )


@lru_cache(maxsize=16)
def product_types(n: int, p: int) -> tuple:
    """(dtype, ptype) for exact products of n terms below (p - 1)^2 over
    GF(p), or over QQ at p = 0: the narrowest integer type holding
    n * (p - 1)^2 (object past int64 and over QQ), and the type the products
    run in, float32 while that bound is below 2^24 and float64 while it is
    below 2^53, where every integer up to it is a float, else the integer
    type itself."""
    bound = n * (p - 1) ** 2
    dtype = int_type(bound) if p else object
    ptype = dtype if not p or bound >= 2**53 else np.float32 if bound < 2**24 else np.float64
    return dtype, ptype


def _column_ranks(cols: np.ndarray, k: int, p: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a batch of matrices given column by column,
    shape (B, columns, rows), that only counts rank: (rank of all columns,
    rank of the first k columns) per matrix.  The entries are integers, in
    any numeric type; they are reduced mod p into ``dtype`` first.

    A column's pivot row is its first row with a nonzero entry there; the
    pivot row clears that entry from every row, itself included, so no row
    is a pivot twice.  Over GF(2) (with fewer than 64 columns) each row is
    packed into an integer and cleared by XOR.  Otherwise the pivot row,
    with lead its entry in the column, clears the columns right of it as
    rest <- lead * rest - column * pivot_row, fraction-free: scaling a row
    by a nonzero lead changes no rank.  Residues are reduced mod p after
    each step; lead * rest - column * pivot_row lies in
    [-(p - 1)^2, (p - 1)^2], where p * (x // p) reaches -p * (p - 1), and
    both bounds are at most n * (p - 1)^2 in size for n >= 2, so the integer
    type of :func:`product_types` holds every intermediate.  Over QQ the
    entries are Python ints, and each step divides exactly by the previous
    pivot (Bareiss 1968), so every entry stays a minor of the input.
    """
    count, n, rows = cols.shape
    at = np.arange(count)
    rank = np.zeros(count, np.int64)
    restricted = rank  # becomes a copy once the first k columns are done
    if not rows:
        return rank, restricted
    if p == 2 and n < 64:
        bits = (1 << np.arange(n)).astype(np.int8 if n < 8 else np.int64)
        packed = np.einsum("j,bjr->br", bits, reduce_mod(cols.astype(dtype), 2))
        for c in range(n):
            if c == k:
                restricted = rank.copy()
            has = (packed & bits[c]) != 0
            pivot = has.argmax(axis=1)
            rank += has[at, pivot]
            if c + 1 == n:
                break
            packed ^= has * packed[at, pivot][:, None]
        return rank, restricted
    # with the batch axis last every step is a few numpy calls over
    # contiguous blocks of B entries; pivots are flat positions in a
    # (rows, B) block, and np.take keeps its results C-contiguous where
    # fancy indexing would return them transposed
    block = np.empty((n, rows, count), dtype)
    np.copyto(block.transpose(2, 0, 1), cols, casting="unsafe")
    if p:
        reduce_mod(block, p)
    else:
        divisor = np.ones(count, dtype=object)
    for c in range(n):
        if c == k:
            restricted = rank.copy()
        column = block[c]
        at_pivot = (column != 0).argmax(axis=0) * count + at
        lead = np.take(column, at_pivot)
        found = lead != 0
        rank += found
        if c + 1 == n:
            break
        # column c is not read again, so only the columns right of it change
        rest = block[c + 1 :]
        pivot_row = np.take(rest.reshape(n - c - 1, rows * count), at_pivot, axis=1)
        rest *= np.where(found, lead, 1)
        rest -= pivot_row[:, None, :] * column
        if p:
            reduce_mod(rest, p)
        else:
            # a column without a pivot changes nothing, so nothing is divided
            rest //= np.where(found, divisor, 1)
            divisor = np.where(found, lead, divisor)
    return rank, restricted



@lru_cache(maxsize=8)
def projective_points(n: int, p: int) -> np.ndarray:
    """The projective points of GF(p)^n, the vectors whose first nonzero
    entry is 1, as a read-only (points, n) int64 array in lexicographic
    order: those with the leading 1 last come first, each block
    (0, .., 0, 1, tail) ordered by its tail, the base-p digits of the tail's
    index.  Block w, of the points with w entries after the leading 1,
    starts at row (p^w - 1)/(p - 1) with the unit vector e_{n-1-w}."""
    blocks = []
    for lead in reversed(range(n)):
        width = n - 1 - lead
        block = np.zeros((p**width, n), dtype=np.int64)
        block[:, lead] = 1
        digits = np.arange(p**width)[:, None] // p ** np.arange(width - 1, -1, -1)
        block[:, lead + 1 :] = reduce_mod(digits, p)
        blocks.append(block)
    points = np.concatenate(blocks) if n else np.zeros((0, 0), np.int64)
    points.flags.writeable = False
    return points


@lru_cache(maxsize=8)
def point_codes(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(powers, index, dims) for GF(p)^n: a vector's code is its residues
    read as a base-p number, v @ powers, an exact intp product;
    index[code] is the row of a projective point in
    :func:`projective_points`; dims[(p^d - 1)/(p - 1)] is d, as int8, the
    dimension of a subspace with that many projective points."""
    points = projective_points(n, p)
    powers = p ** np.arange(n - 1, -1, -1, dtype=np.intp)
    index = np.zeros(p**n, np.intp)
    index[points @ powers] = np.arange(len(points))
    dims = np.zeros(len(points) + 1, np.int8)
    dims[(p ** np.arange(n + 1) - 1) // (p - 1)] = np.arange(n + 1)
    return powers, index, dims


@lru_cache(maxsize=8)
def projective_frame(n: int, p: int, chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, outside, bases) for GF(p)^n: the projective points of
    :func:`projective_points`; outside[h, x] = (h . x != 0), reading point h
    as the normal of a hyperplane; and every projective basis as a row of n
    point indices, the n-subsets no hyperplane holds, tested in steps of at
    most ``chunk`` one-byte entries.
    """
    points = projective_points(n, p)
    outside = reduce_mod(points @ points.T, p) != 0
    combos = itertools.combinations(range(len(points)), n)
    step = max(1, chunk // (len(points) * n))
    bases = []
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, step)), dtype=np.intp
        ).reshape(-1, n)
        if not len(block):
            break
        # outside is symmetric, so outside[block.T][j, c, h] says point j of
        # combination c lies off hyperplane h
        bases.append(block[outside[block.T].any(axis=0).all(axis=1)])
    return points, outside, np.concatenate(bases)


def popcount(x: np.ndarray, n: int) -> np.ndarray:
    """Entrywise popcount, as uint8, of nonnegative int64 or uint64 masks of
    at most n bits, and of Python ints, by int.bit_count, on object arrays.
    The package's one choice of how to count: ``numpy.bitwise_count`` where
    numpy has it (2.0 on), else, on numpy 1.x, lookups of 12 bits at a time
    in a table."""
    if x.dtype == object:
        return np.frompyfunc(int.bit_count, 1, 1)(x)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    table = _popcount_table()
    if n <= 12:
        return table[x]
    counts = table[x & 0xFFF]
    for shift in range(12, n, 12):
        counts += table[(x >> shift) & 0xFFF]
    return counts


@lru_cache(maxsize=None)
def _popcount_table() -> np.ndarray:
    """Popcounts of 0..4095, as sums over their three 4-bit digits."""
    digit = np.array([bin(v).count("1") for v in range(16)], np.uint8)
    return np.add.outer(np.add.outer(digit, digit), digit).ravel()


def enumerate_subspaces(
    ambient_dim: int,
    dims: Iterable[int],
    field: Field,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream every subspace of each requested dimension exactly once, in batches.

    Yields ``(k, points)``: ``points[b, r]`` is the row of
    :func:`projective_points` holding row r of the canonical RREF basis of
    the b-th k-dimensional subspace F, in the narrowest integer type that
    indexes every point.  The stream is deterministic: dimensions
    ascending, then pivot-column sets in lexicographic order, then all
    fillings of the free entries in lexicographic order.  A batch holds
    consecutive subspaces of one dimension, may span several pivot sets
    and takes at most :data:`POINT_BATCH_BYTES`.  A field that is not
    prime, or a request past the budgets (see
    :meth:`Budgets.check_subspaces`), is refused by the call, before any
    work, and a space of more vectors than a numpy array indexes at the
    first batch.

    Each batch is built as it is read, a new array.  The stream of
    dimension k of GF(p)^n is read from the (n - 1, k - 1) stream
    (:func:`_pieces`): the subspaces whose first pivot is column c are row
    0's p^(n-k-c) fills times the tail of that stream that is the
    (n - 1 - c, k - 1) stream.  The (n - 1, k - 1) stream is built whole,
    as one batch, for the dimension that reads it, and held while that
    dimension streams.
    """
    n = ambient_dim
    if not field.is_prime_field:
        raise LinalgError("non-enumerable field: subspace enumeration needs a prime field")
    dims = sorted(set(dims))
    budgets.check_subspaces(field, n, dims)
    for k in dims:
        if k < 0 or k > n:
            raise LinalgError(f"requested dimension {k} outside [0, {n}]")
    return _dimensions(n, dims, field.characteristic)


def _dimensions(n: int, dims: list[int], p: int) -> Iterator[tuple[int, np.ndarray]]:
    """The batches of :func:`enumerate_subspaces`, dimension by dimension."""
    check_indexable(n, p)
    for k in dims:
        most = max(1, POINT_BATCH_BYTES // (max(k, 1) * _point_type(n, p).itemsize))
        for points in _point_batches(n, k, p, most):
            yield k, points


def check_indexable(n: int, p: int) -> None:
    """Refuse GF(p)^n where its vectors are more than a numpy array indexes,
    as the point stream does at its first batch."""
    if p**n > sys.maxsize:
        raise LinalgError(f"gf{p}^{n} has more vectors than a numpy array can index")


POINT_BATCH_BYTES = 1 << 14
"""Largest batch of :func:`enumerate_subspaces`, in bytes.  Each batch is
written at its own size from the pieces that fit, so the stream holds the
batch being written beside the one its reader has."""


@lru_cache(maxsize=16)
def _point_type(n: int, p: int) -> np.dtype:
    """The narrowest integer type indexing every projective point of GF(p)^n."""
    return np.dtype(int_type((p**n - 1) // (p - 1)))


def _point_batches(n: int, k: int, p: int, most: int) -> Iterator[np.ndarray]:
    """The batches of :func:`enumerate_subspaces` for one dimension k,
    of at most ``most`` subspaces, each written at its own size from the
    pieces (:func:`_pieces`) that fit."""
    dtype = _point_type(n, p)
    if not k:
        yield np.zeros((1, 0), dtype)
        return
    pieces, count = [], 0
    for row0, rows in _pieces(n, k, p, most):
        size = len(row0) * len(rows)
        if count + size > most:
            yield _write(np.empty((count, k), dtype), pieces)
            pieces, count = [], 0
        pieces.append((row0, rows))
        count += size
    yield _write(np.empty((count, k), dtype), pieces)


def _pieces(n: int, k: int, p: int, most: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (n, k) stream, 0 < k <= n, in order, as pieces (row0, rows) of at
    most ``most`` subspaces: subspace (f, j) of a piece has row 0 at point
    row0[f] and rows 1.. at rows[j].

    The subspaces whose first pivot is column n - m, m = n, n - 1, .., k, are
    those of GF(p)^m with a pivot at column 0: point indices do not change
    when leading zeros are dropped.  Their rows 1.. run through the
    (m - 1, k - 1) stream, the tail of the (n - 1, k - 1) one, one pivot set
    at a time; under each pivot set row 0 runs through its p^(m-k) fills
    (:func:`_groups`), and each fill takes the whole group.  A piece holds
    as many fills as fit, or a slice of a group past ``most`` under one fill.
    The whole (n - 1, k - 1) stream is held while the dimension streams: at
    most 35 KB (GF(2)^7 in dimension 3) in the scans up to n/2 that the
    default budget admits, 4.7 MB for dimension 4 of GF(2)^10 past it.
    """
    # one batch of the whole (n - 1, k - 1) stream
    (sub,) = _point_batches(n - 1, k - 1, p, sys.maxsize)
    sub_sizes = _groups(n - 1, k - 1, p)[0]
    for m in range(n, k - 1, -1):
        sizes = sub_sizes[-math.comb(m - 1, k - 1) :]
        heads = _groups(m, k, p)[1]
        start = len(sub) - gaussian_binomial(m - 1, k - 1, p)
        for group, size in enumerate(sizes.tolist()):
            rows = sub[start : start + size]
            start += size
            step = max(1, most // size)
            for f in range(0, len(heads), step):
                for j in range(0, size, most):
                    yield heads[f : f + step, group], rows[j : j + most]


@lru_cache(maxsize=64)
def _groups(n: int, k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, heads) for the (n, k) stream, 0 <= k <= n: sizes[g] is the
    size p^free of its g-th pivot set, and heads[f, g] the point index of
    row 0 = e_0 + the f-th fill of the columns off the g-th pivot set Q of
    the (n - 1, k - 1) stream, the first free column most significant.

    Both follow the recursion [n, k] = p^(n-k) [n-1, k-1] + [n-1, k] of
    the stream: the groups are those of the leading part, whose pivot sets
    hold column 0, p^(n-k) times those of (n - 1, k - 1), then those of
    (n - 1, k).  The sets Q holding column 1 come first, and
    their heads are those of the (n - 1, k - 1) leading part, moved by the
    difference p^(n-2) of the two leading parts' first points.  For the
    others column 1 is free, and its digit d, the most significant, adds
    d * p^(n-2) to the heads of the (n - 1, k) leading part, moved alike.
    At most 64 pairs stay cached: 25 KB after a scan of GF(2)^8.
    """
    if k == 0:
        return np.ones(1, np.int64), np.zeros((p**n, 0), np.int64)
    if k == n:
        return np.ones(1, np.int64), np.array([[(p ** (n - 1) - 1) // (p - 1)]])
    sub_sizes, sub_heads = _groups(n - 1, k - 1, p)
    rest_sizes, rest_heads = _groups(n - 1, k, p)
    sizes = np.concatenate([p ** (n - k) * sub_sizes, rest_sizes])
    spread = (np.arange(p) * p ** (n - 2))[:, None, None] + rest_heads
    heads = np.concatenate([sub_heads, spread.reshape(p ** (n - k), -1)], axis=1)
    return sizes, heads + p ** (n - 2)


def _write(out: np.ndarray, pieces: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Write pieces of :func:`_pieces` into consecutive rows of
    ``out``, two broadcast assignments each, and return ``out``."""
    start = 0
    for row0, rows in pieces:
        block = out[start : start + len(row0) * len(rows)].reshape(len(row0), len(rows), -1)
        block[..., 0] = row0[:, None]
        block[..., 1:] = rows
        start += len(row0) * len(rows)
    return out


def _coordinate_batches(n: int):
    """The coordinate subspaces of dimension 1..n/2 in the order of
    itertools.combinations, as (k, orders) batches of at most
    :data:`POINT_BATCH_BYTES`: row b of orders holds the b-th subspace's k
    coordinates, then the others, as int8 up to n = 127."""
    most = max(1, POINT_BATCH_BYTES // n)
    for k in range(1, n // 2 + 1):
        for orders in _coordinate_orders(n, k, most):
            yield k, orders


def _coordinate_orders(n: int, k: int, most: int):
    """The batches of :func:`_coordinate_batches` for one dimension k."""
    combos = itertools.combinations(range(n), k)
    while chosen := list(itertools.islice(combos, most)):
        off = np.ones((len(chosen), n), bool)
        off[np.arange(len(chosen))[:, None], chosen] = False
        yield np.argsort(off, axis=1, kind="stable").astype(int_type(n))

