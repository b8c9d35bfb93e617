"""Exact subspaces over a field, plus the subspace enumeration stream used
by the brute-force oracles.

Subspaces are canonicalized by the reduced row echelon form of their row
space, so equality, hashing and deduplication are structural and the
minimizers reported by the oracles are reproducible.  Enumeration order is
fixed: pivot-column sets lexicographically, then free entries filled
lexicographically, both streams taking their pivot sets from one helper.
The subspace stream comes in numpy batches of RREF bases completed to bases
of the whole space, the input of the rank kernel of
:mod:`raagcheeger.pairing`; the point stream names each RREF row by its row
in :func:`projective_points`, the input of the zero-set kernel of
:mod:`raagcheeger.zerosets`, and builds no bases.  The batches of one
dimension depend only on (n, k, p) and the batch size, so where they take at
most :data:`BATCH_CACHE_BYTES` they are built once per process and served
read-only from an lru cache (:func:`retained_batches`), as are those of the
coordinate subspaces that the coordinate scan reads, completed the same way;
larger dimensions are streamed lazily, as they are built.
The projective points of GF(p)^n and their codes, which the q-valence
min-max and the zero-set kernel index by, are built once per (n, p) in
small lru caches.
"""

from __future__ import annotations

import itertools
import math
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


SUBSPACE_CHUNK = 512
"""Most subspaces in one batch of :func:`enumerate_subspaces` and of the
coordinate stream, which only the rank kernel reads.  numpy's per-call cost
dominates that kernel, so larger batches run faster but hold larger
temporaries.  The chunk now serves the coordinate scans and the exhaustive
scans the zero-set gate refuses; the kernel's third input, a single
subspace, is a batch of one.  The figures below were measured with perfbench
(seed 1, ``--seconds 10``, two runs each, shared 2-vCPU machine) when every
exhaustive scan still eliminated: subspace-scan ``wall_s`` was 0.133 s at
256, 0.115-0.121 s at 512 and 0.121-0.122 s at 1024, with ``peak_rss_mb``
36.6-36.8, 37.1-37.2 and 38.2 MB; dictionary-sweep's ``peak_rss_mb`` was
37.5, 37.9-38.1 and 38.9 MB.  1024 bought no time for another megabyte."""


def enumerate_subspaces(
    ambient_dim: int,
    dims: Iterable[int],
    field: Field,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream every subspace of each requested dimension exactly once, in batches.

    Yields ``(k, bases)`` with ``bases`` an array of shape (B, n, n),
    1 <= B <= :data:`SUBSPACE_CHUNK`, in the narrowest integer type holding
    p - 1.  ``bases[b, :k]`` is the canonical RREF basis of one
    k-dimensional subspace F, and ``bases[b, k:]`` are the unit vectors of
    its non-leading coordinates in increasing order, so ``bases[b]`` is a
    basis of V that starts with one of F.  The stream is deterministic:
    dimensions ascending, then pivot-column sets in lexicographic order,
    then all fillings of the free entries in lexicographic order.  A batch
    holds consecutive subspaces of one dimension and may span several pivot
    sets.  Past the budgets (see :meth:`Budgets.check_subspaces`) the first
    ``next`` raises :class:`BudgetError` before any work.

    The batches depend only on (n, k, p) and the chunk, so a dimension whose
    batches take at most :data:`BATCH_CACHE_BYTES` is built once per process
    and served read-only from :func:`retained_batches` (one ``verify-theorem``
    call scans many triples of one size); a larger one is streamed lazily.
    """
    n = ambient_dim
    p, dims = _checked_request(n, dims, field, budgets)
    itemsize = np.dtype(int_type(p - 1)).itemsize
    for k in dims:
        size = gaussian_binomial(n, k, p) * n * n * itemsize
        for bases in retained_batches(size, _subspace_batches, n, k, p, SUBSPACE_CHUNK):
            yield k, bases


def enumerate_subspace_points(
    ambient_dim: int,
    dims: Iterable[int],
    field: Field,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Iterator[tuple[int, np.ndarray]]:
    """The subspaces of :func:`enumerate_subspaces`, in its order and under
    its checks, as ``(k, points)``: ``points[b, r]`` is the row of
    :func:`projective_points` holding row r of the b-th subspace's RREF
    basis, in the narrowest integer type that indexes every point.  A batch
    takes at most :data:`POINT_BATCH_BYTES` and is retained or streamed like
    the bases."""
    n = ambient_dim
    p, dims = _checked_request(n, dims, field, budgets)
    itemsize = np.dtype(int_type((p**n - 1) // (p - 1))).itemsize
    for k in dims:
        size = gaussian_binomial(n, k, p) * k * itemsize
        for points in retained_batches(size, _point_batches, n, k, p, POINT_BATCH_BYTES):
            yield k, points


def _checked_request(n: int, dims: Iterable[int], field: Field, budgets: Budgets):
    """(p, sorted dims) of a stream request, or the refusal of it."""
    if not field.is_prime_field:
        raise LinalgError("non-enumerable field: subspace enumeration needs a prime field")
    dims = sorted(set(dims))
    budgets.check_subspaces(field, n, dims)
    for k in dims:
        if k < 0 or k > n:
            raise LinalgError(f"requested dimension {k} outside [0, {n}]")
    return field.characteristic, dims


def _pivot_sets(n: int, k: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """(pivots, free) for every RREF pivot-column set of dimension k, in
    lexicographic order: free lists the (row, column) of each free entry,
    the first one most significant in the lexicographic order of fills."""
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        yield pivots, [
            (r, c) for r, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivset
        ]


def _subspace_batches(n: int, k: int, p: int, chunk: int) -> Iterator[np.ndarray]:
    """The batches of :func:`enumerate_subspaces` for one dimension k."""
    dtype = int_type(p - 1)
    pending: list[np.ndarray] = []
    count = 0
    for pivots, free in _pivot_sets(n, k):
        total = p ** len(free)
        # fill number i, written in base p with the first free entry most
        # significant, is the i-th fill in lexicographic order
        ftype = np.int64 if total < 2**63 else object
        powers = np.array([p**e for e in range(len(free) - 1, -1, -1)], dtype=ftype)
        base = np.zeros((n, n), dtype=dtype)
        base[range(n), [*pivots, *(c for c in range(n) if c not in pivots)]] = 1
        free_rows = [r for r, _ in free]
        free_cols = [c for _, c in free]
        start = 0
        while start < total:
            stop = min(total, start + chunk - count)
            bases = np.repeat(base[None], stop - start, axis=0)
            fills = np.arange(start, stop, dtype=ftype)[:, None] // powers
            bases[:, free_rows, free_cols] = reduce_mod(fills, p)
            pending.append(bases)
            count += stop - start
            start = stop
            if count == chunk:
                yield np.concatenate(pending)
                pending, count = [], 0
    if pending:
        yield np.concatenate(pending)


POINT_BATCH_BYTES = 1 << 14
"""Largest batch of :func:`enumerate_subspace_points`, in bytes.  Batches of
16-64 KB scanned C6/GF(3), C7/GF(2) and C8/GF(2) on the zero-set kernel
about equally fast; at 4 KB the C8 scan took 1.5-1.8 times as long (best of
9-15, in-process, shared 2-vCPU machine)."""


def _point_batches(n: int, k: int, p: int, cap: int) -> Iterator[np.ndarray]:
    """The batches of :func:`enumerate_subspace_points` for one dimension k.

    Row r of a pivot set's subspaces runs through the p^{f_r} fills of its
    f_r free entries, so tables[r] lists their points: a row whose leading 1
    is at column c is the point (p^w - 1)/(p - 1) + tail of
    :func:`projective_points`, w = n - 1 - c and tail its entries after c
    read in base p.  The pivot set's subspaces are the Cartesian product of
    the tables in C order, row 0 most significant, built by broadcasting.
    A product past the cap is split along its leading rows, and pieces of
    consecutive pivot sets are joined up to the cap.
    """
    dtype = int_type((p**n - 1) // (p - 1))
    most = max(1, cap // (max(k, 1) * np.dtype(dtype).itemsize))
    pending: list[np.ndarray] = []
    count = 0
    for pivots, free in _pivot_sets(n, k):
        tables = []
        for r, pc in enumerate(pivots):
            table = np.array([(p ** (n - 1 - pc) - 1) // (p - 1)])
            for c in (c for row, c in free if row == r):
                table = (table[:, None] + np.arange(p) * p ** (n - 1 - c)).ravel()
            tables.append(table.astype(dtype))
        sizes = [len(t) for t in tables]
        # the rows after row j fit a batch together: the rows before it take
        # one combination at a time, and row j is sliced
        j = next((j for j in range(k) if math.prod(sizes[j + 1 :]) <= most), 0)
        step = most // math.prod(sizes[j + 1 :])
        for fixed in itertools.product(*map(range, sizes[:j])):
            for start in range(0, sizes[j] if k else 1, step):
                parts = [t[i : i + 1] for t, i in zip(tables, fixed)]
                parts += [t[start : start + step] for t in tables[j : j + 1]] + tables[j + 1 :]
                shape = [len(t) for t in parts]
                size = math.prod(shape)
                if count + size > most:
                    yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                    pending, count = [], 0
                block = np.empty((*shape, k), dtype)
                for r, t in enumerate(parts):
                    block[..., r] = t.reshape([-1 if a == r else 1 for a in range(k)])
                pending.append(block.reshape(size, k))
                count += size
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _coordinate_batches(n: int):
    """The coordinate subspaces of dimension 1..n/2 as (k, bases) batches of
    at most SUBSPACE_CHUNK, in the order of itertools.combinations, each
    completed like the stream by the unit vectors off its coordinates.  Like
    the stream, a dimension within the cache cap is built once per process."""
    for k in range(1, n // 2 + 1):
        size = math.comb(n, k) * n * n
        for bases in retained_batches(size, _coordinate_bases, n, k, SUBSPACE_CHUNK):
            yield k, bases


def _coordinate_bases(n: int, k: int, chunk: int):
    """The batches of :func:`_coordinate_batches` for one dimension k."""
    combos = itertools.combinations(range(n), k)
    while batch := list(itertools.islice(combos, chunk)):
        order = [(*c, *(j for j in range(n) if j not in c)) for c in batch]
        bases = np.zeros((len(batch), n, n), dtype=np.int8)
        bases[np.arange(len(batch))[:, None], range(n), order] = 1
        yield bases


BATCH_CACHE_BYTES = 1 << 18
"""Largest stream of batches, in bytes of its arrays, that
:func:`retained_batches` keeps.  Every dimension of GF(2)^6 is kept (the
largest takes 50 KB), and so are the coordinate subspaces of dimension 2 up
to n = 20 (76 KB).  GF(2)^7 in dimension 3 (578 KB) and GF(3)^6 in
dimension 2 (396 KB) are streamed.  As points, every dimension of GF(2)^7
and GF(3)^6 is kept (GF(3)^6 in dimension 3 takes 203 KB), and GF(2)^8 in
dimension 3 (583 KB) is streamed.  At most 16 streams are kept, so the
cache never holds more than 4 MB."""


def retained_batches(size: int, batches, *args) -> Iterable[np.ndarray]:
    """``batches(*args)``, a deterministic stream of arrays taking ``size``
    bytes: built once and served read-only from a per-process lru cache when
    ``size`` is at most :data:`BATCH_CACHE_BYTES`, otherwise streamed lazily."""
    if size <= BATCH_CACHE_BYTES:
        return _retained(batches, *args)
    return batches(*args)


@lru_cache(maxsize=16)
def _retained(batches, *args) -> tuple[np.ndarray, ...]:
    kept = tuple(batches(*args))
    for array in kept:
        array.flags.writeable = False
    return kept
