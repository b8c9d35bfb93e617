"""The zero-set kernel: the exhaustive subspace Cheeger scan over a small
prime field, by counting instead of eliminating.

Over GF(p) the orthogonal complement C(F) = {y : q(f, y) = 0 for f in F} is
the intersection of the zero sets of F's RREF rows, and those rows are
normalized projective points.  So the kernel tabulates, once per scan, the
zero set of every projective point of V as a bitset, ANDs the bitsets of
F's rows into C(F), and reads dim C and dim(F n C) off popcounts, where the
rank kernel of :mod:`raagcheeger.pairing` eliminates.  The same points
table, as q(x, y) != 0, is the q-valence min-max's (:func:`pairs_blocks`).

The table costs points^2 * dim W entries to build, so
:func:`zero_sets_pay` admits the kernel only where that is small against
the subspaces scanned, and only while the table fits
:data:`ZERO_SET_BYTES`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .budgets import gaussian_binomial
from .linalg import point_codes, popcount, product_types, projective_points, reduce_mod

ZERO_SET_BYTES = 1 << 18
"""Most memory the zero-set kernel's table and the temporaries of its build
take together: the gate admits a table of at most half of it, and the table
is built in row blocks whose temporaries fit in the rest."""

ZERO_SET_WORK = 64
"""The gate admits the zero-set kernel while its table's points^2 * dim W
entries are at most this many per subspace the scan visits.  Measured
in-process on random triples, best of 5 on a shared 2-vCPU machine, the
kernel against elimination: every scan of at least 1,000 subspaces that
ran to the end gained up to a ratio of 60, from GF(5)^5 with dim W = 2
(ratio 58, 10.8 -> 7.3 ms) to GF(2)^8 with dim W = 3 (ratio 0.6,
344 -> 132 ms); from 87 to 250 the results were mixed, GF(7)^4 with
dim W = 3 (ratio 148) losing 1.3 -> 1.7 ms; and from 394 on every scan
lost, GF(31)^3 (ratio 2979) 0.28 -> 4.6 ms and GF(1009)^2 (ratio 3030)
0.20 -> 6.1 ms, both with dim W = 3.  At any ratio a scan of a few dozen
subspaces loses 10-50 us to the build, and one that stops early at h = 0
pays for the whole table."""


def zero_sets_pay(pt) -> bool:
    """Whether the exhaustive scan of the triple ``pt`` takes
    :func:`zero_set_kernel`, decided from exact counts before any work: a
    prime field, dim W > 0, a table of at most ZERO_SET_BYTES / 2, and at
    most ZERO_SET_WORK table entries per subspace scanned."""
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    if not pt.field.is_prime_field or not m:
        return False
    points = (p**n - 1) // (p - 1)
    if points * -(-points // 64) * 8 > ZERO_SET_BYTES // 2:
        return False
    count = sum(gaussian_binomial(n, k, p) for k in range(1, n // 2 + 1))
    return points * points * m <= ZERO_SET_WORK * count


def zero_set_kernel(pt):
    """The contract of the rank kernel, (k, bases) -> (rank R_F, rank R_F|_F),
    for a triple ``pt`` over a prime field with dim W > 0.

    Built once per scan: for every projective point x of V, the bitset, in
    little-endian uint64 words, of the points y with q(x, y) = 0.  The first
    k rows of a stream basis are F's RREF rows, and C = C(F) is the AND of
    their bitsets.  A subspace of dimension d has (p^d - 1)/(p - 1)
    projective points, so the popcount of C gives dim C = n - rank R_F.  The
    combinations c . F, c a projective point of GF(p)^k, are F's projective
    points, each normalized since F is in RREF; the bits of C at them count
    the points of F n C, which gives dim(F n C) = k - rank R_F|_F.
    """
    p = pt.field.characteristic
    n = pt.dim_v
    points = projective_points(n, p)
    table = np.zeros((len(points), -(-len(points) // 64) * 8), np.uint8)
    start = 0
    for block in pairs_blocks(pt, points, ZERO_SET_BYTES - table.nbytes):
        packed = np.packbits(~block, axis=1, bitorder="little")
        table[start : start + len(block), : packed.shape[1]] = packed
        start += len(block)
    table = table.view("<u8")
    dtype, ptype = product_types(n, p)
    powers, index, dims = point_codes(n, p)
    bit_count = getattr(np, "bitwise_count", None) or (lambda x: popcount(x, 64))

    def ranks(k: int, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = len(bases)
        # span[c, b * n + j] is entry j of coefficients[c] . F for the b-th
        # F; F's own rows are the unit coefficient vectors, which open the
        # blocks of projective_points
        rows = bases[:, :k].transpose(1, 0, 2).reshape(k, count * n).astype(ptype)
        span = projective_points(k, p).astype(ptype) @ rows
        span = reduce_mod(span.astype(dtype), p).reshape(-1, n).astype(powers.dtype)
        at = index[(span @ powers).astype(np.intp)].reshape(-1, count)
        zero = table[at[0]]
        for c in range(1, k):
            zero &= table[at[(p**c - 1) // (p - 1)]]
        dim_c = dims[bit_count(zero).sum(axis=1, dtype=np.int64)]
        at += np.arange(count) * (zero.shape[1] * 64)
        inside = np.take(zero.view(np.uint8), at >> 3) >> (at & 7) & 1
        dim_meet = dims[inside.sum(axis=0)]
        return n - dim_c, k - dim_meet

    return ranks


def pairs_blocks(pt, points: np.ndarray, chunk_bytes: int) -> Iterator[np.ndarray]:
    """The rows of pairs[x, y] = (q(x, y) != 0) over the given points of V, a
    prime field's residues, as boolean blocks of consecutive rows, each
    built with at most about ``chunk_bytes`` of arrays alive (at least one
    row per block).

    For a block of rows x, images[e, x] = (q(x, b_j)_e)_j, reduced mod p,
    and q(x, y)_e = images[e, x] . y: two products, each summing n terms
    below (p - 1)^2 in the types of :func:`~raagcheeger.linalg.product_types`
    and reduced mod p in the integer one.  A pair is nonzero where the
    largest of its dim W residues is.
    """
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    dtype, ptype = product_types(n, p)
    count = len(points)
    right = points.T.astype(ptype)
    table = np.array(pt.tensor, dtype=ptype).reshape(n, n * m)
    # a row's products in ptype, then in dtype with reduce_mod's two
    # temporaries, and its images likewise
    size = np.dtype(ptype).itemsize + 3 * np.dtype(dtype).itemsize
    per_row = count * (m * size + 3) + n * m * (size + np.dtype(ptype).itemsize)
    step = max(1, (chunk_bytes - right.nbytes - table.nbytes) // per_row)
    for start in range(0, count, step):
        rows = points[start : start + step].astype(ptype)
        images = reduce_mod((rows @ table).astype(dtype), p).reshape(-1, n, m)
        images = images.transpose(2, 0, 1).reshape(-1, n).astype(ptype)
        block = reduce_mod((images @ right).astype(dtype), p).reshape(m, -1, count)
        yield block.max(axis=0) != 0
