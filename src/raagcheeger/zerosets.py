"""The zero-set kernel: the exhaustive subspace Cheeger scan over a small
prime field, by counting instead of eliminating.

Over GF(p) the orthogonal complement C(F) = {y : q(f, y) = 0 for f in F} is
the intersection of the zero sets of F's RREF rows, and those rows are
normalized projective points.  So the kernel tabulates, once per scan, the
zero set of every projective point of V as a bitset, ANDs the bitsets of
F's rows into C(F), and reads dim C off popcounts and dim(F n C) off the
bits of C at F's points, where the rank kernel of :mod:`raagcheeger.pairing`
eliminates.  F n C lies in C, so F's points are built only for the F with
C != 0: 2-3% of the subspaces of the cycle C6's triple and of a random
triple over GF(3)^6.  The same points table, as q(x, y) != 0, is the
q-valence min-max's (:func:`pairs_blocks`).

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
in-process on random triples (seeds 7-9), best of 5-7 interleaved on a
shared 2-vCPU machine, as the kernel's time over elimination's: every scan
of at least 1,000 subspaces that ran to the end gained up to a ratio of 66,
from GF(2)^8 (ratio 0.6, 0.25-0.32) to GF(5)^5 and GF(3)^5 (ratios 58 and
66, 0.80-0.91 and 0.72-0.76).  From 76 to 228 the results are mixed:
GF(5)^5 gains at 87 and 145 (0.70-0.86), GF(5)^4 at 76 and GF(7)^4 at 148
run even or lose (0.93-0.99 and 1.01-1.31), and GF(7)^3, whose scans visit
57 subspaces, loses at 114 and 228 (1.22-1.58).  GF(31)^3 and GF(1009)^2
take 18-36 times as long at 2979 and 3030.  At any ratio a scan of a few
dozen subspaces loses 10-60 us to the build, and one that stops early at
h = 0 pays for the whole table."""


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
    k rows of a stream basis are F's RREF rows, each a projective point found
    by its code, and C = C(F) is the AND of their bitsets.  A subspace of
    dimension d has (p^d - 1)/(p - 1) projective points, so the popcount of
    C gives dim C = n - rank R_F.  The bits of C at F's points count the
    points of F n C, which gives dim(F n C) = k - rank R_F|_F.  Where C = 0,
    F n C = 0 and F's points are not built.  Elsewhere they are the
    combinations c . F, c a projective point of GF(p)^k, each normalized
    since F is in RREF.
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
        # rows[b, a * n + j] is entry j of row a of the b-th F, and at[b, a]
        # is that row's point
        rows = bases.reshape(len(bases), -1)[:, : k * n].astype(ptype)
        at = index[(rows.reshape(-1, n) @ powers).astype(np.intp)].reshape(-1, k)
        zero = table[at[:, 0]]
        for a in range(1, k):
            zero &= table[at[:, a]]
        dim_c = dims[bit_count(zero).sum(axis=1, dtype=np.int64)]
        # F n C lies in C, so only the F with C != 0 need F's points
        dim_meet = np.zeros(len(bases), np.int64)
        some = dim_c.nonzero()[0]
        if not len(some):
            return n - dim_c, k - dim_meet
        # span[c, s * n + j] is entry j of coefficients[c] . F for the s-th F
        # of some
        span = rows[some].reshape(-1, k, n).transpose(1, 0, 2).reshape(k, -1)
        span = projective_points(k, p).astype(ptype) @ span
        span = reduce_mod(span.astype(dtype), p).reshape(-1, n).astype(powers.dtype)
        at = index[(span @ powers).astype(np.intp)].reshape(-1, len(some))
        at += some * (zero.shape[1] * 64)
        inside = np.take(zero.view(np.uint8), at >> 3) >> (at & 7) & 1
        dim_meet[some] = dims[inside.sum(axis=0)]
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
