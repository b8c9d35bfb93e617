"""The zero-set kernel: the exhaustive subspace Cheeger scan over a small
prime field, by counting instead of eliminating.

Over GF(p) the orthogonal complement C(F) = {y : q(f, y) = 0 for f in F} is
the intersection of the zero sets of F's RREF rows, and those rows are
normalized projective points, which the point stream of
:mod:`raagcheeger.linalg` names by index.  So the kernel tabulates, once
per scan, the zero set of every projective point of V as a bitset, ANDs the
bitsets of F's rows into C(F), and reads dim C off popcounts and dim(F n C)
off the bits of C at F's points, where the rank kernel of
:mod:`raagcheeger.pairing` eliminates.  F n C lies in C, so F's points are
built only for the F with C != 0: 2-3% of the subspaces of the cycle C6's
triple and of a random triple over GF(3)^6.  The same points table, as
q(x, y) != 0, is the q-valence min-max's (:func:`pairs_blocks`).

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
"""Most memory the zero-set kernel's table and its temporaries take
together: the gate admits a table of at most half of it, and the table is
built in row blocks whose temporaries fit in the rest.  A scan ranks its
batches in slices whose AND temporaries take at most half of what the table
leaves, and builds F's points in pieces of at most as much."""

ZERO_SET_WORK = 64
"""The gate admits the zero-set kernel while its table's points^2 * dim W
entries are at most this many per subspace the scan visits.  Measured
in-process on random triples (seeds 7-9), caches cleared and point stream
included, best of 7 interleaved on a shared 2-vCPU machine, as the
kernel's time over elimination's: every scan up to a ratio of 66 gained,
from GF(2)^8 and GF(3)^6 (ratios 0.6 and 9, 0.17-0.19 and 0.24-0.25) to
GF(5)^5 and GF(3)^5 (ratios 58 and 66, 0.78-0.81 and 0.61-0.62).  From 76
to 228 scans of at least 900 subspaces gain too: GF(5)^4 at 76 (0.82-0.87),
GF(5)^5 at 87 and 145 (0.54-0.59) and GF(7)^4 at 148 (0.90-0.93); but
GF(7)^3, whose scans visit 57 subspaces, loses at 114 and 228
(1.33-1.46).  GF(31)^3 and GF(1009)^2 take 17-41 times as long at 2979 and
3030.  At any ratio a scan of a few dozen subspaces loses 10-60 us to the
build, and one that stops early at h = 0 pays for the whole table.  No
benchmark workload lies between 64 and 228, so a larger gate is unmeasured
there."""


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
    """The rank kernel's (rank R_F, rank R_F|_F) for a triple ``pt`` over a
    prime field with dim W > 0, taken as (k, points): the batches of
    :func:`~raagcheeger.linalg.enumerate_subspace_points`, F's RREF rows
    given as rows of :func:`~raagcheeger.linalg.projective_points`.

    Built once per scan: for every projective point x of V, the bitset, in
    little-endian uint64 words, of the points y with q(x, y) = 0.  C = C(F)
    is the AND of the bitsets of F's rows.  A subspace of dimension d has
    (p^d - 1)/(p - 1) projective points, so the popcount of C gives
    dim C = n - rank R_F.  The bits of C at F's points count the points of
    F n C, which gives dim(F n C) = k - rank R_F|_F.  Where C = 0,
    F n C = 0 and F's points are not built.  Elsewhere they are the
    combinations c . F, c a projective point of GF(p)^k, each normalized
    since F is in RREF.  A batch is ranked in slices, so that the table and
    the temporaries stay within :data:`ZERO_SET_BYTES`.
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
    rows = points.astype(ptype)
    bit_count = getattr(np, "bitwise_count", None) or (lambda x: popcount(x, 64))
    # a slice's running AND and one gathered row of bitsets per subspace
    # take at most half of what the table leaves, and so do F's points
    spare = (ZERO_SET_BYTES - table.nbytes) // 2
    step = max(1, spare // (2 * table[0].nbytes))
    per_entry = np.dtype(ptype).itemsize + 3 * np.dtype(dtype).itemsize

    def meet(
        coefficients: np.ndarray, at: np.ndarray, zero: np.ndarray, chosen: np.ndarray
    ) -> np.ndarray:
        # span[c, s * n + j] is entry j of coefficients[c] . F for the s-th
        # chosen F, whose C is zero[chosen[s]]
        span = rows[at[chosen]].transpose(1, 0, 2).reshape(at.shape[1], -1)
        span = reduce_mod((coefficients @ span).astype(dtype), p).reshape(-1, n)
        inner = index[(span.astype(powers.dtype) @ powers).astype(np.intp)].reshape(-1, len(chosen))
        inner += chosen * (zero.shape[1] * 64)
        inside = np.take(zero.view(np.uint8), inner >> 3) >> (inner & 7) & 1
        return dims[inside.sum(axis=0)]

    def ranks(k: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coefficients = projective_points(k, p).astype(ptype)
        # F's rows and points, n entries each, built in ptype, reduced in dtype
        few = max(1, spare // ((len(coefficients) + k) * n * per_entry))
        dim_c = np.empty(len(at), dims.dtype)
        dim_meet = np.zeros(len(at), dims.dtype)
        for start in range(0, len(at), step):
            part = at[start : start + step]
            zero = table[part[:, 0]]
            for a in range(1, k):
                zero &= table[part[:, a]]
            dim_c[start : start + len(part)] = dims[bit_count(zero).sum(axis=1, dtype=np.int64)]
            # F n C lies in C, so only the F with C != 0 need F's points
            some = dim_c[start : start + len(part)].nonzero()[0]
            for s in range(0, len(some), few):
                chosen = some[s : s + few]
                dim_meet[start + chosen] = meet(coefficients, part, zero, chosen)
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
