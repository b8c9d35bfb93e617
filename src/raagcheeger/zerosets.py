"""The zero-set kernel: the exhaustive subspace Cheeger scan over a small
prime field, by counting instead of eliminating.

Over GF(p) the orthogonal complement C(F) = {y : q(f, y) = 0 for f in F} is
the intersection of the zero sets of F's RREF rows, and those rows are
normalized projective points, which the subspace stream of
:mod:`raagcheeger.linalg` names by index.  So the kernel tabulates, once
per scan, the zero set of every projective point of V as a bitset, gathers
the bitsets of F's rows and ANDs them in place into C(F), reads dim C off
C's popcount, summed word by word, and dim(F n C) off the bits of C at F's
points, where the rank kernel of :mod:`raagcheeger.pairing` completes the
same rows to bases and eliminates.
F n C lies in C, so F's points are built only for the F with C != 0: 2-3%
of the subspaces of the cycle C6's triple and of a random triple over
GF(3)^6.  The same points table, as q(x, y) != 0, is the q-valence
min-max's (:func:`pairs_blocks`).

The table, one row per projective point, is built once per scan, so
:func:`zero_sets_pay` admits the kernel from dim V = 4, where the scan
reaches dimension 2 and visits more subspaces than the table has rows.
Below, random triples over GF(2) to GF(31) took 0.04-0.11 ms by
elimination and 0.06-0.17 ms by counting.  From there the long scans repay
the table at any dim W: the GF(3)^5 and GF(5)^5 cup-product triples of the
five-vertex graphs took 0.5 and 0.7 of elimination's time.  Measured
losses remain: GF(7)^4 (1.15 times) and scans that stop early at h = 0.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .linalg import point_codes, popcount, product_types, projective_points, reduce_mod

ZERO_SET_BYTES = 1 << 18
"""Most memory the zero-set kernel's table and its temporaries take
together: the gate admits a table of at most half of it, and the table is
built in row blocks whose temporaries fit in the rest.  A scan ranks its
batches in slices whose AND temporaries take at most half of what the table
leaves, and builds F's points in pieces of at most as much."""


def zero_sets_pay(pt) -> bool:
    """Whether the exhaustive scan of the triple ``pt`` takes
    :func:`zero_set_kernel`, from four facts the scan can see before any
    work: a prime field, whose projective points the table indexes; dim W >
    0, since a zero pairing has h = 0 at the first subspace; dim V >= 4, so
    that the scan reaches dimension 2 and visits more subspaces than the
    table has rows; and a table of at most ZERO_SET_BYTES / 2."""
    p = pt.field.characteristic
    n = pt.dim_v
    if not pt.field.is_prime_field or not pt.dim_w or n < 4:
        return False
    points = (p**n - 1) // (p - 1)
    return points * -(-points // 64) * 8 <= ZERO_SET_BYTES // 2


def zero_set_kernel(pt):
    """The rank kernel's (rank R_F, rank R_F|_F) for a triple ``pt`` over a
    prime field with dim W > 0, taken as (k, points): the batches of
    :func:`~raagcheeger.linalg.enumerate_subspaces`, F's RREF rows given as
    rows of :func:`~raagcheeger.linalg.projective_points`.

    Built once per scan: for every projective point x of V, the bitset, in
    little-endian uint64 words, of the points y with q(x, y) = 0.  C = C(F)
    is the AND of the bitsets of F's rows, gathered by ``np.take`` and
    ANDed in place.  A subspace of dimension d has (p^d - 1)/(p - 1)
    projective points, so the popcount of C, the
    :func:`~raagcheeger.linalg.popcount` of each word added into one count
    per subspace, gives dim C = n - rank R_F.  The bits of C at F's points
    count the points of F n C, which gives dim(F n C) = k - rank R_F|_F.
    Where C = 0, F n C = 0 and F's points are not built.  Elsewhere they
    are the combinations c . F, c a projective point of GF(p)^k, each
    normalized since F is in RREF.  A batch is ranked in slices, so that
    the table and the temporaries stay within :data:`ZERO_SET_BYTES`.
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
    # a slice's running AND and one gathered row of bitsets per subspace
    # take at most half of what the table leaves, and so do F's points
    spare = (ZERO_SET_BYTES - table.nbytes) // 2
    step = max(1, spare // (2 * table[0].nbytes))
    # an entry of F's points is a residue, alive with the ptype product it
    # comes from, then with reduce_mod's two temporaries, then with its intp
    # copy for the codes
    size = np.dtype(dtype).itemsize
    per_entry = size + max(np.dtype(ptype).itemsize, 2 * size, np.dtype(np.intp).itemsize)

    def meet(
        coefficients: np.ndarray, at: np.ndarray, zero: np.ndarray, chosen: np.ndarray
    ) -> np.ndarray:
        # span[c, s * n + j] is entry j of coefficients[c] . F for the s-th
        # chosen F, whose C is zero[chosen[s]]
        span = rows[at[chosen]].transpose(1, 0, 2).reshape(at.shape[1], -1)
        span = reduce_mod((coefficients @ span).astype(dtype), p).reshape(-1, n)
        inner = index[span.astype(np.intp) @ powers].reshape(-1, len(chosen))
        inner += chosen * (zero.shape[1] * 64)
        inside = np.take(zero.view(np.uint8), inner >> 3) >> (inner & 7) & 1
        return dims[inside.sum(axis=0)]

    def ranks(k: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coefficients = projective_points(k, p).astype(ptype)
        # F's rows and points, n entries each
        few = max(1, spare // ((len(coefficients) + k) * n * per_entry))
        dim_c = np.empty(len(at), dims.dtype)
        dim_meet = np.zeros(len(at), dims.dtype)
        for start in range(0, len(at), step):
            part = at[start : start + step]
            zero = np.take(table, part[:, 0], axis=0)
            for a in range(1, k):
                zero &= np.take(table, part[:, a], axis=0)
            count = np.zeros(len(part), np.intp)
            for word in zero.T:
                count += popcount(word, 64)
            dim_c[start : start + len(part)] = dims[count]
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
    table = pt.tensor.astype(ptype).reshape(n, n * m)
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
