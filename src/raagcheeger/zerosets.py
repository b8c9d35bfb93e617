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

A scan runs over a stack of triples of one field and dim V, and the
table holds a row of bitsets per projective point and triple, so that one
gather serves every triple of the stack; a stack holds as many triples as
fit half of :data:`ZERO_SET_BYTES` (:func:`zero_set_stack`).

The table is built once per scan, so
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
    return bool(pt.dim_w) and zero_set_stack(pt.field, pt.dim_v) > 0


def zero_set_stack(field, n: int) -> int:
    """How many triples over ``field`` with dim V = n and dim W > 0 one table
    of :func:`zero_set_kernel` takes: as many as fit ZERO_SET_BYTES / 2 at
    one row of bitsets per projective point each; 0 where the gate refuses
    them, over a field that is not prime or for dim V < 4."""
    p = field.characteristic
    if not field.is_prime_field or n < 4:
        return 0
    points = (p**n - 1) // (p - 1)
    return ZERO_SET_BYTES // 2 // (points * -(-points // 64) * 8)


def zero_set_kernel(*pts):
    """The rank kernel's (rank R_F, rank R_F|_F) for a stack of triples
    ``pts`` over one prime field with one dim V and dim W > 0, taken as
    (k, points, live): a batch of
    :func:`~raagcheeger.linalg.enumerate_subspaces`, F's RREF rows given as
    rows of :func:`~raagcheeger.linalg.projective_points`, for the triples
    of the stack at the positions ``live`` (all by default).  The results
    run over (triple, subspace) pairs, triple-major.

    Built once per scan: for every projective point x of V and every triple
    t, the bitset, in little-endian uint64 words, of the points y with
    q_t(x, y) = 0, at row (x, t) of one table, so that the rows of one point
    for every triple of the stack are one gather.  C = C(F) is the AND of
    the bitsets of F's rows, gathered by ``np.take`` for every live triple
    and ANDed in place.  A subspace of dimension d has (p^d - 1)/(p - 1)
    projective points, so the popcount of C, the
    :func:`~raagcheeger.linalg.popcount` of each word added into one count
    per pair, gives dim C = n - rank R_F.  The bits of C at F's points count
    the points of F n C, which gives dim(F n C) = k - rank R_F|_F.  Where
    C = 0, F n C = 0 and F's points are not built.  Elsewhere they are the
    combinations c . F, c a projective point of GF(p)^k, each normalized
    since F is in RREF.  A batch is ranked in slices of subspaces, each for
    every live triple, so that the table and the temporaries stay within
    :data:`ZERO_SET_BYTES`.
    """
    p = pts[0].field.characteristic
    n = pts[0].dim_v
    points = projective_points(n, p)
    words = -(-len(points) // 64)
    table = np.zeros((len(points), len(pts), words * 8), np.uint8)
    for t, pt in enumerate(pts):
        start = 0
        for block in pairs_blocks(pt, points, ZERO_SET_BYTES - table.nbytes):
            packed = np.packbits(~block, axis=1, bitorder="little")
            table[start : start + len(block), t, : packed.shape[1]] = packed
            start += len(block)
    # one row per point, its bitsets for every triple side by side
    table = table.view("<u8").reshape(len(points), -1)
    dtype, ptype = product_types(n, p)
    powers, index, dims = point_codes(n, p)
    rows = points.astype(ptype)
    everyone = np.arange(len(pts))
    # a slice's running AND and one gathered row of bitsets per pair take at
    # most half of what the table leaves, and so do F's points
    spare = (ZERO_SET_BYTES - table.nbytes) // 2
    step = max(1, spare // (16 * words))
    # an entry of F's points is a residue, alive with the ptype product it
    # comes from, then with reduce_mod's two temporaries, then with its intp
    # copy for the codes
    size = np.dtype(dtype).itemsize
    per_entry = size + max(np.dtype(ptype).itemsize, 2 * size, np.dtype(np.intp).itemsize)

    def meet(
        coefficients: np.ndarray, f: np.ndarray, zero: np.ndarray, chosen: np.ndarray
    ) -> np.ndarray:
        # span[c, s * n + j] is entry j of coefficients[c] . F for the s-th
        # chosen pair, whose F has the point rows f[s] and whose C is
        # zero[chosen[s]]
        span = rows[f].transpose(1, 0, 2).reshape(f.shape[1], -1)
        span = reduce_mod((coefficients @ span).astype(dtype), p).reshape(-1, n)
        inner = index[span.astype(np.intp) @ powers].reshape(-1, len(chosen))
        inner += chosen * (words * 64)
        inside = np.take(zero.view(np.uint8), inner >> 3) >> (inner & 7) & 1
        return dims[inside.sum(axis=0)]

    def ranks(k: int, at: np.ndarray, live: np.ndarray = everyone) -> tuple[np.ndarray, np.ndarray]:
        coefficients = projective_points(k, p).astype(ptype)
        # F's rows and points, n entries each, for at most as many pairs at
        # once as the batch has subspaces, as a stack of one builds them
        few = max(1, min(len(at), spare // ((len(coefficients) + k) * n * per_entry)))
        stack = table
        if len(live) < len(pts):
            stack = table.reshape(len(points), len(pts), -1)[:, live].reshape(len(points), -1)
        # pair (b, l) of the batch's b-th F and the l-th live triple sits at
        # b * len(live) + l, and a slice holds about step pairs
        width = max(1, step // len(live))
        dim_c = np.empty(len(at) * len(live), dims.dtype)
        dim_meet = np.zeros(len(at) * len(live), dims.dtype)
        for start in range(0, len(at), width):
            part = at[start : start + width]
            zero = np.take(stack, part[:, 0], axis=0)
            for a in range(1, k):
                zero &= np.take(stack, part[:, a], axis=0)
            zero = zero.reshape(-1, words)
            # at most the 1,024 points of a table within its cap; numpy takes
            # narrow indices faster than it indexes by them
            count = np.zeros(len(zero), np.int16)
            for word in zero.T:
                count += popcount(word, 64)
            found = dim_c[start * len(live) : (start + len(part)) * len(live)]
            found[:] = dims.take(count)
            # F n C lies in C, so only the pairs with C != 0 need F's points
            some = found.nonzero()[0]
            meets = dim_meet[start * len(live) : (start + len(part)) * len(live)]
            for s in range(0, len(some), few):
                chosen = some[s : s + few]
                meets[chosen] = meet(coefficients, part[chosen // len(live)], zero, chosen)
        rank, restricted = n - dim_c, k - dim_meet
        return rank.reshape(-1, len(live)).T.ravel(), restricted.reshape(-1, len(live)).T.ravel()

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
