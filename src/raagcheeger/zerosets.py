"""The zero-set kernel: the exhaustive subspace Cheeger scan over a small
prime field, by counting instead of eliminating.

Over GF(p) the orthogonal complement C(F) = {y : q(f, y) = 0 for f in F} is
the intersection of the zero sets of F's RREF rows, and those rows are
normalized projective points, which the subspace stream of
:mod:`raagcheeger.linalg` names by index.  So the kernel tabulates, once
per scan, the zero set of every projective point of V as a bitset, gathers
the bitsets of F's rows and ANDs them in place into C(F), reads dim C off
C's popcount, counted for a whole slice of subspaces at once, and
dim(F n C) off the bits of C at F's points, where the rank kernel of
:mod:`raagcheeger.pairing` completes the same rows to bases and eliminates.
F n C lies in C, so F's points are built only for the F with C != 0: 2-3%
of the subspaces of the cycle C6's triple and of a random triple over
GF(3)^6.  q(x, y) = 0 exactly when q(y, x) = 0, so the table is built
from the pairs y >= x and mirrored (:func:`write_zero_sets`); inverted,
it is the q-valence min-max's table of q(x, y) != 0.

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

import numpy as np

from .linalg import point_codes, popcount, product_types, projective_points, reduce_mod

ZERO_SET_BYTES = 1 << 18
"""Most memory the zero-set kernel's table and the temporaries of its build
take together: the gate admits a table of at most half of it, and the
table is built in row blocks of half the point pairs whose temporaries fit
in the rest.  A scan builds F's points in pieces of at most half of what
the table leaves."""

SLICE_BYTES = 1 << 18
"""Most memory the temporaries of one slice of a scan's batch take: the
running AND of the slice's bitsets beside one gathered row of bitsets per
pair, then beside its popcounts in float32.  A slice of 256 KB ranks a
batch of GF(2)^7 in one slice and one of GF(3)^6 in one or two; a sweep
from 64 KB to 768 KB on the benchmark's exhaustive scans found it fastest
(CHANGES.md)."""

BITS = 2.0 ** np.arange(8, dtype=np.float32)
"""The weights of the 8 bits of a byte, in little-endian order."""


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
    t, the bitset of the points y with q_t(x, y) = 0
    (:func:`write_zero_sets`), at row (x, t) of one table, so that the rows
    of one point for every triple of the stack are one gather.  C = C(F) is
    the AND of the bitsets of F's rows, gathered by ``np.take`` for every
    live triple and ANDed in place.  A subspace of dimension d has
    (p^d - 1)/(p - 1) projective points, so the popcount of C gives dim C =
    n - rank R_F: one :func:`~raagcheeger.linalg.popcount` of a slice's
    words, summed per pair by one float32 product with a ones vector, exact
    for the at most 1,023 points of a table within its cap.  The bits of C
    at F's points count the points of F n C, which gives dim(F n C) = k -
    rank R_F|_F.  Where C = 0, F n C = 0 and F's points are not built.
    Elsewhere they are the combinations c . F, c a projective point of
    GF(p)^k, each normalized since F is in RREF.  A batch is ranked in
    slices of subspaces, each for every live triple, whose temporaries stay
    within :data:`SLICE_BYTES`; F's points are built in pieces that stay,
    with the table, within :data:`ZERO_SET_BYTES`.
    """
    p = pts[0].field.characteristic
    n = pts[0].dim_v
    points = projective_points(n, p)
    words = -(-len(points) // 64)
    table = np.zeros((len(points), len(pts), words * 8), np.uint8)
    for t, pt in enumerate(pts):
        write_zero_sets(pt, table[:, t], ZERO_SET_BYTES - table.nbytes)
    # one row per point, its bitsets for every triple side by side
    table = table.view("<u8").reshape(len(points), -1)
    dtype, ptype = product_types(n, p)
    powers, index, dims = point_codes(n, p)
    rows = points.astype(ptype)
    everyone = np.arange(len(pts))
    ones = np.ones(words, np.float32)
    # a slice's running AND and one gathered row of bitsets per pair, then
    # the running AND with its popcounts in float32, take 16 bytes a word
    step = max(1, SLICE_BYTES // (16 * words))
    # F's points take at most half of what the table leaves: an entry is a
    # residue, alive with the ptype product it comes from, then with
    # reduce_mod's two temporaries, then with its intp copy for the codes
    spare = (ZERO_SET_BYTES - table.nbytes) // 2
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
            count = popcount(zero, 64).astype(np.float32) @ ones
            found = dim_c[start * len(live) : (start + len(part)) * len(live)]
            found[:] = dims.take(count.astype(np.intp))
            # F n C lies in C, so only the pairs with C != 0 need F's points
            some = found.nonzero()[0]
            meets = dim_meet[start * len(live) : (start + len(part)) * len(live)]
            for s in range(0, len(some), few):
                chosen = some[s : s + few]
                meets[chosen] = meet(coefficients, part[chosen // len(live)], zero, chosen)
        rank, restricted = n - dim_c, k - dim_meet
        return rank.reshape(-1, len(live)).T.ravel(), restricted.reshape(-1, len(live)).T.ravel()

    return ranks


def write_zero_sets(pt, out: np.ndarray, chunk_bytes: int) -> None:
    """Write into row x of ``out``, zeros of shape (points, at least
    ceil(points / 8)) uint8, the bitset in little-endian bytes of the
    projective points y of V with q(x, y) = 0, for the triple ``pt`` over a
    prime field with dim W > 0, building it with at most about
    ``chunk_bytes`` of arrays alive (at least 8 rows and one W coordinate
    at a time).

    Every declared symmetry makes q(y, x) = +-q(x, y) in each W coordinate,
    so q(x, y) = 0 exactly when q(y, x) = 0, and the pairs y >= x decide the
    table.  A block of rows [a, b), a a multiple of 8, is formed against the
    points from a on: images[e, x] = (q(x, b_j)_e)_j, reduced mod p, and
    q(x, y)_e = images[e, x] . y, two products, each summing n terms below
    (p - 1)^2 in the types of :func:`~raagcheeger.linalg.product_types` and
    reduced mod p in the integer one.  A pair is zero where the largest of
    its dim W residues is.  The block's rows are packed from byte a/8 on,
    and its transpose past its own columns, read 8 rows to a byte, into rows
    b and later at bytes a/8 to b/8; so a block's height is a multiple of 8
    but for the last.
    """
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    dtype, ptype = product_types(n, p)
    count = len(out)
    right = projective_points(n, p).T.astype(ptype)
    # column e * n + j holds q(b_i, b_j)_e at row i
    table = pt.tensor.transpose(0, 2, 1).astype(ptype).reshape(n, m * n)
    # a pair (x, y) takes, per W coordinate, its product in ptype, then in
    # dtype with reduce_mod's two temporaries, and 3 bytes for its largest
    # residue, its zero flag and its bits
    size = np.dtype(ptype).itemsize + 3 * np.dtype(dtype).itemsize
    spare = chunk_bytes - right.nbytes - table.nbytes
    a = 0
    while a < count:
        width = count - a
        # the most rows, a multiple of 8, that fit with every W coordinate
        # in one product, then as many W coordinates a product as fit.  A
        # product (rows x n) @ (n x columns) has at most chunk_bytes / 7
        # entries, or 8 rows of one W coordinate, each a sum of n terms: for
        # a table within the kernel's cap, under 10^6 multiply-adds.  Past
        # 10^6 OpenBLAS runs a float32 product on all cores, which on a
        # shared 2-vCPU machine stalled for 8 ms a call (CHANGES.md)
        b = min(count, a + max(8, spare // (width * (m * size + 3)) // 8 * 8))
        pairs = (b - a) * width
        group = max(1, (spare // pairs - 3) // size)
        zero = _zero_pairs(right[:, a:b].T, right[:, a:], table, p, group)
        out[a:b, a // 8 : a // 8 + -(-width // 8)] = np.packbits(zero, axis=1, bitorder="little")
        if b < count:
            # bit j of byte i of row y is zero[8 i + j, y], summed exactly in
            # float32: np.packbits along the rows takes about four times as long
            mirror = BITS @ zero[:, b - a :].astype(np.float32).reshape(-1, 8, count - b)
            out[b:, a // 8 : b // 8] = mirror.astype(np.uint8).T
        a = b


def _zero_pairs(rows: np.ndarray, columns: np.ndarray, table: np.ndarray, p: int, group: int) -> np.ndarray:
    """zero[x, y] = (q(x, y) = 0) for the points x given as the rows of
    ``rows`` and y as the columns of ``columns``, both in the product type,
    with ``table`` the tensor of :func:`write_zero_sets`, in products of
    ``group`` W coordinates at a time.  Its temporaries are freed when it
    returns, before the block is packed."""
    n = rows.shape[1]
    dtype = product_types(n, p)[0]
    images = reduce_mod((rows @ table).astype(dtype), p)
    images = images.reshape(len(rows), -1, n).transpose(1, 0, 2).astype(columns.dtype)
    top = None
    for e in range(0, len(images), group):
        block = reduce_mod((images[e : e + group].reshape(-1, n) @ columns).astype(dtype), p)
        block = block.reshape(-1, len(rows), columns.shape[1]).max(axis=0)
        top = block if top is None else np.maximum(top, block, out=top)
    return top == 0
