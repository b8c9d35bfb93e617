"""Full-row test oracle: q(x, y) != 0 for every pair of projective points.

The package builds its zero-set table from half the point pairs, the rows of
a block against the points from the block on, and mirrors each block into
the rows after it (:func:`raagcheeger.zerosets.write_zero_sets`).  This
module forms every row against every point, with no mirror, the way the
table was built before, so the tests can check the half table bit for bit.
"""

from __future__ import annotations

import numpy as np

from raagcheeger.linalg import product_types, reduce_mod


def nonzero_pairs(pt, points: np.ndarray, chunk_bytes: int = 1 << 18) -> np.ndarray:
    """pairs[x, y] = (q(x, y) != 0) over the given points of V, a prime
    field's residues, as a boolean matrix built in blocks of consecutive
    rows, each with at most about ``chunk_bytes`` of arrays alive (at least
    one row per block).

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
    blocks = []
    for start in range(0, count, step):
        rows = points[start : start + step].astype(ptype)
        images = reduce_mod((rows @ table).astype(dtype), p).reshape(-1, n, m)
        images = images.transpose(2, 0, 1).reshape(-1, n).astype(ptype)
        block = reduce_mod((images @ right).astype(dtype), p).reshape(m, -1, count)
        blocks.append(block.max(axis=0) != 0)
    return np.concatenate(blocks)
