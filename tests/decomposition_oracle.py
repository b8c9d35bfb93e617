"""Independent test oracle: pairing-connectedness by enumerating every
direct-sum decomposition.

The library decides pairing-connectedness as h > 0 through its Cheeger rank
kernel.  This oracle shares none of that code.  It walks every split
V = V0 + V1 with 1 <= dim V0 <= (dim V)/2 and checks q(V0, V1) = 0 on basis
pairs, which suffices by bilinearity.  V1 runs over all complements of V0:
graphs of linear maps from the non-pivot coordinate subspace into V0, so a
V0 of dimension k has (p^k)^(n-k) of them.  Keep it to small triples.
"""

from __future__ import annotations

import itertools

from subspace_stream import subspaces
from triple_oracle import scalar_tensor


def _nonzero_grid(pt):
    """All nonzero vectors of V (lexicographic), their index map, and the
    boolean grid nz[ix][iy] = (q(x, y) != 0)."""
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    tensor = scalar_tensor(pt)
    vecs = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    index = {v: k for k, v in enumerate(vecs)}
    # images[i][iy] = q(b_i, y)
    images = []
    for i in range(n):
        per = []
        for y in vecs:
            acc = [0] * m
            for j, yj in enumerate(y):
                if yj:
                    acc = [(a + yj * b) % p for a, b in zip(acc, tensor[i][j])]
            per.append(acc)
        images.append(per)
    grid = []
    for x in vecs:
        support = [(i, xi) for i, xi in enumerate(x) if xi]
        out = []
        for iy in range(len(vecs)):
            acc = [0] * m
            for i, xi in support:
                acc = [(a + xi * b) % p for a, b in zip(acc, images[i][iy])]
            out.append(any(acc))
        grid.append(out)
    return vecs, index, grid


def pairing_connected_by_decomposition(t) -> bool:
    """True iff no nontrivial direct-sum decomposition V0 + V1 of V pairs to
    zero identically, over a prime field."""
    pt = getattr(t, "pairing", t)
    n = pt.dim_v
    if n <= 1:
        return True
    vecs, index, grid = _nonzero_grid(pt)
    p = pt.field.characteristic
    for v0 in subspaces(n, range(1, n // 2 + 1), pt.field):
        k = v0.dim
        rows0 = [grid[index[row]] for row in v0.basis]
        # all elements of V0, for the per-coordinate complement rows
        elements = []
        for coeffs in itertools.product(range(p), repeat=k):
            acc = [0] * n
            for c, row in zip(coeffs, v0.basis):
                if c:
                    acc = [(a + c * b) % p for a, b in zip(acc, row)]
            elements.append(tuple(acc))
        pivots = {next(c for c, x in enumerate(row) if x) for row in v0.basis}
        choice_ixs = []
        for c in range(n):
            if c in pivots:
                continue
            per = []
            for x in elements:
                y = list(x)
                y[c] = (y[c] + 1) % p
                per.append(index[tuple(y)])
            choice_ixs.append(per)
        for pick in itertools.product(range(len(elements)), repeat=len(choice_ixs)):
            all_zero = True
            for row in rows0:
                for sel, per in zip(pick, choice_ixs):
                    if row[per[sel]]:
                        all_zero = False
                        break
                if not all_zero:
                    break
            if all_zero:
                return False
    return True
