"""Independent q-valence oracle: the definition searched literally.

q-valence is the least, over pairs of unordered bases S and B of V, of
max_{s in S} #{b in B : q(s, b) != 0}.  This module enumerates the bases in
pure Python, tabulates q(x, y) != 0 for every pair of nonzero vectors, and
walks every (S, B) pair.  It shares no code with the min-max over
hyperplanes in :func:`raagcheeger.q_valence_exhaustive`, only the budget
check, and is kept to cross-check it on small inputs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from raagcheeger import DEFAULT_BUDGETS, LinalgError, Subspace
from raagcheeger.linalg import _Echelon
from triple_oracle import scalar_tensor


def enumerate_unordered_bases(n, field, budgets=DEFAULT_BUDGETS):
    """Stream every unordered basis of L^n exactly once, as a sorted tuple of vectors.

    There are |GL(n, p)| / n! of them.  The budget check is the library's,
    which bounds the min-max and not this search, so keep to small inputs.
    """
    if not field.is_prime_field:
        raise LinalgError("non-enumerable field: basis enumeration needs a prime field")
    budgets.check_bases(field, n)
    if n == 0:
        yield ()
        return
    p = field.characteristic
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    for combo in itertools.combinations(vectors, n):
        ech = _Echelon(field)
        if all(ech.insert(v) for v in combo):
            yield combo


@lru_cache(maxsize=None)
def _all_unordered_bases(n, field, budgets):
    return tuple(enumerate_unordered_bases(n, field, budgets))


def _nonzero_grid(pt):
    """All nonzero vectors of V (lexicographic), their index map, and the
    boolean grid nz[ix][iy] = (q(x, y) != 0)."""
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    tensor = scalar_tensor(pt)
    vecs = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    index = {v: k for k, v in enumerate(vecs)}
    grid = []
    for x in vecs:
        out = []
        for y in vecs:
            acc = [0] * m
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    if xi and yj:
                        acc = [(a + xi * yj * w) % p for a, w in zip(acc, tensor[i][j])]
            out.append(any(acc))
        grid.append(out)
    return vecs, index, grid


def q_valence_by_basis_pairs(t, budgets=DEFAULT_BUDGETS):
    """min over unordered bases S and B of max_{s in S} #{b in B : q(s, b) != 0}.

    Branch-and-bound: the count for s against any basis B is at least
    dim q_s(V), because {q(s, b) : b in B} spans the image of q_s; a basis S
    whose rank lower bound already meets the best-so-far cannot improve it.
    The best-so-far starts at the coordinate value, which is itself a member
    of the search space.
    """
    pt = getattr(t, "pairing", t)
    n = pt.dim_v
    if n == 0:
        return 0
    bases = _all_unordered_bases(n, pt.field, budgets)
    tensor = scalar_tensor(pt)
    best = max(sum(1 for w in row if any(w)) for row in tensor)
    if best == 0:
        return 0
    vecs, index, grid = _nonzero_grid(pt)
    # dim q_s(V): the span of the images q(s, e_j), read off the grid's rows
    rank_lb = [
        Subspace.from_vectors(
            pt.field, pt.dim_w,
            [[sum(si * w[e] for si, w in zip(s, col)) for e in range(pt.dim_w)]
             for col in zip(*tensor)],
        ).dim
        for s in vecs
    ]
    base_ix = [tuple(index[v] for v in basis) for basis in bases]
    for s_ixs in base_ix:
        if max(rank_lb[i] for i in s_ixs) >= best:
            continue
        s_rows = [grid[i] for i in s_ixs]
        for b_ixs in base_ix:
            cur = 0
            for row in s_rows:
                cur = max(cur, sum(1 for b in b_ixs if row[b]))
                if cur >= best:
                    break
            if cur < best:
                best = cur
                if best == 0:
                    return 0
    return best
