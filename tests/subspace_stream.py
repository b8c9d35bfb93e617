"""Test helpers: the batched subspace stream as one Subspace per subspace,
and an independent enumeration of the same canonical order.

``enumerate_subspaces`` yields (k, points) batches, each RREF row named by
its row in ``projective_points``; tests that want to compare, hash or print
individual subspaces read those rows through here.
"""

from __future__ import annotations

import itertools

from raagcheeger import DEFAULT_BUDGETS, Subspace, enumerate_subspaces
from raagcheeger.linalg import projective_points


def subspaces(ambient_dim, dims, field, budgets=DEFAULT_BUDGETS):
    """Every subspace of the stream, in stream order."""
    points = projective_points(ambient_dim, field.characteristic)
    for _, at in enumerate_subspaces(ambient_dim, dims, field, budgets):
        for basis in points[at].tolist():
            yield Subspace(field, ambient_dim, tuple(map(tuple, basis)))


def canonical_order(n, dims, p):
    """RREF bases as lists of rows, without the library: dimensions
    ascending, pivot sets lexicographically, free entries filled
    lexicographically."""
    for k in sorted(set(dims)):
        for pivots in itertools.combinations(range(n), k):
            free = [
                (r, c) for r, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in pivots
            ]
            units = [[int(c == pc) for c in range(n)] for pc in pivots]
            for fill in itertools.product(range(p), repeat=len(free)):
                rows = [row[:] for row in units]
                for (r, c), v in zip(free, fill):
                    rows[r][c] = v
                yield rows
