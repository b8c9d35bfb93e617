"""Test helpers: the batched subspace stream as one Subspace per subspace,
and an independent enumeration of the same canonical order.

``enumerate_subspaces`` yields (k, bases) batches of RREF bases completed to
bases of the whole space; tests that want to compare, hash or print
individual subspaces read the first k rows of each through here.
"""

from __future__ import annotations

import itertools

from raagcheeger import DEFAULT_BUDGETS, Subspace, enumerate_subspaces


def subspaces(ambient_dim, dims, field, budgets=DEFAULT_BUDGETS):
    """Every subspace of the stream, in stream order."""
    for k, bases in enumerate_subspaces(ambient_dim, dims, field, budgets):
        for basis in bases[:, :k].tolist():
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
