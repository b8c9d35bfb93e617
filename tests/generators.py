"""Seeded test inputs: random and zero pairing triples, and samples of
labeled graphs.

Only the tests build their inputs this way; the program takes its triples
from graphs (:func:`raagcheeger.build_triple`) or from JSON.  Every seeded
expectation in the suite rests on these exact outputs, which
``test_generators_are_pinned`` fixes by hash.
"""

from __future__ import annotations

import itertools
import random

from raagcheeger import Field, GraphError, PairingError, PairingTriple, SimplicialGraph
from raagcheeger.graphs import _labels
from raagcheeger.pairing import ANTISYMMETRIC, SYMMETRIC


def zero_triple(dim_v: int, dim_w: int, field: Field, symmetry: str = ANTISYMMETRIC) -> PairingTriple:
    z = field.zero
    w = tuple(z for _ in range(dim_w))
    tensor = tuple(tuple(w for _ in range(dim_v)) for _ in range(dim_v))
    return PairingTriple.of(field, dim_v, dim_w, tensor, symmetry)


def random_triple(
    dim_v: int,
    dim_w: int,
    field: Field,
    seed,
    symmetry: str = ANTISYMMETRIC,
) -> PairingTriple:
    """Seeded random triple with the declared symmetry, over a prime field.

    Antisymmetry forces a zero diagonal in odd characteristic; over GF(2)
    the diagonal is free and sampled like any other entry.
    """
    if not field.is_prime_field:
        raise PairingError("random triples are generated over prime fields only")
    if symmetry not in (SYMMETRIC, ANTISYMMETRIC):
        raise PairingError(f"unsupported symmetry for random triples: {symmetry!r}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = field.characteristic
    grid = [[None] * dim_v for _ in range(dim_v)]
    for i in range(dim_v):
        for j in range(i, dim_v):
            w = tuple(rng.randrange(p) for _ in range(dim_w))
            if i == j:
                if symmetry == ANTISYMMETRIC and p != 2:
                    w = tuple(0 for _ in range(dim_w))
                grid[i][i] = w
            else:
                grid[i][j] = w
                if symmetry == SYMMETRIC:
                    grid[j][i] = w
                else:
                    grid[j][i] = tuple((-x) % p for x in w)
    tensor = tuple(tuple(row) for row in grid)
    return PairingTriple.of(field, dim_v, dim_w, tensor, symmetry)


def sample_labeled_graphs(n: int, count: int, seed: int) -> list[SimplicialGraph]:
    """Seeded sample of distinct labeled n-vertex graphs, without replacement."""
    vs = _labels(n)
    pairs = list(itertools.combinations(vs, 2))
    total = 1 << len(pairs)
    if count > total:
        raise GraphError(f"cannot sample {count} distinct graphs from {total}")
    rng = random.Random(seed)
    masks = rng.sample(range(total), count)
    return [
        SimplicialGraph.of(vs, [e for k, e in enumerate(pairs) if (mask >> k) & 1])
        for mask in masks
    ]
