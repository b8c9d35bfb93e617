"""Isomorphism-class keys of graphs, so that a check whose values are
invariant under relabeling runs once per class.

Graphs are bucketed by vertex count and degree sequence.  Graphs that share
a bucket, on at most :data:`KEYED_VERTICES` vertices, are keyed by their
canonical mask, the least edge bitmask over all n! relabelings; any other
graph is a class of its own.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .graphs import SimplicialGraph

# graphs on at most this many vertices are keyed over all n! relabelings:
# 5,040 at n = 7, whose table took 4-9 ms to build; n = 8's 40,320 took
# 68 ms and 9 MB
KEYED_VERTICES = 7


def _relabelings(n: int) -> tuple[list[list[int]], np.ndarray]:
    """The position of each vertex pair {i, j} among the C(n, 2) in
    lexicographic order, as an n x n table; and, per relabeling of the n
    vertices (one row each) and per pair position, the bit 2^position of
    the pair's image, as a float64, which holds every mask up to 2^21 at
    n = 7 exactly."""
    position = np.zeros((n, n), dtype=np.intp)
    i, j = np.triu_indices(n, 1)
    position[i, j] = position[j, i] = np.arange(len(i))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return position.tolist(), np.ldexp(1.0, position[perms[:, i], perms[:, j]])


def canonical_masks(n: int, edges: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The least edge bitmask over all relabelings of each graph on n
    vertices whose edges, as index pairs, are one entry of ``edges``: equal
    for two graphs on n vertices exactly when they are isomorphic.

    A relabeling's mask of a graph is the sum of its row of the table of
    :func:`_relabelings` over the graph's pair positions, so a block of
    graphs, given as the 0/1 columns of their pair positions, takes one
    exact float64 product.  Blocks hold C(n, 2) graphs, so that their
    masks take no more memory than the table itself, which is built once
    per call."""
    position, bits = _relabelings(n)
    step = max(1, bits.shape[1])
    masks = []
    for start in range(0, len(edges), step):
        block = edges[start : start + step]
        on = np.zeros((bits.shape[1], len(block)))
        on[[position[i][j] for pairs in block for i, j in pairs],
           [g for g, pairs in enumerate(block) for _ in pairs]] = 1
        masks += (bits @ on).min(axis=0).astype(np.int64).tolist()
    return masks


def class_keys(graphs: list[SimplicialGraph]) -> list:
    """One key per graph, equal for two graphs only when they are isomorphic:
    (n, canonical mask) for a graph on at most KEYED_VERTICES vertices that
    shares its bucket, and otherwise the graph's own position, as a class of
    its own.  The masks of the graphs of one vertex count are computed
    together."""
    buckets = [(g.n_vertices, tuple(sorted(g.degrees))) for g in graphs]
    keys: list = list(range(len(graphs)))
    members = {}
    for pos, bucket in enumerate(buckets):
        members.setdefault(bucket, []).append(pos)
    keyed = {}
    for (n, _), group in members.items():
        if len(group) > 1 and n <= KEYED_VERTICES:
            keyed.setdefault(n, []).extend(group)
    for n, group in keyed.items():
        for pos, mask in zip(group, canonical_masks(n, [graphs[pos].pairs for pos in group])):
            keys[pos] = (n, mask)
    return keys
