"""Independent oracle for the exact graph Cheeger constant.

A pure-Python scan over every admissible vertex subset, sizes ascending and
index combinations in lexicographic order, keeping the first minimizer by a
strict comparison and stopping at the first subset with an empty boundary.
``graphs.cheeger_graph_exact`` must report the same value, minimizer and
visit count.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from raagcheeger.graphs import GraphCheegerResult, SimplicialGraph


def cheeger_by_subset_loop(graph: SimplicialGraph) -> GraphCheegerResult:
    n = graph.n_vertices
    assert n >= 2
    adj_masks = []
    for v in graph.vertices:
        m = 0
        for w in graph.adjacency[v]:
            m |= 1 << graph.index[w]
        adj_masks.append(m)
    best: Fraction | None = None
    best_set: tuple[str, ...] = ()
    visited = 0
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(n), size):
            visited += 1
            mask = 0
            nb = 0
            for i in combo:
                mask |= 1 << i
                nb |= adj_masks[i]
            h = Fraction((nb & ~mask).bit_count(), size)
            if best is None or h < best:
                best = h
                best_set = tuple(graph.vertices[i] for i in combo)
                if not h:
                    return GraphCheegerResult(best, best_set, visited)
    assert best is not None
    return GraphCheegerResult(best, best_set, visited)
