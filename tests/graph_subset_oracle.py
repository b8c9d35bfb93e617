"""Independent oracles for the graph side.

``cheeger_by_subset_loop`` is a pure-Python scan over every admissible
vertex subset, sizes ascending and index combinations in lexicographic
order, keeping the first minimizer by a strict comparison and stopping at
the first subset with an empty boundary.  ``graphs.cheeger_graph_exact``
must report the same value, minimizer and visit count.

The others stand in for the readers that index ``SimplicialGraph.pairs``.
They read the labeled edges and the label-keyed ``adjacency`` instead, as
the package did before it kept the index pairs: the Laplacian by a loop over
the edges, connectivity by a search over labels, and the Margulis-style
family by its eight affine maps on labels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

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


def laplacian_by_edge_loop(graph: SimplicialGraph) -> np.ndarray:
    n = graph.n_vertices
    lap = np.zeros((n, n), dtype=np.float64)
    for u, v in graph.edges:
        i, j = graph.index[u], graph.index[v]
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def connected_by_search(graph: SimplicialGraph) -> bool:
    if graph.n_vertices <= 1:
        return True
    seen = {graph.vertices[0]}
    stack = [graph.vertices[0]]
    while stack:
        for w in graph.adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n_vertices


def margulis_by_labels(m: int) -> SimplicialGraph:
    def label(x: int, y: int) -> str:
        return f"v{(x % m) * m + (y % m)}"

    edges = set()
    for x, y in itertools.product(range(m), repeat=2):
        here = label(x, y)
        for img in (
            label(x + 2 * y, y), label(x - 2 * y, y), label(x + 2 * y + 1, y), label(x - 2 * y - 1, y),
            label(x, y + 2 * x), label(x, y - 2 * x), label(x, y + 2 * x + 1), label(x, y - 2 * x - 1),
        ):
            if img != here:
                edges.add(frozenset((here, img)))
    return SimplicialGraph.of([f"v{i}" for i in range(m * m)], [tuple(e) for e in edges])
