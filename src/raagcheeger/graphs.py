"""Finite simplicial graphs: validation, boundary and valence, the exact
graph Cheeger constant, spectral bounds, generators, and I/O.

A graph is simplicial when it has no self-loops and no repeated edges;
:meth:`SimplicialGraph.of` enforces both, and the generators build index
pairs that are valid by construction.  Vertex subsets are plain iterables
of labels, validated against the parent graph by every operation that
takes one.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets, check_dense_spectrum
from .linalg import popcount


class GraphError(ValueError):
    """Malformed graph, foreign vertex, or violated precondition."""


class CheegerUndefinedError(GraphError):
    """Cheeger constant requested for a graph with no admissible subset."""


@dataclass(frozen=True)
class SimplicialGraph:
    """An undirected, loop-free, multi-edge-free graph with labeled vertices.

    ``pairs`` holds each edge once as its (i, j) vertex-index pair, i < j,
    sorted lexicographically, and ``edges`` the same edges by label in the
    same order; equality and hashing read the labels.  :meth:`of` validates
    labeled edges, while the generators build the pairs directly, valid by
    construction.  ``degrees`` is counted once from the pairs.  Every
    production reader indexes the pairs: valence, connectivity, the exact
    scan's closed neighbourhoods, the Laplacian, the cup-product triple and
    the isomorphism keys.  ``index`` and the label-keyed ``adjacency`` serve
    the subset functions :func:`boundary` and :func:`cheeger_of_subset`, and
    the tests' oracles.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    pairs: tuple[tuple[int, int], ...] = field(repr=False, compare=False)

    @staticmethod
    def of(vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> "SimplicialGraph":
        verts = tuple(map(str, vertices))
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(verts)}
        seen: set[tuple[int, int]] = set()
        for e in edges:
            u, v = map(str, e)
            if u not in index:
                raise GraphError(f"edge ({u}, {v}) uses undeclared vertex {u!r}")
            if v not in index:
                raise GraphError(f"edge ({u}, {v}) uses undeclared vertex {v!r}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u!r} is not simplicial")
            i, j = index[u], index[v]
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise GraphError(f"repeated edge ({u}, {v}) is not simplicial")
            seen.add((i, j))
        return _from_pairs(verts, sorted(seen))

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        degree = [0] * len(self.vertices)
        for i, j in self.pairs:
            degree[i] += 1
            degree[j] += 1
        return tuple(degree)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_dict(data: dict) -> "SimplicialGraph":
        return SimplicialGraph.of(data["vertices"], data["edges"])

    def to_edgelist(self) -> str:
        """Line format: "n m" header then one "u v" pair per line.

        Vertex labels are implicit (v0 .. v{n-1}); serializing a graph with
        any other labels is an error, use JSON for those.
        """
        expected = tuple(f"v{i}" for i in range(self.n_vertices))
        if self.vertices != expected:
            raise GraphError("edgelist format requires implicit labels v0..v{n-1}; use JSON")
        lines = [f"{self.n_vertices} {self.n_edges}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_edgelist(text: str) -> "SimplicialGraph":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not lines:
            raise GraphError("empty edgelist input")
        try:
            n, m = (int(x) for x in lines[0].split())
        except ValueError:
            raise GraphError(f"bad edgelist header {lines[0]!r}, expected 'n m'") from None
        if len(lines) - 1 != m:
            raise GraphError(f"edgelist header promises {m} edges, found {len(lines) - 1}")
        verts = [f"v{i}" for i in range(n)]
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphError(f"bad edgelist line {ln!r}, expected 'u v'")
            edges.append((parts[0], parts[1]))
        return SimplicialGraph.of(verts, edges)


def _from_pairs(verts: tuple[str, ...], pairs: Iterable[tuple[int, int]]) -> SimplicialGraph:
    """The graph on ``verts`` with these index pairs, which must be sorted,
    distinct and i < j < len(verts): not checked."""
    pairs = tuple(pairs)
    return SimplicialGraph(verts, tuple([(verts[i], verts[j]) for i, j in pairs]), pairs)


# -- boundary and Cheeger ----------------------------------------------------


def _check_subset(graph: SimplicialGraph, members: Iterable[str]) -> set[str]:
    a = {str(v) for v in members}
    for v in a:
        if v not in graph.index:
            raise GraphError(f"subset member {v!r} is not a vertex of the graph")
    return a


def boundary(graph: SimplicialGraph, members: Iterable[str]) -> frozenset[str]:
    """Vertices outside the subset that are adjacent to at least one member."""
    a = _check_subset(graph, members)
    out: set[str] = set()
    for v in a:
        out.update(graph.adjacency[v])
    return frozenset(out - a)


def cheeger_of_subset(graph: SimplicialGraph, members: Iterable[str]) -> Fraction:
    """|boundary(A)| / |A| for a nonempty A with at most half the vertices."""
    a = _check_subset(graph, members)
    if not a:
        raise GraphError("Cheeger quotient of the empty subset is undefined")
    if 2 * len(a) > graph.n_vertices:
        raise GraphError(
            f"subset of size {len(a)} exceeds half of {graph.n_vertices} vertices"
        )
    return Fraction(len(boundary(graph, a)), len(a))


@dataclass(frozen=True)
class GraphCheegerResult:
    value: Fraction
    minimizer: tuple[str, ...]
    subsets_visited: int

    def to_json_dict(self) -> dict:
        return {
            "h": str(self.value),
            "minimizer": list(self.minimizer),
            "subsets_visited": self.subsets_visited,
        }


def cheeger_graph_exact(
    graph: SimplicialGraph, budgets: Budgets = DEFAULT_BUDGETS
) -> GraphCheegerResult:
    """Exact minimum of |boundary(A)|/|A| over nonempty A with 2|A| <= n.

    Meet in the middle: the vertices split into a low part [0, s) and a high
    part [s, n), with s = max(n // 2, min(n, LOW_PART_MIN)).  For each
    popcount i, a table of the i-subsets of a part holds their masks and
    their closed neighbourhoods N[A] (A and its neighbours, as a mask), in
    lexicographic order, built when a size first needs it.  A k-subset is a
    low i-subset joined to a high (k - i)-subset, its closed neighbourhood
    is the OR of theirs, and its boundary is popcount(N[A]) - k, computed by
    numpy broadcasting over blocks of at most SUBSET_CHUNK subsets.

    The result is the first minimizer in (size, lexicographic) order, reached
    without visiting subsets in that order.  Per size, the least boundary
    b_k is kept with its lexicographically first subset: within one split
    the row-major order of the low x high grid is lexicographic, so the
    first argmin is the first minimizer there, and across splits the index
    tuples are compared.  Across sizes, b_k / k must be strictly smaller to
    replace the best.  Zero is a global minimum, so the scan stops after the
    first size with a zero; ``subsets_visited`` then counts the subsets up
    to the minimizer in (size, lexicographic) order: every k-subset of a
    size up to the minimizer's, less those after it in lexicographic order,
    which number sum_t C(n - 1 - c_t, k - t) for its sorted indices c_t,
    t = 0..k-1.  Without a zero every admissible subset is visited.  Masks
    are int64 below 64 vertices and Python ints in object arrays from 64 on.
    """
    n = graph.n_vertices
    if n < 2:
        raise CheegerUndefinedError(
            f"Cheeger constant undefined on {n} vertex/vertices: no admissible subset"
        )
    budgets.check_subsets(n)
    closed = [1 << v for v in range(n)]
    for i, j in graph.pairs:
        closed[i] |= 1 << j
        closed[j] |= 1 << i
    dtype = np.int64 if n < 64 else object
    s = max(n // 2, min(n, LOW_PART_MIN))
    low = _subset_tables(range(s), closed, dtype)
    high = _subset_tables(range(s, n), closed, dtype)
    best_b, best_k, best_combo = 1, 0, ()  # 1/0 stands for no subset yet
    visited = 0
    for k in range(1, n // 2 + 1):
        b, combo = _least_boundary(k, low, high, s, n)
        if b * best_k < best_b * k:
            best_b, best_k, best_combo = b, k, combo
        visited += math.comb(n, k)
        if not b:
            visited -= sum(math.comb(n - 1 - c, k - t) for t, c in enumerate(combo))
            break
    return GraphCheegerResult(
        Fraction(best_b, best_k), tuple(graph.vertices[i] for i in best_combo), visited
    )


# Subsets per broadcast block of the exact scan: a block is a run of rows of
# the low x high grid, or a run of columns within one row.  Measured on a
# shared 2-vCPU machine, on the graph-family benchmark's random 3-regular
# graphs of 12-20 vertices (seed 101, median of 40 rounds), the scans took
# 10.2 ms at 4,096, 9.5 ms at 8,192, 8.7-9.1 ms at 16,384 and 8.8-9.0 ms at
# 32,768, and one 24-vertex 3-regular graph 47 ms at 4,096 and 30 ms at
# 16,384; the traced peak of the 20-vertex scan is 269 KB at 4,096, 429 KB
# at 16,384 and 575 KB at 32,768
SUBSET_CHUNK = 16384
# Fewest vertices in the low part of the exact scan (all of a smaller graph):
# a graph of up to 12 vertices scans one split per size, which keeps the
# numpy calls per graph few, and from 24 vertices on the parts are halves.
LOW_PART_MIN = 12


def _subset_tables(verts: range, closed: list[int], dtype):
    """A function of i giving the i-subsets of ``verts`` as an array
    (2, C(len(verts), i)) of their masks (row 0) and closed neighbourhoods
    (row 1), in the lexicographic order of their index tuples; each table
    is built from the one before when first asked for."""
    members = np.array([[1 << v for v in verts], [closed[v] for v in verts]], dtype)
    groups = [np.zeros((2, 1), dtype)]

    def group(i: int) -> np.ndarray:
        while len(groups) <= i:
            parent, last = _extensions(len(verts), len(groups))
            # take, unlike [:, index], returns C-contiguous rows
            groups.append(groups[-1].take(parent, axis=1) | members.take(last, axis=1))
        return groups[i]

    return group


@lru_cache(maxsize=None)
def _extensions(h: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic i-subsets of range(h) as extensions of the
    (i - 1)-subsets: subset t is (i - 1)-subset parent[t] plus member
    last[t], larger than all of that subset's members.  Extending each
    (i - 1)-subset in lexicographic order by each larger member in turn,
    which is the row-major order of nonzero(), lists the i-subsets in
    lexicographic order."""
    prev_last = _extensions(h, i - 1)[1] if i > 1 else np.array([-1])
    return np.nonzero(prev_last[:, None] < np.arange(h))


def _least_boundary(k: int, low, high, s: int, n: int) -> tuple[int, tuple[int, ...]]:
    """The least boundary over k-subsets and the lexicographically first
    k-subset, as sorted indices, that attains it.  Per split, blocks of the
    low x high grid are scanned in row-major order and the first argmin of
    |N[A]| is kept; |N[A]| = k, an empty boundary, ends the split."""
    best = (n + 1, ())
    for i in range(max(0, k - (n - s)), min(k, s) + 1):
        lo, hi = low(i), high(k - i)
        width = hi.shape[1]
        rows, cols = max(1, SUBSET_CHUNK // width), min(width, SUBSET_CHUNK)
        least = n + 1
        for r, c in itertools.product(range(0, lo.shape[1], rows), range(0, width, cols)):
            sizes = popcount(lo[1, r : r + rows, None] | hi[1, c : c + cols], n)
            at = sizes.argmin()
            if sizes.flat[at] < least:
                least = int(sizes.flat[at])
                row, col = divmod(int(at), sizes.shape[1])
                mask = int(lo[0, r + row]) | int(hi[0, c + col])
                if least == k:
                    break
        best = min(best, (least - k, tuple(v for v in range(n) if mask >> v & 1)))
    return best


def max_valence(graph: SimplicialGraph) -> int:
    """Largest vertex degree; 0 for the empty or edgeless graph."""
    return max(graph.degrees, default=0)


def is_connected(graph: SimplicialGraph) -> bool:
    """Standard connectivity; empty and one-vertex graphs count as connected."""
    # union-find over the index pairs, halving paths: each pair that joins
    # two components leaves one fewer
    parent = list(range(graph.n_vertices))
    components = len(parent)
    for i, j in graph.pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            components -= 1
    return components <= 1


# -- spectral bounds ---------------------------------------------------------


def laplacian_second_eigenvalue(graph: SimplicialGraph) -> float:
    """Algebraic connectivity of a connected graph: the second-smallest
    eigenvalue of the dense Laplacian, by LAPACK's symmetric eigensolver.
    Past DENSE_SPECTRAL_VERTICES the budget refuses it, before any work."""
    n = graph.n_vertices
    if n < 2:
        raise GraphError("second Laplacian eigenvalue needs at least 2 vertices")
    check_dense_spectrum(n)
    if not is_connected(graph):
        raise GraphError("spectral bounds require a connected graph")
    return float(np.linalg.eigvalsh(_laplacian(graph))[1])


def _laplacian(graph: SimplicialGraph) -> np.ndarray:
    """The dense float64 Laplacian: the degrees on the diagonal, and -1 at
    (i, j) and (j, i) for each index pair."""
    n = graph.n_vertices
    i, j = np.array(graph.pairs, dtype=np.intp).reshape(-1, 2).T
    lap = np.zeros((n, n), dtype=np.float64)
    lap[i, j] = lap[j, i] = -1.0
    np.fill_diagonal(lap, graph.degrees)
    return lap


def spectral_cheeger_bounds(graph: SimplicialGraph) -> tuple[float, float]:
    """Floating-point sandwich lower <= h <= upper for a connected graph.

    For the vertex-boundary Cheeger constant the valid discrete Cheeger
    inequalities are lambda2/(2*d_max) <= h <= sqrt(2*d_max*lambda2): each
    crossing edge meets the vertex boundary, and a boundary vertex absorbs at
    most d_max crossing edges.  (The edge-expansion bound lambda2/2 fails for
    the vertex version: K4 has lambda2/2 = 2 but h = 1.)
    """
    lam2 = laplacian_second_eigenvalue(graph)
    dmax = max_valence(graph)
    lower = lam2 / (2.0 * dmax)
    upper = float(np.sqrt(2.0 * dmax * lam2))
    return lower, upper


# -- generators --------------------------------------------------------------


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def edgeless(n: int) -> SimplicialGraph:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return _from_pairs(_labels(n), ())


def cycle(n: int) -> SimplicialGraph:
    if n < 3:
        raise GraphError("a simplicial cycle needs at least 3 vertices")
    return _from_pairs(_labels(n), sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))


def path(n: int) -> SimplicialGraph:
    if n < 1:
        raise GraphError("a path needs at least 1 vertex")
    return _from_pairs(_labels(n), [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> SimplicialGraph:
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    return _from_pairs(_labels(n), itertools.combinations(range(n), 2))


def star(leaves: int) -> SimplicialGraph:
    """K_{1,leaves}: a hub adjacent to ``leaves`` pendant vertices."""
    if leaves < 0:
        raise GraphError("leaf count must be nonnegative")
    return _from_pairs(_labels(leaves + 1), [(0, v) for v in range(1, leaves + 1)])


def random_regular(n: int, d: int, seed: int) -> SimplicialGraph:
    """Random d-regular graph via the pairing model with whole-attempt rejection.

    Deterministic for a fixed seed.  Requires n*d even and 0 <= d < n.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise GraphError(f"unsatisfiable degree sequence: n={n}, d={d}")
    if d == 0:
        return edgeless(n)
    rng = random.Random(seed)
    for _ in range(100_000):
        stubs = [i for i in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        ok = True
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b:
                ok = False
                break
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                ok = False
                break
            seen.add((a, b))
        if ok:
            return _from_pairs(_labels(n), sorted(seen))
    raise GraphError(f"pairing model failed to produce a simple {d}-regular graph on {n} vertices")


def margulis_like(m: int) -> SimplicialGraph:
    """Degree-<=8 Gabber--Galil style graph on (Z/mZ)^2, reduced to a simple graph.

    Loops and duplicate pairs produced by the eight affine maps are discarded.
    """
    if m < 2:
        raise GraphError("margulis_like needs m >= 2")
    pairs: set[tuple[int, int]] = set()
    for x in range(m):
        for y in range(m):
            images = [
                (x + 2 * y, y),
                (x - 2 * y, y),
                (x + 2 * y + 1, y),
                (x - 2 * y - 1, y),
                (x, y + 2 * x),
                (x, y - 2 * x),
                (x, y + 2 * x + 1),
                (x, y - 2 * x - 1),
            ]
            here = x * m + y
            for a, b in images:
                img = a % m * m + b % m
                if img != here:
                    pairs.add((min(here, img), max(here, img)))
    return _from_pairs(_labels(m * m), sorted(pairs))


def labeled_graphs(n: int) -> Iterator[SimplicialGraph]:
    """All 2^C(n,2) labeled graphs on vertices v0..v{n-1}, by ascending edge mask."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    vs = _labels(n)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(vs[i], vs[j]) for i, j in pairs]
    # bit k of a mask is pair k, so the masks count up through the product
    # of the bits with the last pair's first
    return (
        SimplicialGraph(vs, tuple(itertools.compress(edges, bits)), tuple(itertools.compress(pairs, bits)))
        for bits in (b[::-1] for b in itertools.product((0, 1), repeat=len(pairs)))
    )
