"""Enumeration budgets shared by the brute-force oracles.

The exhaustive searches grow like Gaussian binomials, so every oracle checks
its input against its budget before enumerating.  This module decides and
words every refusal: each check raises :class:`BudgetError` naming the CLI
flag to set.  One rule applies, whether a budget is left at its default or
set by its flag: it caps the exact work of the search, computed before any
work (the subspaces scanned, or the steps of the q-valence min-max over
projective bases).  The subset scan is capped by vertex count, which bounds
its sum_{k <= n/2} C(n, k) subsets.

Three caps have no flag, since past them the work is out of reach in any
budget a user would wait for: the labeled graphs ``--all-graphs`` builds,
the vertices and edges of a ``--family`` graph, and the vertices of the
dense spectral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .fields import Field

# Counting stops at 2^_EXACT_BITS, so that a refusal stays cheap and its
# message short however large the input.
_EXACT_BITS = 400
_EXACT_LIMIT = 2**_EXACT_BITS


class BudgetError(ValueError):
    """An enumeration would exceed its configured budget."""


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(p)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def _stated(count: int) -> str:
    return str(count) if count < _EXACT_LIMIT else f"at least 2^{_EXACT_BITS}"


def _coordinate_count(n: int) -> int:
    """sum_{k <= n/2} C(n, k), the coordinate subspaces of dimension 1..n/2,
    counted up to 2^_EXACT_BITS."""
    count = 0
    for k in range(1, n // 2 + 1):
        count += math.comb(n, k)
        if count >= _EXACT_LIMIT:
            break
    return count


# every labeled graph on 6 vertices: verify-theorem --all-graphs 6 took
# 2.1-2.7 s as one CLI call, one check per isomorphism class, while building
# the first 100,000 of the 2^21 graphs on 7 vertices took 1.7 s, so about
# 36 s for all of them before any check
ALL_GRAPHS_CAP = 2**15

# vertices plus edges of one --family graph: complete(2000), the largest
# complete graph the dense spectral route takes, has 2,001,000 and took
# 1.4 s to build, path(2^20) 0.9 s and margulis(647), the slowest family per
# edge, 6.5 s (about 0.3-0.4 GB each); complete(30000) would have 450 M
FAMILY_GRAPH_CAP = 2**21

# eigvalsh on the dense Laplacian of a path took 0.68 s at 2,000 vertices,
# 2.0 s at 3,000 and 5.4 s at 4,000 (growing as n^3), and the matrix takes
# 8 n^2 bytes: 32 MB at the cap
DENSE_SPECTRAL_VERTICES = 2_000


def check_all_graphs(n: int) -> None:
    """Refuse to build the 2^C(n,2) labeled graphs on n >= 0 vertices past
    ALL_GRAPHS_CAP, before any is built."""
    pairs = n * (n - 1) // 2
    count = 2**pairs if pairs < _EXACT_BITS else _EXACT_LIMIT
    if n >= 0 and count > ALL_GRAPHS_CAP:
        raise BudgetError(
            f"--all-graphs {n} would build {_stated(count)} labeled graphs, past the cap of "
            f"{ALL_GRAPHS_CAP} (every graph on 6 vertices)"
        )


def check_family_graph(flag: str, size: int, family: str, vertices: int, edges: int) -> None:
    """Refuse to build a --family graph of ``vertices`` vertices and at most
    ``edges`` edges past FAMILY_GRAPH_CAP of both together, before it is
    built."""
    if vertices + edges > FAMILY_GRAPH_CAP:
        raise BudgetError(
            f"{flag} {size} would build a graph of {vertices} vertices and up to {edges} edges "
            f"(--family {family}), past the cap of {FAMILY_GRAPH_CAP} vertices plus edges"
        )


def check_dense_spectrum(n: int) -> None:
    """Refuse the dense n x n Laplacian of the spectral route past
    DENSE_SPECTRAL_VERTICES vertices, before it is allocated."""
    if n > DENSE_SPECTRAL_VERTICES:
        raise BudgetError(
            f"dense spectral bounds capped at {DENSE_SPECTRAL_VERTICES} vertices (requested {n}; "
            f"its Laplacian would take {8 * n * n} bytes)"
        )


@dataclass(frozen=True)
class Budgets:
    """Caps for the three enumeration families.

    ``subset_vertices`` caps the vertex count of the exact graph scan.
    ``subspace_work`` caps the subspaces a scan visits, exhaustive or
    coordinate, and ``basis_work`` the steps of the q-valence min-max.  The
    defaults are the subspaces of dimension 1..4 of GF(2)^8, which admit the
    coordinate scans up to dimension 19, and the q-valence steps of GF(2)^4
    (16 + 840 * 15^2).
    """

    subset_vertices: int = 24
    subspace_work: int = 308_992
    basis_work: int = 189_016

    def check_subsets(self, n: int) -> None:
        """Refuse the exact Cheeger scan of a graph on n vertices."""
        if n > self.subset_vertices:
            raise BudgetError(
                f"exact subset enumeration capped at {self.subset_vertices} vertices "
                f"(requested {n}; raise with --budget-subsets or use spectral bounds)"
            )

    def check_subspaces(self, field: Field, n: int, dims: Iterable[int]) -> None:
        """Refuse a scan of the subspaces of GF(p)^n of the given distinct dimensions."""
        count = 0
        for k in dims:
            count += gaussian_binomial(n, k, field.characteristic)
            if count >= _EXACT_LIMIT:
                break
        if count > self.subspace_work:
            advice = ""
            if _coordinate_count(n) <= self.subspace_work:
                advice = "; the coordinate fast path stays exact for cup-product triples"
            raise BudgetError(
                f"subspace enumeration over {field.name} in dimension {n} would visit "
                f"{_stated(count)} subspaces, past the cap of {self.subspace_work} "
                f"(raise with --budget-subspaces){advice}"
            )

    def check_coordinates(self, n: int) -> None:
        """Refuse a scan of the coordinate subspaces of dimension 1..n/2 of an
        n-dimensional space over any field: sum_{k <= n/2} C(n, k) subspaces."""
        count = _coordinate_count(n)
        if count > self.subspace_work:
            raise BudgetError(
                f"coordinate subspace scan in dimension {n} would visit {_stated(count)} "
                f"subspaces, past the cap of {self.subspace_work} (raise with --budget-subspaces)"
            )

    def check_bases(self, field: Field, n: int) -> None:
        """Refuse the q-valence min-max over the projective bases of GF(p)^n.

        Its work is p^n grid vectors plus, per projective basis, a weight for
        every pair of a point and a hyperplane: p^n + bases * points^2, with
        points = (p^n - 1)/(p - 1) and bases = |GL(n, p)| / (n! (p - 1)^n).
        """
        p = field.characteristic
        points = (p**n - 1) // (p - 1)
        den = math.factorial(n) * (p - 1) ** n
        num = 1
        for i in range(n):
            num *= p**n - p**i
            if num >= den * _EXACT_LIMIT:
                break
        bases = num // den
        count = p**n + bases * points**2
        if count > self.basis_work:
            raise BudgetError(
                f"q-valence over {field.name} in dimension {n} would take {_stated(count)} "
                f"steps ({_stated(bases)} projective bases, {_stated(points)} points), past "
                f"the cap of {self.basis_work} (raise with --budget-bases); the coordinate "
                f"upper bound is exact for cup-product triples"
            )


DEFAULT_BUDGETS = Budgets()
