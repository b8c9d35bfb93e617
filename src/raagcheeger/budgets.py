"""Enumeration budgets shared by the brute-force oracles.

The exhaustive searches grow like Gaussian binomials, so every oracle checks
its input against its budget before enumerating.  This module decides and
words every refusal: each check raises :class:`BudgetError` naming the CLI
flag to set.  One rule applies, whether a budget is left at its default or
set by its flag: it caps the exact work of the search, computed before any
work (the subspaces scanned, or the steps of the q-valence min-max over
projective bases).  The subset scan is capped by vertex count, which bounds
its sum_{k <= n/2} C(n, k) subsets.
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
            raise BudgetError(
                f"subspace enumeration over {field.name} in dimension {n} would visit "
                f"{_stated(count)} subspaces, past the cap of {self.subspace_work} "
                f"(raise with --budget-subspaces); the coordinate fast path stays exact "
                f"for cup-product triples"
            )

    def check_coordinates(self, n: int) -> None:
        """Refuse a scan of the coordinate subspaces of dimension 1..n/2 of an
        n-dimensional space over any field: sum_{k <= n/2} C(n, k) subspaces."""
        count = 0
        for k in range(1, n // 2 + 1):
            count += math.comb(n, k)
            if count >= _EXACT_LIMIT:
                break
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
