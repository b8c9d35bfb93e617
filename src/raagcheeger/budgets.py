"""Enumeration budgets shared by the brute-force oracles.

The exhaustive searches grow like Gaussian binomials, so every oracle checks
its input against its caps before enumerating and raises
:class:`BudgetError` naming the relevant CLI flag when a cap is exceeded.
The default caps bound the ambient dimension per characteristic and, on top,
the exact work of the search: the number of subspaces scanned, or the steps
of the q-valence min-max over projective bases.  Each work cap is the largest
count the dimension caps admit at p <= 11, so that large primes are refused
too.  An explicit dimension cap replaces both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .fields import Field

# Per-characteristic default caps on the ambient dimension of subspace /
# basis enumeration.  Unlisted primes fall back conservatively.
_SUBSPACE_DIM_DEFAULTS = {2: 8, 3: 6, 5: 5}
_SUBSPACE_DIM_FALLBACK = 4
_BASIS_DIM_DEFAULTS = {2: 4, 3: 3}
_BASIS_DIM_FALLBACK = 2
# Default caps on predicted work: the subspaces of dimension 1..4 of GF(2)^8,
# and the q-valence steps of GF(2)^4 (16 + 840 * 15^2).
_SUBSPACE_WORK_DEFAULT = 308_992
_BASIS_WORK_DEFAULT = 189_016


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


@dataclass(frozen=True)
class Budgets:
    """Caps for the three enumeration families.

    ``None`` means "use the per-field default"; an explicit int overrides it
    for every field.
    """

    subset_vertices: int = 24
    subspace_dim: int | None = None
    basis_dim: int | None = None

    def check_subspaces(self, field: Field, n: int, dims: Iterable[int]) -> None:
        """Refuse a scan of the subspaces of GF(p)^n of the given distinct dimensions."""
        cap = self.subspace_dim
        if cap is None:
            cap = _SUBSPACE_DIM_DEFAULTS.get(field.characteristic, _SUBSPACE_DIM_FALLBACK)
        if n > cap:
            raise BudgetError(
                f"subspace enumeration over {field.name} is capped at ambient dimension {cap} "
                f"(requested {n}; raise with --budget-subspaces)"
            )
        if self.subspace_dim is None:
            count = sum(gaussian_binomial(n, k, field.characteristic) for k in dims)
            if count > _SUBSPACE_WORK_DEFAULT:
                raise BudgetError(
                    f"subspace enumeration over {field.name} in dimension {n} would visit "
                    f"{count} subspaces, past the default cap of {_SUBSPACE_WORK_DEFAULT} "
                    f"(set --budget-subspaces to cap by dimension alone)"
                )

    def check_bases(self, field: Field, n: int) -> None:
        """Refuse the q-valence min-max over the projective bases of GF(p)^n.

        Its work is p^n grid vectors plus, per projective basis, a weight for
        every pair of a point and a hyperplane: p^n + bases * points^2, with
        points = (p^n - 1)/(p - 1) and bases = |GL(n, p)| / (n! (p - 1)^n).
        """
        cap = self.basis_dim
        if cap is None:
            cap = _BASIS_DIM_DEFAULTS.get(field.characteristic, _BASIS_DIM_FALLBACK)
        if n > cap:
            raise BudgetError(
                f"unordered-basis enumeration over {field.name} is capped at dimension {cap} "
                f"(requested {n}; raise with --budget-bases)"
            )
        if self.basis_dim is None:
            p = field.characteristic
            points = (p**n - 1) // (p - 1)
            bases = math.prod(p**n - p**i for i in range(n)) // (
                math.factorial(n) * (p - 1) ** n
            )
            count = p**n + bases * points**2
            if count > _BASIS_WORK_DEFAULT:
                raise BudgetError(
                    f"q-valence over {field.name} in dimension {n} would take {count} steps "
                    f"({bases} projective bases, {points} points), past the default cap of "
                    f"{_BASIS_WORK_DEFAULT} (set --budget-bases to cap by dimension alone)"
                )


DEFAULT_BUDGETS = Budgets()
