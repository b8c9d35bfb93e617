"""Enumeration budgets shared by the brute-force oracles.

The exhaustive searches grow like Gaussian binomials, so every oracle checks
its input against its caps before enumerating and raises
:class:`BudgetError` naming the relevant CLI flag when a cap is exceeded.
The default caps bound the ambient dimension per characteristic and, on top,
the exact number of subspaces or unordered bases searched: the largest count
the dimension caps admit at p <= 11, so that large primes are refused too.
An explicit dimension cap replaces both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .fields import Field

# Per-characteristic default caps on the ambient dimension of subspace /
# unordered-basis enumeration.  Unlisted primes fall back conservatively.
_SUBSPACE_DIM_DEFAULTS = {2: 8, 3: 6, 5: 5}
_SUBSPACE_DIM_FALLBACK = 4
_BASIS_DIM_DEFAULTS = {2: 4, 3: 3}
_BASIS_DIM_FALLBACK = 2
# Default caps on predicted work: the subspaces of dimension 1..4 of GF(2)^8,
# and the unordered bases of GF(11)^2.
_SUBSPACE_WORK_DEFAULT = 308_992
_BASIS_WORK_DEFAULT = 6_600


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
        """Refuse a search over the unordered bases of GF(p)^n."""
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
            count = math.prod(p**n - p**i for i in range(n)) // math.factorial(n)
            if count > _BASIS_WORK_DEFAULT:
                raise BudgetError(
                    f"unordered-basis enumeration over {field.name} in dimension {n} would "
                    f"range over {count} bases, past the default cap of {_BASIS_WORK_DEFAULT} "
                    f"(set --budget-bases to cap by dimension alone)"
                )


DEFAULT_BUDGETS = Budgets()
