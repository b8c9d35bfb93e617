"""Independent test oracle: the orthogonal complement C(F), built explicitly.

The library reads every subspace Cheeger constant off one numpy rank kernel,
h_F = (rank R_F - rank R_F|_F) / dim F, and never forms C(F).  This module
forms it the way the definition reads: q(x, y) by bilinear expansion of the
tensor in scalar arithmetic, on the scalars of the triple's JSON form, C(F) = {v : q(f, v) = 0 for all f in F} as the
null space of the rows v -> q(f, v)_e, and F n C by Zassenhaus.  It shares
with the library only the triple, the RREF accumulator and :class:`Subspace`,
so the tests can compare the two routes on the same subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from raagcheeger import LinalgError, PairingError, Subspace
from raagcheeger.linalg import _Echelon, reduce_mod
from raagcheeger.pairing import _pairing
from triple_oracle import scalar_tensor


def add(field, a, b):
    """a + b in GF(p) or QQ, for canonical scalars of ``field``."""
    field.check(a), field.check(b)
    p = field.characteristic
    return (a + b) % p if p else a + b


def mul(field, a, b):
    """a * b in GF(p) or QQ, for canonical scalars of ``field``."""
    field.check(a), field.check(b)
    p = field.characteristic
    return a * b % p if p else a * b


def entrywise_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """Entrywise inverse of an array of nonzero scalars: 1/x over QQ,
    x^(p-2) mod p over GF(p) by square-and-multiply."""
    if not p:
        return Fraction(1) / x
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = reduce_mod(out * x, p)
        e >>= 1
        if e:
            x = reduce_mod(x * x, p)
    return out


def null_space(field, n: int, rows) -> Subspace:
    """{v : row . v = 0 for every row}: one vector per free column of the
    RREF of the rows, with 1 there and minus the column's entries at the
    pivots."""
    ech = _Echelon(field)
    for row in rows:
        ech.insert([field.element(x) for x in row])
    pivots = set(ech.pivots)
    vectors = []
    for c in range(n):
        if c in pivots:
            continue
        v = [field.zero] * n
        v[c] = field.one
        for r, pc in zip(ech.rows, ech.pivots):
            v[pc] = field.neg(r[c])
        vectors.append(v)
    return Subspace.from_vectors(field, n, vectors)


def apply_pairing(t, x: Sequence, y: Sequence) -> tuple:
    """q(x, y) as a W-coordinate tuple; bilinear in each slot."""
    pt = _pairing(t)
    f = pt.field
    xv = [f.element(v) for v in x]
    yv = [f.element(v) for v in y]
    if len(xv) != pt.dim_v or len(yv) != pt.dim_v:
        raise PairingError(f"vectors must have length {pt.dim_v}")
    tensor = scalar_tensor(pt)
    acc = [f.zero] * pt.dim_w
    for i, xi in enumerate(xv):
        for j, yj in enumerate(yv):
            if xi and yj:
                c = mul(f, xi, yj)
                acc = [add(f, a, mul(f, c, w)) for a, w in zip(acc, tensor[i][j])]
    return tuple(acc)


def orthogonal_complement(t, subspace: Subspace) -> Subspace:
    """C = {v : q(f, v) = 0 for every f in the subspace}.

    The declared (anti)symmetry makes the left and right complements agree,
    so only one side is computed: the null space of the rows v -> q(f, v)_e.
    """
    pt = _pairing(t)
    if subspace.field != pt.field or subspace.ambient_dim != pt.dim_v:
        raise PairingError("subspace does not live in the triple's V")
    n = pt.dim_v
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    rows = []
    for vec in subspace.basis:
        images = [apply_pairing(pt, vec, u) for u in units]
        rows += [[w[e] for w in images] for e in range(pt.dim_w)]
    return null_space(pt.field, n, rows)


def _require_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise LinalgError(
            f"ambient mismatch: {a.field.name}^{a.ambient_dim} vs {b.field.name}^{b.ambient_dim}"
        )


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [A|A] over [B|0]; zero-left rows carry A n B."""
    _require_compatible(a, b)
    n = a.ambient_dim
    ech = _Echelon(a.field)
    for row in a.basis:
        ech.insert(list(row) + list(row))
    for row in b.basis:
        ech.insert(list(row) + [a.field.zero] * n)
    vectors = [r[n:] for r, piv in zip(ech.rows, ech.pivots) if piv >= n]
    return Subspace(a.field, n, tuple(tuple(v) for v in vectors))
