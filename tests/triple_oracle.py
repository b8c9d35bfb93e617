"""Independent triple-construction oracle: every scalar through the Field.

:meth:`raagcheeger.PairingTriple.of` reduces ``int`` entries inline into an
integer array and checks the declared symmetry by one array comparison.
This module builds the same triple the scalar-at-a-time way: each tensor
entry is coerced by :meth:`Field.element`, and each mirrored entry is
compared one W coordinate at a time, negated through :meth:`Field.neg`.  It
raises the same exceptions with the same messages, and describes the triple
it would build as canonical scalars, which :func:`described` reads off a
built triple through its public JSON form.  It is kept to cross-check the
fast path on edge cases.  The other oracles read a triple's scalars through
:func:`scalar_tensor` too, never through its array.
"""

from __future__ import annotations

from functools import lru_cache

from raagcheeger.pairing import ANTISYMMETRIC, COMPONENTWISE, SYMMETRIC, PairingError


@lru_cache(maxsize=64)
def scalar_tensor(pt) -> tuple:
    """q(b_i, b_j) as nested tuples of canonical scalars, read from the
    triple's JSON form."""
    f = pt.field
    return tuple(
        tuple(tuple(f.element(x) for x in w) for w in row) for row in pt.to_json_dict()["tensor"]
    )


def described(pt) -> tuple:
    """A built triple as :func:`triple_by_scalars` describes one."""
    return pt.field, pt.dim_v, pt.dim_w, scalar_tensor(pt), pt.symmetry, pt.signs


def triple_by_scalars(field, dim_v, dim_w, tensor, symmetry=ANTISYMMETRIC, signs=None):
    """(field, dim V, dim W, scalars, symmetry, signs) of the triple that
    :meth:`PairingTriple.of` builds from the arguments, or its exception."""
    grid = tuple(tuple(tuple(field.element(x) for x in w) for w in row) for row in tensor)
    if len(grid) != dim_v or any(len(row) != dim_v for row in grid):
        raise PairingError(f"tensor is not {dim_v} x {dim_v}")
    for row in grid:
        for w in row:
            if len(w) != dim_w:
                raise PairingError(f"tensor entry of length {len(w)}, expected {dim_w}")
    if symmetry == COMPONENTWISE:
        if signs is None or len(signs) != dim_w or any(s not in (1, -1) for s in signs):
            raise PairingError("componentwise symmetry needs a +-1 sign per W coordinate")
        sign_tuple = tuple(signs)
        per_coordinate = sign_tuple
    elif symmetry in (SYMMETRIC, ANTISYMMETRIC):
        if signs is not None:
            raise PairingError(f"{symmetry} symmetry does not take a sign list")
        sign_tuple = None
        per_coordinate = (1 if symmetry == SYMMETRIC else -1,) * dim_w
    else:
        raise PairingError(f"unknown symmetry {symmetry!r}")
    for i in range(dim_v):
        for j in range(i, dim_v):
            a, b = grid[i][j], grid[j][i]
            for e in range(dim_w):
                want = a[e] if per_coordinate[e] == 1 else field.neg(a[e])
                if b[e] != want:
                    raise PairingError(
                        f"declared {symmetry} symmetry violated at entry ({i}, {j}), "
                        f"W coordinate {e}"
                    )
    return field, dim_v, dim_w, grid, symmetry, sign_tuple
