"""q-valence of a (V, W, q) pairing triple: the exhaustive min-max over
projective bases and hyperplanes, and the coordinate value over the
distinguished basis, exact for cup-product triples.

Its only link to the Cheeger scans of :mod:`raagcheeger.pairing` is the
zero-set table over projective points that the zero-set kernel counts in,
built by :func:`~raagcheeger.zerosets.write_zero_sets`, which it unpacks
and inverts into q(x, y) != 0.
"""

from __future__ import annotations

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .linalg import LinalgError, projective_frame
from .zerosets import write_zero_sets


def _pairing(t):
    """The pairing triple itself, or the one a triple built from a graph
    carries in its ``pairing`` attribute, as :mod:`raagcheeger.pairing`
    reads it: this module imports nothing from there."""
    return getattr(t, "pairing", t)


QVALENCE_CHUNK_BYTES = 1 << 18
"""Size of the largest temporary of the q-valence min-max, in one-byte
entries: the combinations tested for independence and the bases scanned
per numpy step are chunked to stay within it."""


def q_valence_coordinate(t) -> int:
    """d_B(B) with B the distinguished basis: the largest number of basis
    vectors any single basis vector pairs nontrivially with.

    An upper bound on the q-valence in general, and exactly the q-valence for
    cup-product triples.
    """
    return int((_pairing(t).tensor != 0).any(axis=2).sum(axis=1).max(initial=0))


def q_valence_exhaustive(t, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """min over unordered bases S and B of max_{s in S} #{b in B : q(s, b) != 0}.

    With w_B(x) = #{b in B : q(x, b) != 0}, this is computed as
    min_B max_H min_{x not in H} w_B(x) over hyperplanes H, because for each
    B, min_S max_{s in S} w_B(s) = max_H min_{x not in H} w_B(x):

    - the set {x : w_B(x) <= t} spans V exactly when it lies in no hyperplane;
    - every basis S meets the complement of every hyperplane.

    Scaling a vector changes neither w_B nor the basis property, so x, the
    vectors of B and the normals of H all range over projective points.
    Per chunk of bases, the weights are n in-place adds of gathered columns
    of q(x, y) != 0, and the min-max is a numpy reduction; temporaries take
    at most :data:`QVALENCE_CHUNK_BYTES` entries.  Refuses over non-prime
    fields and past the basis budgets (see :meth:`Budgets.check_bases`)
    before any work (:func:`refuse_q_valence`).
    """
    pt = _pairing(t)
    n, m = pt.dim_v, pt.dim_w
    refuse_q_valence(pt.field, n, budgets)
    if n == 0 or m == 0:
        return 0
    p = pt.field.characteristic
    points, outside, bases = projective_frame(n, p, QVALENCE_CHUNK_BYTES)
    zero = np.zeros((len(points), -(-len(points) // 8)), np.uint8)
    write_zero_sets(pt, zero, QVALENCE_CHUNK_BYTES)
    # pairs[x, y] = 1 where q(x, y) != 0, else 0
    pairs = np.unpackbits(zero, axis=1, count=len(points), bitorder="little")
    pairs ^= 1
    # on[x, h] is all ones where point x lies on hyperplane h and 0 off it;
    # no weight exceeds n < 255, so OR-ing it in hides exactly the points on h
    on = np.where(outside, 0, 255).astype(np.uint8)
    best = n
    step = max(1, QVALENCE_CHUNK_BYTES // outside.size)
    for chunk in np.split(bases, range(step, len(bases), step)):
        # weights[x, c] = w_B(x) for the c-th basis B of the chunk
        weights = np.take(pairs, chunk[:, 0], axis=1)
        for column in chunk.T[1:]:
            weights += np.take(pairs, column, axis=1)
        least_off = (weights[:, None, :] | on[:, :, None]).min(axis=0)
        best = min(best, int(least_off.max(axis=0).min()))
        if not best:
            break
    return best


def refuse_q_valence(field, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> None:
    """Raise what :func:`q_valence_exhaustive` raises for a triple over
    ``field`` with dim V = n, before any work: for n > 0, a field that is
    not prime, then the basis budget."""
    if n:
        if not field.is_prime_field:
            raise LinalgError("non-enumerable field: basis enumeration needs a prime field")
        budgets.check_bases(field, n)
