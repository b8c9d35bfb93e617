"""(V, W, q) pairing triples: subspace Cheeger constants, q-valence,
pairing-connectedness, and the pivot augmentation.

Every mini-max invariant comes in two flavors that are never silently
substituted for one another: an exhaustive oracle that covers the whole
search space (every subspace; for q-valence, every basis against every
hyperplane) and, where a distinguished basis makes it legitimate, a
coordinate fast path restricted to that basis.
Verification code compares them explicitly.

Every subspace Cheeger computation reads one pair of ranks per subspace F,
(rank R_F, rank R_F|_F), with h_F = (rank R_F - rank R_F|_F) / dim F and
R_F the matrix of v -> (q(f_a, v))_a over a basis of F.  Two kernels give
it, both on batches of the one stream of
:func:`~raagcheeger.linalg.enumerate_subspaces`, (k, points): F's RREF rows
as projective points of V, in the canonical order.

The rank kernel completes each F's rows to a basis S of V, with one decode
per batch, and never forms the orthogonal complement C(F): two exact
matrix products with the triple's integer tensor build the matrices of a
batch, and one column-by-column elimination ranks them all
(:func:`_rank_kernel`).  The coordinate scan's S permutes the basis, so
its matrices are gathered from the tensor with no product and go to the
same elimination.  Both scans read their batches in slices of at most
``POINT_BATCH_BYTES // n^2`` subspaces.

The zero-set kernel of :mod:`raagcheeger.zerosets` reads the point batches
as they are and counts in bitsets over those points.  The exhaustive scan
takes it when its gate, :func:`~raagcheeger.zerosets.zero_sets_pay`,
admits it before any work: a prime field, dim W > 0, dim V >= 4, where the
scan visits more subspaces than V has projective points, and a table that
fits its cap.  Large p, dim V <= 3, the coordinate scan and single
subspaces stay on the rank kernel, which the tests also use to cross-check
the zero-set kernel batch by batch.  A zero pairing, dim W = 0, has h = 0
at the first subspace, and its exhaustive scan reports that subspace
without building a batch.

The scans build a :class:`Subspace` only for the minimizer they report.
Pairing-connectedness is decided as h > 0, which is exact for dim V >= 2
(see :func:`pairing_connected_from_report`).

Functions accept either a bare :class:`PairingTriple` or any object carrying
one in a ``pairing`` attribute (such as the cohomology triples built from
graphs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .budgets import DEFAULT_BUDGETS, Budgets
from .fields import Field
from .linalg import (
    LinalgError, Subspace, _column_ranks, _coordinate_batches, enumerate_subspaces,
    product_types, projective_points, reduce_mod,
)
from .zerosets import pairs_blocks, zero_set_kernel, zero_sets_pay

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
COMPONENTWISE = "componentwise"


class PairingError(ValueError):
    """Malformed triple, foreign vector, or violated precondition."""


@dataclass(frozen=True, eq=False)
class PairingTriple:
    """A W-valued bilinear pairing on V in tensor form.

    ``tensor[i, j]`` is q(b_i, b_j) in the distinguished basis of W, times
    ``denominator``, in a read-only (dim V, dim V, dim W) integer array:
    residues over GF(p), int64 while p - 1 fits and Python ints past that;
    Python ints over QQ, with the lcm of the reduced denominators.  Equality
    reads every field and the array's shape and values.  ``symmetry``
    declares how the two slots interact; ``componentwise`` carries one sign
    per W coordinate in ``signs`` and is what the pivot augmentation
    produces in odd characteristic.
    """

    field: Field
    dim_v: int
    dim_w: int
    tensor: np.ndarray
    symmetry: str = ANTISYMMETRIC
    signs: tuple[int, ...] | None = None
    denominator: int = 1

    @staticmethod
    def of(
        field: Field,
        dim_v: int,
        dim_w: int,
        tensor: Iterable[Iterable[Iterable]],
        symmetry: str = ANTISYMMETRIC,
        signs: Sequence[int] | None = None,
    ) -> "PairingTriple":
        # ints reduce inline; every other value takes Field.element's checks
        p, element = field.characteristic, field.element
        grid = [
            [[x % p if p and type(x) is int else element(x) for x in w] for w in row]
            for row in tensor
        ]
        if len(grid) != dim_v or any(len(row) != dim_v for row in grid):
            raise PairingError(f"tensor is not {dim_v} x {dim_v}")
        for row in grid:
            for w in row:
                if len(w) != dim_w:
                    raise PairingError(f"tensor entry of length {len(w)}, expected {dim_w}")
        if symmetry == COMPONENTWISE:
            if signs is None or len(signs) != dim_w or any(s not in (1, -1) for s in signs):
                raise PairingError("componentwise symmetry needs a +-1 sign per W coordinate")
            signs = tuple(signs)
        elif symmetry in (SYMMETRIC, ANTISYMMETRIC):
            if signs is not None:
                raise PairingError(f"{symmetry} symmetry does not take a sign list")
        else:
            raise PairingError(f"unknown symmetry {symmetry!r}")
        denominator = 1 if p else math.lcm(*(x.denominator for row in grid for w in row for x in w))
        if not p:
            grid = [[[x.numerator * (denominator // x.denominator) for x in w] for w in row] for row in grid]
        ints = np.array(grid, object).reshape(dim_v, dim_v, dim_w)
        return PairingTriple(field, dim_v, dim_w, ints, symmetry, signs, denominator)

    def __post_init__(self) -> None:
        # the integers given become the read-only array, reduced mod p
        p = self.field.characteristic
        t = self.tensor.astype(np.int64 if 0 < p <= 2**63 else object)
        if p:
            t %= p
        t.flags.writeable = False
        object.__setattr__(self, "tensor", t)
        # tensor[j, i] must be the declared image of tensor[i, j]; violations
        # come in pairs (i, j, e), (j, i, e), so the first one has i <= j
        want = np.where(np.equal(self._signs(), 1), t, _negated(t, p))
        violated = np.argwhere(t.transpose(1, 0, 2) != want)
        if len(violated):
            i, j, e = violated[0]
            raise PairingError(
                f"declared {self.symmetry} symmetry violated at entry ({i}, {j}), "
                f"W coordinate {e}"
            )

    def _signs(self) -> tuple[int, ...]:
        """The sign of each W coordinate under swapping the two slots."""
        return self.signs or (1 if self.symmetry == SYMMETRIC else -1,) * self.dim_w

    def _key(self) -> tuple:
        t = self.tensor
        return self.field, self.symmetry, self.signs, self.denominator, t.shape, *t.ravel().tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, PairingTriple) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def to_json_dict(self) -> dict:
        f = self.field
        sym = {"componentwise": list(self.signs)} if self.symmetry == COMPONENTWISE else self.symmetry
        tensor, d = self.tensor.tolist(), self.denominator
        if not f.characteristic:
            tensor = [[[f.serialize_scalar(Fraction(x, d)) for x in w] for w in row] for row in tensor]
        return {
            "field": f.name,
            "dimV": self.dim_v,
            "dimW": self.dim_w,
            "tensor": tensor,
            "symmetry": sym,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "PairingTriple":
        field = Field.from_name(data["field"])
        sym = data["symmetry"]
        if isinstance(sym, dict):
            return PairingTriple.of(
                field, data["dimV"], data["dimW"], data["tensor"],
                COMPONENTWISE, sym["componentwise"],
            )
        return PairingTriple.of(field, data["dimV"], data["dimW"], data["tensor"], sym)


def _negated(tensor: np.ndarray, p: int) -> np.ndarray:
    """-tensor, over GF(p) as residues."""
    return (p - tensor) % p if p else -tensor


def _pairing(t) -> PairingTriple:
    return getattr(t, "pairing", t)


# -- the rank kernel ---------------------------------------------------------


def _rank_kernel(pt: PairingTriple):
    """The eliminating kernel, built once per call: (k, a batch) -> the
    arrays (rank R_F, rank R_F|_F), one entry per subspace F.  A batch of
    shape (B, n, n) holds completed bases S, F being the span of the first
    k rows of S; one of shape (B, k), a batch of the exhaustive stream,
    holds F's RREF rows as projective points, which one decode completes
    to the same S (:func:`_completion`).  It serves every field; the
    exhaustive scan over a small prime field takes
    :func:`~raagcheeger.zerosets.zero_set_kernel` instead, the coordinate
    scan :func:`_coordinate_kernel`, and the tests check them against it.

    R_F is the (k*m) x n matrix of the functionals v -> q(f_a, v)_e.  Its
    kernel is C = C(F), so dim C = n - rank R_F, and F n C is the kernel of
    R_F restricted to F, so dim(F n C) = k - rank R_F|_F; hence
    k * h_F = rank R_F - rank R_F|_F.  Column c of R_F|_F is R_F f_c.  S is a
    basis of V whose first k rows span F, so R_F S^T is R_F after an
    invertible column change whose first k columns are R_F|_F: one
    column-by-column elimination of it gives rank R_F|_F after k columns and
    rank R_F at the end.  A nonzero scale of the tensor or of a row of S
    changes no rank, so over QQ both are integers.

    Arithmetic is exact.  Residues live in the narrowest numpy integer type
    that holds n * (p - 1)^2, and in object arrays of Python ints past int64
    and over QQ.  Each of the two products sums n terms below (p - 1)^2, so
    its partial sums are integers in [0, n * (p - 1)^2]; they run as float32
    BLAS products while that bound is below 2^24 and as float64 ones below
    2^53, where every such integer is a float, and are cast back to the
    integer type.  Past 2^53 they stay integer or object products, the only
    exact ones there.
    """
    p = pt.field.characteristic
    n, m = pt.dim_v, pt.dim_w
    dtype, ptype = product_types(n, p)
    # table[i, e * n + j] = q(b_i, b_j)_e: a basis row f_a times it is row
    # (a, e) of R_F at every column j, so the product reshapes to (B, k*m, n)
    table = pt.tensor.astype(ptype).transpose(0, 2, 1).reshape(n, m * n)

    def ranks(k: int, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = len(batch)
        if batch.ndim == 2:
            rows, bits, units = _completion(n, p)
            f = rows.take(batch, axis=0)
            s = units.take(bits.take(batch.T).sum(axis=0), axis=0)
            s[:, :k] = f
        else:
            s = batch.astype(ptype, copy=False)
            f = s[:, :k]
        r_f = f.reshape(count * k, n) @ table
        if p:
            r_f = reduce_mod(r_f.astype(dtype, copy=False), p)
        # r_t[b, j] is column j of R_F, its k*m entries ordered (a, e); the
        # second product is about twice as slow on a transposed view
        r_t = r_f.reshape(count, k * m, n).transpose(0, 2, 1).astype(ptype, order="C")
        del r_f
        # cols[b, c] is column c of R_F S^T for the b-th F
        cols = s @ r_t
        del r_t
        return _column_ranks(cols, k, p, dtype)

    return ranks


def _coordinate_kernel(pt: PairingTriple):
    """The rank kernel's (k, orders) -> (rank R_F, rank R_F|_F) for the
    coordinate scan.  Row b of ``orders`` holds the k coordinates of the b-th
    F, then the others: a permutation S of the basis.  So column c of R_F S^T
    is q(b_{order[a]}, b_{order[c]})_e at row (a, e), gathered with no product."""
    n, p = pt.dim_v, pt.field.characteristic
    dtype = product_types(n, p)[0]
    tensor = pt.tensor.astype(dtype)  # the elimination's type holds every residue

    def ranks(k: int, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cols = tensor[orders[:, None, :k], orders[:, :, None]].reshape(len(orders), n, k * pt.dim_w)
        return _column_ranks(cols, k, p, dtype)

    return ranks


@lru_cache(maxsize=8)
def _completion(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, bits, units) that complete a point batch of GF(p)^n to bases
    S of V, in the rank kernel's product type.  rows are the
    :func:`~raagcheeger.linalg.projective_points`.  bits[x] = 2^c for the
    leading column c of point x, which is n - 1 - w in block w.  For a set
    P of columns, given by its bitmask, units[P] holds the unit vectors of
    the columns on P, then those off P, each in increasing order.  F's RREF
    rows lead at its k pivot columns, so the bits of its points sum to its
    pivot set's mask, and rows k.. of units[mask] are the unit vectors
    that complete F's basis.  From n = 4 on, the 2^n masks are no more
    than the [n, n/2]_p >= p^(floor(n/2) ceil(n/2)) subspaces of the scan's
    largest dimension; below, they are at most 8."""
    ptype = product_types(n, p)[1]
    rows = projective_points(n, p).astype(ptype)
    bits = np.repeat(1 << np.arange(n - 1, -1, -1), [p**w for w in range(n)])
    off = 1 - (np.arange(2**n)[:, None] >> np.arange(n) & 1)
    units = np.eye(n, dtype=ptype)[np.argsort(off, axis=1, kind="stable")]
    return rows, bits, units


def _completed_basis(subspace: Subspace) -> np.ndarray:
    """S for one subspace, shaped (1, n, n) like a batch of the stream: its
    basis rows, each scaled to integers by the lcm of its denominators, then
    the unit vectors of its non-leading coordinates in increasing order."""
    n, basis = subspace.ambient_dim, subspace.basis
    leading = {next(c for c, x in enumerate(row) if x) for row in basis}
    scales = [math.lcm(*(x.denominator for x in row)) for row in basis]
    rows = [[int(x * scale) for x in row] for row, scale in zip(basis, scales)]
    rows += [[int(j == c) for j in range(n)] for c in range(n) if c not in leading]
    return np.array([rows], dtype=object)


def cheeger_of_subspace(t, subspace: Subspace) -> Fraction:
    """(dim V - dim F - dim C + dim(C n F)) / dim F for 0 < dim F <= (dim V)/2.

    Refuses a subspace whose basis is not its own canonical RREF."""
    pt = _pairing(t)
    if Subspace.from_vectors(subspace.field, subspace.ambient_dim, subspace.basis) != subspace:
        raise PairingError("subspace basis is not canonical RREF: build it with Subspace.from_vectors")
    j = subspace.dim
    if j == 0 or 2 * j > pt.dim_v:
        raise PairingError(
            f"Cheeger quotient needs 0 < dim F <= {pt.dim_v}/2, got dim F = {j}"
        )
    if subspace.field != pt.field or subspace.ambient_dim != pt.dim_v:
        raise PairingError("subspace does not live in the triple's V")
    rank, rank_restricted = _rank_kernel(pt)(j, _completed_basis(subspace))
    return Fraction(int(rank[0] - rank_restricted[0]), j)


# -- Cheeger constants -------------------------------------------------------


@dataclass(frozen=True)
class CheegerReport:
    """Outcome of a Cheeger minimization.  ``value`` None means undefined
    (no admissible subspace exists, i.e. dim V < 2)."""

    value: Fraction | None
    minimizer: Subspace | None
    method: str
    subspaces_visited: int

    def to_json_dict(self) -> dict:
        return {
            "value": "undefined" if self.value is None else str(self.value),
            "minimizer": None if self.minimizer is None else self.minimizer.to_json_dict(),
            "method": self.method,
            "subspaces_visited": self.subspaces_visited,
        }


def _first_minimum(
    pt: PairingTriple, batches: Iterable[tuple[int, np.ndarray]], method: str, ranks, rows
) -> CheegerReport:
    """Scan a nonempty stream of (k, batch) pairs with the kernel's
    ``ranks`` for the least h_F, keeping the first minimizer; h_F >= 0, so
    the scan stops at a zero.  Inside a batch k is fixed, so the first
    argmin of the numerators is the batch's first minimum; across batches
    quotients are compared as num / k by cross-multiplication.  Only the
    reported minimizer becomes a Subspace: the first k entries of its batch
    row index its basis rows in the table ``rows()``."""
    best_num, best_dim = 0, 0
    best = None
    visited = 0
    for k, batch in batches:
        rank, rank_restricted = ranks(k, batch)
        nums = rank - rank_restricted
        i = int(nums.argmin())
        num = int(nums[i])
        if best is None or num * best_dim < best_num * k:
            best_num, best_dim, best = num, k, batch[i, :k]
            if not num:
                visited += i + 1
                break
        visited += len(batch)
    f = pt.field
    basis = tuple(tuple(f.element(x) for x in row) for row in rows()[best].tolist())
    return CheegerReport(Fraction(best_num, best_dim), Subspace(f, pt.dim_v, basis), method, visited)


def cheeger_constant_exhaustive(t, budgets: Budgets = DEFAULT_BUDGETS) -> CheegerReport:
    """Minimum of h_F over every subspace with 1 <= dim F <= (dim V)/2.

    Over a finite field the infimum is attained, so the report carries a
    witnessing minimizer: the first one in canonical enumeration order.
    h_F >= 0 always, so the scan stops early at a zero.
    """
    pt = _pairing(t)
    n = pt.dim_v
    if n < 2:
        return CheegerReport(None, None, "exhaustive", 0)
    batches = enumerate_subspaces(n, range(1, n // 2 + 1), pt.field, budgets)
    if not pt.dim_w:
        # a zero pairing has h_F = 0 at the first subspace, the line of e_0;
        # over a field as large as GF(2^61 - 1) no point batch can be built
        first = Subspace(pt.field, n, ((1,) + (0,) * (n - 1),))
        return CheegerReport(Fraction(0), first, "exhaustive", 1)
    # built at the end: the stream first refuses a field too large for it
    points = partial(projective_points, n, pt.field.characteristic)
    if zero_sets_pay(pt):
        return _first_minimum(pt, batches, "exhaustive", zero_set_kernel(pt), points)
    return _first_minimum(pt, _rank_slices(batches, n), "exhaustive", _rank_kernel(pt), points)


def _rank_slices(batches: Iterable[tuple[int, np.ndarray]], n: int):
    """The batches in slices of at most POINT_BATCH_BYTES // n^2 subspaces: whole
    point batches outgrow the cache, and slices of 512 pay the decode too often."""
    step = max(1, linalg.POINT_BATCH_BYTES // (n * n))
    return ((k, rows[i : i + step]) for k, rows in batches for i in range(0, len(rows), step))


def cheeger_constant_coordinate(t, budgets: Budgets = DEFAULT_BUDGETS) -> CheegerReport:
    """Minimum of h_F over coordinate subspaces of the distinguished basis.

    For cup-product triples this equals the exhaustive minimum; for a general
    triple it is only an upper bound.  Past the budgets (see
    :meth:`Budgets.check_coordinates`) it raises :class:`BudgetError` before
    any work.
    """
    pt = _pairing(t)
    n = pt.dim_v
    if n < 2:
        return CheegerReport(None, None, "coordinate", 0)
    budgets.check_coordinates(n)
    batches = _rank_slices(_coordinate_batches(n), n)
    return _first_minimum(pt, batches, "coordinate", _coordinate_kernel(pt), partial(np.eye, n, dtype=int))


# -- q-valence ---------------------------------------------------------------


QVALENCE_CHUNK_BYTES = 1 << 18
"""Size of the largest temporary of the q-valence min-max, in one-byte
entries: the combinations tested for independence and the bases scanned
per numpy step are chunked to stay within it."""


@lru_cache(maxsize=8)
def _projective_frame(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, outside, bases) for GF(p)^n: the projective points of
    :func:`~raagcheeger.linalg.projective_points`; outside[h, x] =
    (h . x != 0), reading point h as the normal of a hyperplane; and every
    projective basis as a row of n point indices, the n-subsets no
    hyperplane holds.
    """
    points = projective_points(n, p)
    outside = reduce_mod(points @ points.T, p) != 0
    combos = itertools.combinations(range(len(points)), n)
    step = max(1, QVALENCE_CHUNK_BYTES // (len(points) * n))
    bases = []
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, step)), dtype=np.intp
        ).reshape(-1, n)
        if not len(chunk):
            break
        # outside is symmetric, so outside[chunk.T][j, c, h] says point j of
        # combination c lies off hyperplane h
        bases.append(chunk[outside[chunk.T].any(axis=0).all(axis=1)])
    return points, outside, np.concatenate(bases)


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
    before any work.
    """
    pt = _pairing(t)
    n, m = pt.dim_v, pt.dim_w
    if n == 0:
        return 0
    if not pt.field.is_prime_field:
        raise LinalgError("non-enumerable field: basis enumeration needs a prime field")
    budgets.check_bases(pt.field, n)
    if m == 0:
        return 0
    p = pt.field.characteristic
    points, outside, bases = _projective_frame(n, p)
    pairs = np.concatenate(list(pairs_blocks(pt, points, QVALENCE_CHUNK_BYTES))).view(np.uint8)
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


# -- pairing-connectedness ---------------------------------------------------


def pairing_connected_from_report(report: CheegerReport) -> bool:
    """Pairing-connectedness read off an exhaustive Cheeger report: h > 0, or
    dim V <= 1, where the value is undefined.  A coordinate report is refused:
    its value is only an upper bound on h, so h > 0 there proves nothing.

    For dim V >= 2, V is pairing-connected (no nontrivial direct-sum
    decomposition V0 + V1 of V pairs to zero identically) iff h > 0.  Recall
    h_F = (n - dim(F + C)) / dim F with C = C(F).  If V = V0 + V1 is such a
    split, let F be the smaller summand and G the other: G lies in C(F), so
    F + C(F) = V and h_F = 0.  Conversely, if h_F = 0 then F + C = V; take V1
    a complement of F n C inside C.  Then F + V1 = F + C = V and F n V1 = 0,
    so V = F + V1 is a direct sum with q(F, V1) = 0, and V1 is nonzero
    because dim V1 = n - dim F >= n/2.
    """
    if report.method != "exhaustive":
        raise PairingError(
            f"pairing-connectedness needs an exhaustive Cheeger report, got {report.method}"
        )
    return report.value is None or report.value > 0


def is_pairing_connected_exhaustive(t, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """True iff no nontrivial direct-sum decomposition V0 + V1 of V pairs to
    zero identically, decided as h > 0 by the exhaustive Cheeger scan (see
    :func:`pairing_connected_from_report`)."""
    return pairing_connected_from_report(cheeger_constant_exhaustive(t, budgets))


# -- augmentation and the alternating witness --------------------------------


def augment_triple(t, pivot: int) -> PairingTriple:
    """Extend W by one coordinate that pairs the pivot basis vector with itself.

    The new coordinate is symmetric while the old ones keep their signs, so
    the result is recorded with componentwise symmetry.  The output is a bare
    pairing triple: whatever cohomology provenance the input had does not
    survive augmentation.
    """
    pt = _pairing(t)
    if not 0 <= pivot < pt.dim_v:
        raise PairingError(f"pivot {pivot} outside basis range 0..{pt.dim_v - 1}")
    column = np.zeros((pt.dim_v, pt.dim_v, 1), pt.tensor.dtype)
    column[pivot, pivot] = pt.denominator
    ints = np.concatenate([pt.tensor, column], axis=2)
    return PairingTriple(pt.field, pt.dim_v, pt.dim_w + 1, ints, COMPONENTWISE, pt._signs() + (1,), pt.denominator)


def is_alternating(t) -> bool:
    """True iff q(x, x) = 0 for every x: zero diagonal and an entrywise
    antisymmetric tensor.  Cup-product triples are alternating; augmented
    triples are not, which is the non-realizability witness."""
    pt = _pairing(t)
    t = pt.tensor
    nonzero_diagonal = (t.diagonal() != 0).any()
    return not nonzero_diagonal and np.array_equal(t.transpose(1, 0, 2), _negated(t, pt.field.characteristic))
