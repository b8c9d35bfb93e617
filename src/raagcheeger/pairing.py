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
it, each on batches of its own stream, both in the canonical order of
:mod:`raagcheeger.linalg`.

The rank kernel takes (k, bases): batches of at most ``SUBSPACE_CHUNK``
bases S of V, each starting with F's RREF basis, as
:func:`~raagcheeger.linalg.enumerate_subspaces` streams them.  It
eliminates, and never forms the orthogonal complement
C(F): two matrix products build the matrices of a batch and one
column-by-column elimination ranks them all, on rows packed into integers
and cleared by XOR over GF(2), on residues in the narrowest numpy integer
type that cannot overflow over odd p, on Python ints in object arrays where
int64 could overflow, and over QQ on Python ints too, after scaling the
tensor and the rows of S to integers, by fraction-free elimination.  The
products sum n terms below (p - 1)^2, so they run exactly as float32 BLAS
products while n * (p - 1)^2 < 2^24 and as float64 ones while it is below
2^53.  Every reduction mod p is x - p * (x // p), whose intermediate
p * (x // p) stays within [-p * (p - 1), x] on the kernel's values.

The zero-set kernel of :mod:`raagcheeger.zerosets` takes (k, points): F's
RREF rows as projective points of V, as
:func:`~raagcheeger.linalg.enumerate_subspace_points` streams them, and
counts in bitsets over those points.  The exhaustive scan takes it, with
its stream, when its gate, :func:`~raagcheeger.zerosets.zero_sets_pay`,
admits it from exact counts before any work: a prime field with dim W > 0
and few projective points against the subspaces scanned.  QQ, large p, the
coordinate scan and single subspaces stay on the rank kernel, which the
tests also use to cross-check the zero-set kernel batch by batch.

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
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .budgets import DEFAULT_BUDGETS, Budgets
from .fields import Field, Scalar
from .linalg import (
    LinalgError, Subspace, _coordinate_batches, enumerate_subspace_points, enumerate_subspaces,
    product_types, projective_points, reduce_mod,
)
from .zerosets import pairs_blocks, zero_set_kernel, zero_sets_pay

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
COMPONENTWISE = "componentwise"


class PairingError(ValueError):
    """Malformed triple, foreign vector, or violated precondition."""


@dataclass(frozen=True)
class PairingTriple:
    """A W-valued bilinear pairing on V in tensor form.

    ``tensor[i][j]`` is the W-coordinate vector q(b_i, b_j) in the
    distinguished basis.  ``symmetry`` declares how the two slots interact;
    ``componentwise`` carries one sign per W coordinate in ``signs`` and is
    what the pivot augmentation produces in odd characteristic.
    """

    field: Field
    dim_v: int
    dim_w: int
    tensor: tuple[tuple[tuple[Scalar, ...], ...], ...]
    symmetry: str = ANTISYMMETRIC
    signs: tuple[int, ...] | None = None

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
        grid = tuple(
            tuple(tuple(x % p if p and type(x) is int else element(x) for x in w) for w in row)
            for row in tensor
        )
        if len(grid) != dim_v or any(len(row) != dim_v for row in grid):
            raise PairingError(f"tensor is not {dim_v} x {dim_v}")
        for row in grid:
            for w in row:
                if len(w) != dim_w:
                    raise PairingError(f"tensor entry of length {len(w)}, expected {dim_w}")
        if symmetry == COMPONENTWISE:
            if signs is None or len(signs) != dim_w or any(s not in (1, -1) for s in signs):
                raise PairingError("componentwise symmetry needs a +-1 sign per W coordinate")
            sign_tuple: tuple[int, ...] | None = tuple(signs)
        elif symmetry in (SYMMETRIC, ANTISYMMETRIC):
            if signs is not None:
                raise PairingError(f"{symmetry} symmetry does not take a sign list")
            sign_tuple = None
        else:
            raise PairingError(f"unknown symmetry {symmetry!r}")
        triple = PairingTriple(field, dim_v, dim_w, grid, symmetry, sign_tuple)
        triple._check_symmetry()
        return triple

    def _check_symmetry(self) -> None:
        p = self.field.characteristic
        keep = [self._sign(e) == 1 for e in range(self.dim_w)]
        for i in range(self.dim_v):
            for j in range(i, self.dim_v):
                a, b = self.tensor[i][j], self.tensor[j][i]
                want = tuple(x if k else (-x % p if p else -x) for x, k in zip(a, keep))
                if b != want:
                    e = next(e for e in range(self.dim_w) if b[e] != want[e])
                    raise PairingError(
                        f"declared {self.symmetry} symmetry violated at entry ({i}, {j}), "
                        f"W coordinate {e}"
                    )

    def _sign(self, e: int) -> int:
        if self.symmetry == SYMMETRIC:
            return 1
        if self.symmetry == ANTISYMMETRIC:
            return -1
        assert self.signs is not None
        return self.signs[e]

    def to_json_dict(self) -> dict:
        f = self.field
        sym = {"componentwise": list(self.signs)} if self.symmetry == COMPONENTWISE else self.symmetry
        return {
            "field": f.name,
            "dimV": self.dim_v,
            "dimW": self.dim_w,
            "tensor": [
                [[f.serialize_scalar(x) for x in w] for w in row] for row in self.tensor
            ],
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


def _pairing(t) -> PairingTriple:
    return getattr(t, "pairing", t)


def zero_triple(dim_v: int, dim_w: int, field: Field, symmetry: str = ANTISYMMETRIC) -> PairingTriple:
    z = field.zero
    w = tuple(z for _ in range(dim_w))
    tensor = tuple(tuple(w for _ in range(dim_v)) for _ in range(dim_v))
    return PairingTriple.of(field, dim_v, dim_w, tensor, symmetry)


# -- the rank kernel ---------------------------------------------------------


def _rank_kernel(pt: PairingTriple):
    """The eliminating kernel, built once per call: (k, a batch of completed
    bases S, an array of shape (B, n, n)) -> the arrays (rank R_F,
    rank R_F|_F), one entry per basis, F being the span of the first k rows
    of S.  It serves every field and both scans; the exhaustive scan over a
    small prime field takes :func:`~raagcheeger.zerosets.zero_set_kernel`
    instead, and the tests check the two against each other.

    R_F is the (k*m) x n matrix of the functionals v -> q(f_a, v)_e.  Its
    kernel is C = C(F), so dim C = n - rank R_F, and F n C is the kernel of
    R_F restricted to F, so dim(F n C) = k - rank R_F|_F; hence
    k * h_F = rank R_F - rank R_F|_F.  Column c of R_F|_F is R_F f_c.  S is a
    basis of V whose first k rows span F, so R_F S^T is R_F after an
    invertible column change whose first k columns are R_F|_F: one
    column-by-column elimination of it gives rank R_F|_F after k columns and
    rank R_F at the end.  A nonzero scale of the tensor or of a row of S
    changes no rank, so over QQ both are scaled to integers.

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
    tensor = pt.tensor
    if not p:
        scale = math.lcm(*(x.denominator for row in tensor for w in row for x in w))
        tensor = [[[int(x * scale) for x in w] for w in row] for row in tensor]
    # table[i, e * n + j] = q(b_i, b_j)_e: a basis row f_a times it is row
    # (a, e) of R_F at every column j, so the product reshapes to (B, k*m, n)
    table = np.array(tensor, dtype=ptype).transpose(0, 2, 1).reshape(n, m * n)

    def ranks(k: int, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        count = len(bases)
        if not m:
            return np.zeros(count, np.int64), np.zeros(count, np.int64)
        s = bases.astype(ptype, copy=False)
        r_f = s[:, :k].reshape(count * k, n) @ table
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


def _column_ranks(cols: np.ndarray, k: int, p: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a batch of matrices given column by column,
    shape (B, columns, rows), that only counts rank: (rank of all columns,
    rank of the first k columns) per matrix.  The entries are integers, in
    any numeric type; they are reduced mod p into ``dtype`` first.

    A column's pivot row is its first row with a nonzero entry there; the
    pivot row clears that entry from every row, itself included, so no row
    is a pivot twice.  Over GF(2) (with fewer than 64 columns) each row is
    packed into an integer and cleared by XOR.  Otherwise the pivot row,
    with lead its entry in the column, clears the columns right of it as
    rest <- lead * rest - column * pivot_row, fraction-free: scaling a row
    by a nonzero lead changes no rank.  Residues are reduced mod p after
    each step; lead * rest - column * pivot_row lies in
    [-(p - 1)^2, (p - 1)^2], where p * (x // p) reaches -p * (p - 1), and
    both bounds are at most n * (p - 1)^2 in size for n >= 2, so the residue
    type of :func:`_rank_kernel` holds every intermediate.  Over QQ the
    entries are Python ints, and each step divides exactly by the previous
    pivot (Bareiss 1968), so every entry stays a minor of the input.
    """
    count, n, rows = cols.shape
    at = np.arange(count)
    rank = np.zeros(count, np.int64)
    restricted = rank  # becomes a copy once the first k columns are done
    if p == 2 and n < 64:
        bits = (1 << np.arange(n)).astype(np.int8 if n < 8 else np.int64)
        packed = np.einsum("j,bjr->br", bits, reduce_mod(cols.astype(dtype), 2))
        for c in range(n):
            if c == k:
                restricted = rank.copy()
            has = (packed & bits[c]) != 0
            pivot = has.argmax(axis=1)
            rank += has[at, pivot]
            if c + 1 == n:
                break
            packed ^= has * packed[at, pivot][:, None]
        return rank, restricted
    # with the batch axis last every step is a few numpy calls over
    # contiguous blocks of B entries; pivots are flat positions in a
    # (rows, B) block, and np.take keeps its results C-contiguous where
    # fancy indexing would return them transposed
    block = np.empty((n, rows, count), dtype)
    np.copyto(block.transpose(2, 0, 1), cols, casting="unsafe")
    if p:
        reduce_mod(block, p)
    else:
        divisor = np.ones(count, dtype=object)
    for c in range(n):
        if c == k:
            restricted = rank.copy()
        column = block[c]
        at_pivot = (column != 0).argmax(axis=0) * count + at
        lead = np.take(column, at_pivot)
        found = lead != 0
        rank += found
        if c + 1 == n:
            break
        # column c is not read again, so only the columns right of it change
        rest = block[c + 1 :]
        pivot_row = np.take(rest.reshape(n - c - 1, rows * count), at_pivot, axis=1)
        rest *= np.where(found, lead, 1)
        rest -= pivot_row[:, None, :] * column
        if p:
            reduce_mod(rest, p)
        else:
            # a column without a pivot changes nothing, so nothing is divided
            rest //= np.where(found, divisor, 1)
            divisor = np.where(found, lead, divisor)
    return rank, restricted


def _completed_basis(subspace: Subspace) -> np.ndarray:
    """S for one subspace, shaped (1, n, n) like a batch of the stream: its
    basis rows, each scaled to integers by the lcm of its denominators, then
    the unit vectors of its non-leading coordinates in increasing order."""
    n = subspace.ambient_dim
    leading = set()
    rows = []
    for row in subspace.basis:
        leading.add(next(c for c, x in enumerate(row) if x))
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    rows += [[int(j == c) for j in range(n)] for c in range(n) if c not in leading]
    return np.array([rows], dtype=object)


def cheeger_of_subspace(t, subspace: Subspace) -> Fraction:
    """(dim V - dim F - dim C + dim(C n F)) / dim F for 0 < dim F <= (dim V)/2."""
    pt = _pairing(t)
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
    pt: PairingTriple, batches: Iterable[tuple[int, np.ndarray]], method: str, kernel
) -> CheegerReport:
    """Scan a nonempty stream of (k, batch) pairs for the least h_F, keeping
    the first minimizer; h_F >= 0, so the scan stops at a zero.  ``kernel``
    builds the ranks function once the first batch is in, so a refused
    stream costs no kernel work.  Inside a batch k is fixed, so the first
    argmin of the numerators is the batch's first minimum; across batches
    quotients are compared as num / k by cross-multiplication.  Only the
    reported minimizer becomes a Subspace, its rows read off the winning
    entry: the first k rows of a basis, or k point indices."""
    batches = iter(batches)
    first = next(batches)
    ranks = kernel(pt)
    best_num, best_dim = 0, 0
    best = None
    visited = 0
    for k, batch in itertools.chain([first], batches):
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
    if best.ndim == 1:
        best = projective_points(pt.dim_v, f.characteristic)[best]
    basis = tuple(tuple(f.element(x) for x in row) for row in best.tolist())
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
    stream, kernel = (
        (enumerate_subspace_points, zero_set_kernel) if zero_sets_pay(pt)
        else (enumerate_subspaces, _rank_kernel)
    )
    batches = stream(n, range(1, n // 2 + 1), pt.field, budgets)
    return _first_minimum(pt, batches, "exhaustive", kernel)


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
    return _first_minimum(pt, _coordinate_batches(n), "coordinate", _rank_kernel)


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
    pt = _pairing(t)
    best = 0
    for i in range(pt.dim_v):
        count = sum(1 for j in range(pt.dim_v) if any(pt.tensor[i][j]))
        if count > best:
            best = count
    return best


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
    old_signs = [pt._sign(e) for e in range(pt.dim_w)]
    one, zero = pt.field.one, pt.field.zero
    tensor = tuple(
        tuple(
            w + (one if i == pivot and j == pivot else zero,)
            for j, w in enumerate(row)
        )
        for i, row in enumerate(pt.tensor)
    )
    return PairingTriple.of(
        pt.field, pt.dim_v, pt.dim_w + 1, tensor, COMPONENTWISE, old_signs + [1]
    )


def is_alternating(t) -> bool:
    """True iff q(x, x) = 0 for every x: zero diagonal and an entrywise
    antisymmetric tensor.  Cup-product triples are alternating; augmented
    triples are not, which is the non-realizability witness."""
    pt = _pairing(t)
    f = pt.field
    for i in range(pt.dim_v):
        if any(pt.tensor[i][i]):
            return False
        for j in range(i + 1, pt.dim_v):
            a, b = pt.tensor[i][j], pt.tensor[j][i]
            if any(b[e] != f.neg(a[e]) for e in range(pt.dim_w)):
                return False
    return True


# -- random triples ----------------------------------------------------------


def random_triple(
    dim_v: int,
    dim_w: int,
    field: Field,
    seed,
    symmetry: str = ANTISYMMETRIC,
) -> PairingTriple:
    """Seeded random triple with the declared symmetry, over a prime field.

    Antisymmetry forces a zero diagonal in odd characteristic; over GF(2)
    the diagonal is free and sampled like any other entry.
    """
    if not field.is_prime_field:
        raise PairingError("random triples are generated over prime fields only")
    if symmetry not in (SYMMETRIC, ANTISYMMETRIC):
        raise PairingError(f"unsupported symmetry for random triples: {symmetry!r}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = field.characteristic
    grid = [[None] * dim_v for _ in range(dim_v)]
    for i in range(dim_v):
        for j in range(i, dim_v):
            w = tuple(rng.randrange(p) for _ in range(dim_w))
            if i == j:
                if symmetry == ANTISYMMETRIC and p != 2:
                    w = tuple(0 for _ in range(dim_w))
                grid[i][i] = w
            else:
                grid[i][j] = w
                if symmetry == SYMMETRIC:
                    grid[j][i] = w
                else:
                    grid[j][i] = tuple((-x) % p for x in w)
    tensor = tuple(tuple(row) for row in grid)
    return PairingTriple.of(field, dim_v, dim_w, tensor, symmetry)
