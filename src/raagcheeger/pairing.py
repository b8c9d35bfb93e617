"""(V, W, q) pairing triples: subspace Cheeger constants,
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
same elimination.

Both scans run over a stack of triples that share a field and dim V
(:func:`cheeger_constants`): the batch axis of every kernel spans (triple,
subspace) pairs, so one kernel call ranks a batch for the whole stack.  The
rank and coordinate kernels read the stack's tensors zero-padded to its
largest dim W, which changes no rank, and read their batches in slices of
at most ``POINT_BATCH_BYTES // n^2`` pairs, of more subspaces as triples
leave; a stack is as large as those slices and the zero-set table allow
(:func:`stack_size`), and the stacks of one run build their stream once.
Each triple keeps its own first minimizer and leaves the stack at its
first zero, so its report is the one its own scan, a stack of one, gives.

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
(see :func:`pairing_connected_from_report`).  q-valence lives in
:mod:`raagcheeger.qvalence`, and its two functions are importable from here.

Functions accept either a bare :class:`PairingTriple` or any object carrying
one in a ``pairing`` attribute (such as the cohomology triples built from
graphs).
"""

from __future__ import annotations

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
    Subspace, _column_ranks, _coordinate_batches, enumerate_subspaces, product_types,
    projective_points, reduce_mod,
)
from .qvalence import q_valence_coordinate, q_valence_exhaustive
from .zerosets import zero_set_kernel, zero_set_stack, zero_sets_pay

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


def _rank_kernel(*pts: PairingTriple):
    """The eliminating kernel, built once per call for a stack of triples
    ``pts`` over one field with one dim V: (k, a batch, live) -> the arrays
    (rank R_F, rank R_F|_F), one entry per pair of a triple of the stack at
    the positions ``live`` (all by default) and a subspace F of the batch,
    triple-major.  A batch of shape (B, n, n) holds completed bases S, F
    being the span of the first k rows of S; one of shape (B, k), a batch
    of the exhaustive stream, holds F's RREF rows as projective points,
    which one decode completes to the same S (:func:`_completion`).  It
    serves every field; the exhaustive scan over a small prime field takes
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
    changes no rank, so over QQ both are integers.  The stack's tensors are
    zero-padded to the largest dim W m, and a zero W coordinate adds only
    zero rows to R_F, which change no rank.

    Arithmetic is exact.  Residues live in the narrowest numpy integer type
    that holds n * (p - 1)^2, and in object arrays of Python ints past int64
    and over QQ.  Each of the two products sums n terms below (p - 1)^2, so
    its partial sums are integers in [0, n * (p - 1)^2]; they run as float32
    BLAS products while that bound is below 2^24 and as float64 ones below
    2^53, where every such integer is a float, and are cast back to the
    integer type.  Past 2^53 they stay integer or object products, the only
    exact ones there.
    """
    p = pts[0].field.characteristic
    n, m = pts[0].dim_v, max(pt.dim_w for pt in pts)
    dtype, ptype = product_types(n, p)
    # table[i, t, e * n + j] = q_t(b_i, b_j)_e: a basis row f_a times it is
    # row (a, e) of the t-th triple's R_F at every column j
    table = np.zeros((n, len(pts), m, n), ptype)
    for t, pt in enumerate(pts):
        table[:, t, : pt.dim_w] = pt.tensor.transpose(0, 2, 1)
    table = table.reshape(n, len(pts), m * n)
    everyone = np.arange(len(pts))

    def ranks(k: int, batch: np.ndarray, live: np.ndarray = everyone) -> tuple[np.ndarray, np.ndarray]:
        count = len(batch)
        if batch.ndim == 2:
            rows, bits, units = _completion(n, p)
            f = rows.take(batch, axis=0)
            s = units.take(bits.take(batch.T).sum(axis=0), axis=0)
            s[:, :k] = f
        else:
            s = batch.astype(ptype, copy=False)
            f = s[:, :k]
        stack = table if len(live) == len(pts) else table[:, live]
        r_f = f.reshape(count * k, n) @ stack.reshape(n, len(live) * m * n)
        if p:
            r_f = reduce_mod(r_f.astype(dtype, copy=False), p)
        # r_t[l, b, j] is column j of R_F for the l-th live triple and the
        # b-th F, its k*m entries ordered (a, e); the second product is about
        # twice as slow on a transposed view
        r_t = r_f.reshape(count, k, len(live), m, n).transpose(2, 0, 4, 1, 3).astype(ptype, order="C")
        del r_f
        # cols[l, b, c] is column c of R_F S^T
        cols = s[None] @ r_t.reshape(len(live), count, n, k * m)
        del r_t
        return _column_ranks(cols.reshape(len(live) * count, n, k * m), k, p, dtype)

    return ranks


def _coordinate_kernel(*pts: PairingTriple):
    """The rank kernel's (k, orders, live) -> (rank R_F, rank R_F|_F) for the
    coordinate scan of a stack of triples.  Row b of ``orders`` holds the k
    coordinates of the b-th F, then the others: a permutation S of the
    basis.  So column c of R_F S^T is q(b_{order[a]}, b_{order[c]})_e at row
    (a, e), gathered with no product from the live triples' tensors,
    zero-padded to the largest dim W."""
    n, p = pts[0].dim_v, pts[0].field.characteristic
    m = max(pt.dim_w for pt in pts)
    dtype = product_types(n, p)[0]
    # the elimination's type holds every residue; row i * n + j of a triple
    # holds q(b_i, b_j)
    tensor = np.zeros((len(pts), n * n, m), dtype)
    for t, pt in enumerate(pts):
        tensor[t, :, : pt.dim_w] = pt.tensor.reshape(n * n, pt.dim_w)
    everyone = np.arange(len(pts))

    def ranks(k: int, orders: np.ndarray, live: np.ndarray = everyone) -> tuple[np.ndarray, np.ndarray]:
        stack = tensor if len(live) == len(pts) else tensor[live]
        # one np.take along the rows, about twice as fast as indexing by
        # the two index arrays, and three times for a stack of eight
        at = orders[:, None, :k].astype(np.intp) * n + orders[:, :, None]
        cols = np.take(stack, at.ravel(), axis=1)
        return _column_ranks(cols.reshape(len(live) * len(orders), n, k * m), k, p, dtype)

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


def _first_minima(
    pts: Sequence[PairingTriple], batches: Iterable[tuple[int, np.ndarray]], method: str, ranks, rows,
    pair_bytes: int = 0,
) -> list[CheegerReport]:
    """Scan a nonempty stream of (k, batch) pairs with the kernel's
    ``ranks`` for each triple's least h_F, keeping its first minimizer;
    h_F >= 0, so a triple leaves the stack at its first zero, and the scan
    stops when none is left.  Inside a batch k is fixed, so the first argmin
    of a triple's numerators is its batch's first minimum; across batches
    quotients are compared as num / k by cross-multiplication.  Only a
    reported minimizer becomes a Subspace: the first k entries of its batch
    row index its basis rows in the table ``rows()``.

    A rank kernel takes ``pair_bytes`` per pair of a live triple and a
    subspace, so its batches are ranked in slices of at most
    POINT_BATCH_BYTES // (pair_bytes * live triples) subspaces, as many as
    the triples left allow: whole point batches outgrow the cache, and
    slices of 512 pay the decode too often.  The zero-set kernel slices its
    batches itself."""
    best = [(1, 0, None)] * len(pts)  # 1/0 stands for no subspace yet
    visited = [0] * len(pts)
    alive = list(range(len(pts)))
    live = np.arange(len(pts))
    for k, whole in batches:
        start = 0
        while alive and start < len(whole):
            step = max(1, linalg.POINT_BATCH_BYTES // (pair_bytes * len(alive))) if pair_bytes else len(whole)
            batch = whole[start : start + step]
            start += step
            rank, rank_restricted = ranks(k, batch, live)
            nums = (rank - rank_restricted).reshape(len(alive), len(batch))
            left = []
            for l, (t, i) in enumerate(zip(alive, nums.argmin(axis=1).tolist())):
                num = int(nums[l, i])
                if num * best[t][1] < best[t][0] * k:
                    # a copy: a view would hold the whole batch to the end
                    best[t] = num, k, batch[i, :k].copy()
                # a zero is a first minimum, and its triple leaves the stack
                visited[t] += i + 1 if not num else len(batch)
                if num:
                    left.append(t)
            if len(left) < len(alive):
                alive, live = left, np.array(left, np.intp)
        if not alive:
            break
    f, table = pts[0].field, rows()
    return [
        CheegerReport(Fraction(num, k), Subspace(f, pt.dim_v, tuple(
            tuple(f.element(x) for x in row) for row in table[r].tolist())), method, v)
        for pt, (num, k, r), v in zip(pts, best, visited)
    ]


def stack_size(field: Field, n: int) -> int:
    """The most triples over ``field`` with dim V = n that one scan takes as
    one stack, from the byte caps of its kernels: the rank kernels' slices
    hold POINT_BATCH_BYTES // n^2 pairs of a triple and a subspace, at
    least one subspace per triple, and a zero-set table holds
    :func:`~raagcheeger.zerosets.zero_set_stack` triples where its gate
    admits them."""
    size = max(1, linalg.POINT_BATCH_BYTES // max(1, n * n))
    return min(size, zero_set_stack(field, n) or size)


def cheeger_constants(
    triples: Sequence, method: str = "exhaustive", budgets: Budgets = DEFAULT_BUDGETS, read: dict | None = None
) -> list[CheegerReport]:
    """The report of :func:`cheeger_constant_exhaustive`, or with ``method``
    "coordinate" of :func:`cheeger_constant_coordinate`, for each of the
    triples, in order.  They share one field and one dim V, and are scanned
    in stacks of at most :func:`stack_size`: each batch of the stream is
    ranked for a whole stack in one kernel call.  The calls of a run of
    stacks that share the dict ``read`` build each stream once, and ``read``
    holds what they read of it while the run lasts: at most 2.2 MB,
    dimensions 1..4 of GF(2)^8, as the default budgets admit no more.  Under
    a raised ``subspace_work``, and without ``read``, each stack builds its
    own, so that what is held does not grow with the budget.  A budget
    refuses the call as it refuses each triple's scan, before any work."""
    pts = [_pairing(t) for t in triples]
    if any((pt.field, pt.dim_v) != (pts[0].field, pts[0].dim_v) for pt in pts):
        raise PairingError("a stack of triples shares one field and one dim V")
    if not pts or pts[0].dim_v < 2:
        return [CheegerReport(None, None, method, 0)] * len(pts)
    n, field = pts[0].dim_v, pts[0].field
    size, key = stack_size(field, n), (method, field, n)
    stacks = [pts[i : i + size] for i in range(0, len(pts), size)]
    if read is None or budgets.subspace_work > DEFAULT_BUDGETS.subspace_work:
        return [r for stack in stacks for r in _scan(stack, method, _stream(method, field, n, budgets))]
    if key not in read:
        read[key] = _stream(method, field, n, budgets), []
    return [r for stack in stacks for r in _scan(stack, method, _replay(*read[key]))]


def _stream(method: str, field: Field, n: int, budgets: Budgets):
    """A scan's stream, refused as the scan refuses it, before any work."""
    if method == "coordinate":
        budgets.check_coordinates(n)
        return _coordinate_batches(n)
    return enumerate_subspaces(n, range(1, n // 2 + 1), field, budgets)


def _replay(stream, held: list):
    """The batches of ``stream`` from its first: those read before, from
    ``held``, then the rest as it builds them, each held for the next reader."""
    yield from held
    for batch in stream:
        held.append(batch)
        yield batch


def cheeger_constant_exhaustive(t, budgets: Budgets = DEFAULT_BUDGETS) -> CheegerReport:
    """Minimum of h_F over every subspace with 1 <= dim F <= (dim V)/2.

    Over a finite field the infimum is attained, so the report carries a
    witnessing minimizer: the first one in canonical enumeration order.
    h_F >= 0 always, so the scan stops early at a zero.
    """
    return cheeger_constants([t], "exhaustive", budgets)[0]


def cheeger_constant_coordinate(t, budgets: Budgets = DEFAULT_BUDGETS) -> CheegerReport:
    """Minimum of h_F over coordinate subspaces of the distinguished basis.

    For cup-product triples this equals the exhaustive minimum; for a general
    triple it is only an upper bound.  Past the budgets (see
    :meth:`Budgets.check_coordinates`) it raises :class:`BudgetError` before
    any work.
    """
    return cheeger_constants([t], "coordinate", budgets)[0]


def _scan(pts: list[PairingTriple], method: str, batches) -> list[CheegerReport]:
    """The reports of one stack's scans, reading ``batches`` of its stream."""
    n, field = pts[0].dim_v, pts[0].field
    if method == "coordinate":
        return _first_minima(pts, batches, method, _coordinate_kernel(*pts), partial(np.eye, n, dtype=int), n * n)
    rest = [pt for pt in pts if pt.dim_w]
    found = []
    if rest:
        # built at the end: the stream first refuses a field too large for it
        points = partial(projective_points, n, field.characteristic)
        if zero_sets_pay(rest[0]):
            found = _first_minima(rest, batches, method, zero_set_kernel(*rest), points)
        else:
            found = _first_minima(rest, batches, method, _rank_kernel(*rest), points, n * n)
    if len(found) == len(pts):
        return found
    # a zero pairing has h_F = 0 at the first subspace, the line of e_0,
    # reported without a batch: over a field as large as GF(2^61 - 1) no
    # point batch can be built
    first = CheegerReport(Fraction(0), Subspace(field, n, ((1,) + (0,) * (n - 1),)), method, 1)
    found = iter(found)
    return [next(found) if pt.dim_w else first for pt in pts]


def refuse_exhaustive(field: Field, n: int, dim_w: int, budgets: Budgets = DEFAULT_BUDGETS) -> None:
    """Raise what the exhaustive scan of a triple over ``field`` with dim V =
    n and dim W = ``dim_w`` raises before its first kernel call, in the same
    order, without the triple: the stream's refusals of the field and of the
    budget, then, where dim W > 0, of a space too large to index."""
    if n >= 2:
        enumerate_subspaces(n, range(1, n // 2 + 1), field, budgets)
        if dim_w:
            linalg.check_indexable(n, field.characteristic)


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
    check_pivot(pt.dim_v, pivot)
    column = np.zeros((pt.dim_v, pt.dim_v, 1), pt.tensor.dtype)
    column[pivot, pivot] = pt.denominator
    ints = np.concatenate([pt.tensor, column], axis=2)
    return PairingTriple(pt.field, pt.dim_v, pt.dim_w + 1, ints, COMPONENTWISE, pt._signs() + (1,), pt.denominator)


def check_pivot(n: int, pivot: int) -> None:
    """Refuse a pivot outside the basis of an n-dimensional V."""
    if not 0 <= pivot < n:
        raise PairingError(f"pivot {pivot} outside basis range 0..{n - 1}")


def is_alternating(t) -> bool:
    """True iff q(x, x) = 0 for every x: zero diagonal and an entrywise
    antisymmetric tensor.  Cup-product triples are alternating; augmented
    triples are not, which is the non-realizability witness."""
    pt = _pairing(t)
    t = pt.tensor
    nonzero_diagonal = (t.diagonal() != 0).any()
    return not nonzero_diagonal and np.array_equal(t.transpose(1, 0, 2), _negated(t, pt.field.characteristic))
