import ast
import itertools
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagcheeger import linalg, pairing
from raagcheeger import (
    GF2,
    GF3,
    GF5,
    QQ,
    BudgetError,
    Budgets,
    Field,
    LinalgError,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
)

from complement_oracle import null_space, subspace_intersection
from qvalence_oracle import enumerate_unordered_bases
from subspace_stream import canonical_order, subspaces


def count_formula(n, k, p):
    # independent oracle: product form of the Gaussian binomial
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def contains(s, v):
    return Subspace.from_vectors(s.field, s.ambient_dim, s.basis + (tuple(v),)) == s


# -- rref / kernel -----------------------------------------------------------


def test_rref_identity_is_fixed():
    assert Subspace.from_vectors(GF2, 3, identity_rows(3)).basis == identity_rows(3)


def test_rref_collapses_equal_rows():
    assert Subspace.from_vectors(GF2, 2, [(1, 1), (1, 1)]).basis == ((1, 1),)


def test_rref_zero_matrix():
    assert Subspace.from_vectors(GF3, 3, [(0, 0, 0), (0, 0, 0)]) == Subspace.zero(GF3, 3)


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(11)
    for _ in range(40):
        field = rng.choice([GF2, GF3, QQ])
        rows = [[field.element(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        s = Subspace.from_vectors(field, 4, rows)
        assert Subspace.from_vectors(field, 4, s.basis) == s
        pivots = [next(c for c, v in enumerate(r) if v) for r in s.basis]
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            assert [r[c] for r in s.basis] == [field.one if j == i else field.zero for j in range(s.dim)]
        for row in rows:
            assert contains(s, row)


def test_kernel_of_zero_map_is_everything():
    assert null_space(GF2, 3, [(0, 0, 0)]) == Subspace.from_vectors(GF2, 3, identity_rows(3))


def test_kernel_single_relation_gf2():
    assert null_space(GF2, 2, [(1, 1)]).basis == ((1, 1),)


def test_kernel_of_identity_is_zero():
    assert null_space(GF5, 3, identity_rows(3)) == Subspace.zero(GF5, 3)


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(30):
        field = rng.choice([GF2, GF3, GF5, QQ])
        p = field.characteristic
        rows = [[field.element(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        ker = null_space(field, 5, rows)
        assert ker.dim == 5 - Subspace.from_vectors(field, 5, rows).dim
        for v in ker.basis:
            for row in rows:
                dot = sum(a * x for a, x in zip(row, v))
                assert (dot % p if p else dot) == 0


# -- subspace lattice --------------------------------------------------------


def test_intersection_idempotent():
    s = Subspace.from_vectors(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    assert subspace_intersection(s, s) == s


def test_coordinate_lines_meet_trivially():
    e1 = Subspace.from_vectors(GF3, 2, [(1, 0)])
    e2 = Subspace.from_vectors(GF3, 2, [(0, 1)])
    assert subspace_intersection(e1, e2) == Subspace.zero(GF3, 2)


def test_sum_of_two_lines_gf2():
    a = Subspace.from_vectors(GF2, 3, [(1, 1, 0)])
    b = Subspace.from_vectors(GF2, 3, [(0, 1, 1)])
    s = Subspace.from_vectors(GF2, 3, a.basis + b.basis)
    assert s.dim == 2 and contains(s, (1, 0, 1))


def test_ambient_mismatch_rejected():
    a = Subspace.from_vectors(GF2, 3, [(1, 0, 0)])
    b = Subspace.from_vectors(GF2, 2, [(1, 0)])
    with pytest.raises(LinalgError):
        subspace_intersection(a, b)
    c = Subspace.from_vectors(GF3, 3, [(1, 0, 0)])
    with pytest.raises(LinalgError):
        subspace_intersection(a, c)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=4),
)
def test_dimension_formula(data, p, n):
    field = Field.gf(p)
    vecs = st.lists(
        st.tuples(*[st.integers(0, p - 1)] * n), min_size=0, max_size=n + 1
    )
    a = Subspace.from_vectors(field, n, data.draw(vecs))
    b = Subspace.from_vectors(field, n, data.draw(vecs))
    total = Subspace.from_vectors(field, n, a.basis + b.basis)
    assert a.dim + b.dim == total.dim + subspace_intersection(a, b).dim


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3]), n=st.integers(1, 4))
def test_canonical_form_ignores_generator_order(data, p, n):
    field = Field.gf(p)
    gens = data.draw(
        st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=1, max_size=5)
    )
    perm = data.draw(st.permutations(gens))
    assert Subspace.from_vectors(field, n, gens) == Subspace.from_vectors(field, n, perm)


def test_intersection_contained_in_both():
    rng = random.Random(17)
    for _ in range(30):
        field = rng.choice([GF2, GF3, QQ])
        mk = lambda: Subspace.from_vectors(
            field, 4, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(0, 3))]
        )
        a, b = mk(), mk()
        inter = subspace_intersection(a, b)
        for v in inter.basis:
            assert contains(a, v) and contains(b, v)


# -- enumeration -------------------------------------------------------------


def test_three_lines_of_the_plane_gf2():
    subs = list(subspaces(2, [1], GF2))
    assert [s.basis for s in subs] == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_planes_of_dimension_two_in_four():
    assert sum(1 for _ in subspaces(4, [2], GF2)) == 35


def test_whole_space_is_unique():
    assert sum(1 for _ in subspaces(3, [3], GF3)) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_counts_match_gaussian_binomials(p):
    field = Field.gf(p)
    # the largest request is GF(3)^6 in dimension 3
    budgets = Budgets(subspace_work=gaussian_binomial(6, 3, 3))
    for n in range(7):
        for k in range(n + 1):
            got = sum(len(rows) for _, rows in enumerate_subspaces(n, [k], field, budgets))
            assert got == count_formula(n, k, p) == gaussian_binomial(n, k, p)


def test_enumeration_is_duplicate_free():
    subs = list(subspaces(4, [1, 2], GF3, Budgets(subspace_work=40 + 130)))
    assert len(subs) == len(set(subs))


def _completed_bases(n, p, k, at):
    """The bases S the rank kernel completes a point batch to, decoded as
    it decodes them, checked: the first k rows of S are F's rows
    projective_points[at], which lead at distinct pivot columns with the
    identity there, and the others are the unit vectors of the columns off
    those pivots in increasing order.  So S, its columns ordered pivots
    first, is block unitriangular, and invertible mod p.  Returns S."""
    rows, bits, units = pairing._completion(n, p)
    s = units.take(bits.take(at.T).sum(axis=0), axis=0)
    s[:, :k] = rows.take(at, axis=0)
    f = linalg.projective_points(n, p)[at]
    assert (s[:, :k] == f).all()
    if not n:
        return s
    lead = (f != 0).argmax(axis=2)
    assert (np.diff(lead, axis=1) > 0).all()
    assert (np.take_along_axis(f, lead[:, None, :], axis=2) == np.eye(k)).all()
    off = np.ones((len(at), n), bool)
    np.put_along_axis(off, lead, False, axis=1)
    free = np.nonzero(off)[1].reshape(len(at), n - k)
    assert (s[:, k:] == np.eye(n)[free]).all()
    return s


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_enumeration_batches_follow_the_canonical_order(monkeypatch, chunk):
    # batches of chunk bytes pack consecutive pivot profiles of one
    # dimension, each written from the pieces that fit, so it holds from one
    # subspace to as many as fit, and concatenated the rows they name are
    # the canonical order; each decodes to bases S whose first k rows are
    # those rows and whose others are the unit vectors of the non-leading
    # coordinates, so each S is invertible mod p; the stream repeats exactly
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", chunk)
    cases = ((5, [1, 2], GF2, np.int8), (4, [0, 1, 2, 4], GF3, np.int8),
             (3, [1, 2], GF5, np.int8), (2, [1], Field.gf(257), np.int16))
    for n, dims, field, dtype in cases:
        p = field.characteristic
        points = linalg.projective_points(n, p)
        batches = list(enumerate_subspaces(n, dims, field))
        flat = [basis for _, at in batches for basis in points[at].tolist()]
        assert flat == list(canonical_order(n, dims, p))
        assert [k for k, _ in batches] == sorted(k for k, _ in batches)
        for k, at in batches:
            assert at.shape[1] == k and at.dtype == dtype
            most = max(1, chunk // (max(k, 1) * at.itemsize))
            assert 1 <= len(at) <= most
            for basis in _completed_bases(n, p, k, at).astype(int).tolist():
                assert Subspace.from_vectors(field, n, basis).dim == n
        again = list(enumerate_subspaces(n, dims, field))
        assert len(again) == len(batches)
        for (k, at), (k2, at2) in zip(batches, again):
            assert k == k2 and (at == at2).all()


def _check_point_stream(n, k, field):
    """The stream of dimension k, checked batch by batch in size and type
    and decoded to the rank kernel's bases (:func:`_completed_bases`, which
    also checks that every subspace is a valid RREF basis), and checked to
    be the canonical order without enumerating it: its RREF bases strictly
    increase in (pivot columns, rows read row by row), the canonical order's
    key, and there are [n, k]_p of them.  Returns its batches."""
    p = field.characteristic
    points = linalg.projective_points(n, p).astype(np.int16)
    batches = [at for _, at in enumerate_subspaces(n, [k], field)]
    for at in batches:
        assert at.shape[1] == k and at.dtype == linalg.int_type(len(points))
        assert 1 <= len(at) * max(k, 1) * at.itemsize <= max(linalg.POINT_BATCH_BYTES, k * at.itemsize)
        _completed_bases(n, p, k, at)
    bases = points[np.concatenate(batches)]
    assert len(bases) == gaussian_binomial(n, k, p)
    rows = bases.reshape(len(bases), k * n)
    if k:
        key = np.concatenate([(bases != 0).argmax(axis=2), rows], axis=1)
        step = key[1:] != key[:-1]
        first = step.argmax(axis=1)[:, None]
        assert step.any(axis=1).all()
        assert (np.take_along_axis(key[1:], first, 1) > np.take_along_axis(key[:-1], first, 1)).all()
    # the stream ends with the pivot set of the last k coordinates, which
    # has no free entries
    assert rows[-1].tolist() == np.eye(n, dtype=int)[n - k :].ravel().tolist()
    return batches


@pytest.mark.parametrize("p, most", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_point_stream_follows_the_bases_stream(p, most):
    # every dimension up to GF(p)^most is the canonical order, and each of
    # its batches decodes to the bases S that the rank kernel eliminates
    field = Field.gf(p)
    for n in range(1, most + 1):
        for k in range(n + 1):
            batches = _check_point_stream(n, k, field)
            if (p, n, k) == (2, 8, 4):
                # the first pivot set, (0, 1, 2, 3) with 16^4 fills, spans
                # batches
                assert all(at.flags.writeable for at in batches)
                assert len(batches[0]) < 16**4


@pytest.mark.parametrize("p", [2, 3])
def test_points_of_the_zero_space(p):
    # GF(p)^0 has no projective points, and its one subspace no rows
    points = linalg.projective_points(0, p)
    assert points.shape == (0, 0) and not points.flags.writeable
    powers, index, dims = linalg.point_codes(0, p)
    assert (powers.shape, index.tolist(), dims.tolist()) == ((0,), [0], [0])
    assert [at.shape for at in _check_point_stream(0, 0, Field.gf(p))] == [(1, 0)]


@pytest.mark.parametrize("cap", [1, 10, 100])
def test_point_stream_splits_pivot_sets_at_any_cap(monkeypatch, cap):
    # at 10 bytes the (0, 1) pivot set of GF(3)^4 (9 * 9 fills, 5 per batch)
    # slices row 1, and (0, 1, 2) in dimension 3 (3^3 fills, 3 per batch)
    # fixes row 0 and takes row 1 one fill at a time
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", cap)
    for p, most in ((2, 5), (3, 4), (5, 3)):
        for n in range(1, most + 1):
            for k in range(n + 1):
                _check_point_stream(n, k, Field.gf(p))


@pytest.mark.parametrize("p, most", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_point_stream_is_the_canonical_order(monkeypatch, p, most):
    # the rows the stream names are the library-free order, row for row; the
    # first p^(n-k) [n-1, k-1] subspaces have a pivot at column 0 and the
    # others none, as the recursion builds them.  In batches of 10 bytes, for
    # the small spaces, so that pieces split groups and fills, the stream
    # names the same rows
    def stream(n, k):
        batches = [at for _, at in enumerate_subspaces(n, [k], Field.gf(p))]
        assert all(at.dtype == linalg.int_type(len(linalg.projective_points(n, p))) for at in batches)
        return np.concatenate(batches)

    streams = {}
    for n in range(most + 1):
        for k in range(n + 1):
            if n:
                assert gaussian_binomial(n, k, p) == (
                    p ** (n - k) * gaussian_binomial(n - 1, k - 1, p) + gaussian_binomial(n - 1, k, p))
            streams[n, k] = at = stream(n, k)
            rows = linalg.projective_points(n, p)[at]
            canon = canonical_order(n, [k], p)
            for start in range(0, len(rows), 4096):
                chunk = list(itertools.islice(canon, 4096))
                assert rows[start : start + 4096].tolist() == chunk, (n, k, p, start)
            assert next(canon, None) is None
            lead = p ** (n - k) * gaussian_binomial(n - 1, k - 1, p)
            column0 = rows[..., :1].any(axis=(1, 2))
            assert column0[:lead].all() and not column0[lead:].any()
            assert k == n or np.array_equal(at[lead:], streams[n - 1, k]), (n, k, p)
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", 10)
    for n in range(min(most, 5) + 1):
        for k in range(n + 1):
            assert (stream(n, k) == streams[n, k]).all(), (n, k, p)


def test_point_stream_keeps_only_the_streams_it_reads(monkeypatch):
    # dimension k of GF(2)^8 reads the (7, k - 1) stream, built whole as one
    # batch, which reads (6, k - 2), down to dimension 0; every other smaller
    # stream is a tail of one of these, so none is built, and each is built
    # once for the dimension that reads it, whatever the dimensions before
    built = []
    real = linalg._point_batches

    def batches(n, k, p, most):
        built.append((n, k, most == sys.maxsize))
        return real(n, k, p, most)

    monkeypatch.setattr(linalg, "_point_batches", batches)
    chain = {k: [(8, k, False)] + [(8 - j, k - j, True) for j in range(1, k + 1)] for k in range(1, 5)}
    for dims in ([4], [1, 2, 3, 4], [2, 4]):
        built.clear()
        for _ in enumerate_subspaces(8, dims, GF2):
            pass
        assert built == [key for k in dims for key in chain[k]], dims


@pytest.mark.parametrize("most", [1, 7, 14, 100, 512])
def test_kept_batches_are_views_of_one_array(monkeypatch, most):
    # a dimension keeps the smaller stream it reads whole, as one array, the
    # stream built as one batch, and the rows of its pieces are views of that
    # array, whatever their size: the pieces of GF(3)^5 in dimension 3 read
    # the (4, 2) stream.  Built in batches of most subspaces, a stream
    # concatenates to the stream kept whole, so it starts at any offset s as
    # whole[s:]: GF(3)^6 in dimension 3 names its rows as int16, 6 bytes a
    # subspace, and a coordinate order of n = 8 takes 8
    (sub,) = linalg._point_batches(4, 2, 3, sys.maxsize)
    pieces = list(linalg._pieces(5, 3, 3, most))
    assert all(rows.base is pieces[0][1].base and len(rows) <= most for _, rows in pieces)
    assert np.array_equal(pieces[0][1].base, sub)
    cases = [
        (lambda: [b for _, b in enumerate_subspaces(6, [3], GF3)], (linalg._point_batches, 6, 3, 3), 6),
        (lambda: [b for k, b in linalg._coordinate_batches(8) if k == 3], (linalg._coordinate_orders, 8, 3), 8),
    ]
    rng = random.Random(most)
    for batches, (build, *key), size in cases:
        monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", size * most)
        (whole,) = build(*key, sys.maxsize)
        got = batches()
        assert all(1 <= len(b) <= most for b in got) and not any(np.shares_memory(b, whole) for b in got)
        streamed = np.concatenate(got)
        for s in {0, 1, len(whole) - 1, len(whole), *rng.sample(range(len(whole)), 5)}:
            assert np.array_equal(whole[s:], streamed[s:]), (key, s)
    assert [tuple(o[:3]) for o in whole.tolist()] == list(itertools.combinations(range(8), 3))


@pytest.mark.parametrize("p, n, dtype", [(5, 5, np.int8), (79, 5, np.int16), (101, 5, np.int32)])
def test_reduce_mod_is_python_mod_over_the_kernel_range(p, n, dtype):
    # the rank kernel reduces values in [-p(p - 1), n(p - 1)^2] in the
    # narrowest type holding n(p - 1)^2; for n = 5, 79 is the largest prime
    # that int16 holds
    assert np.iinfo(dtype).max >= n * (p - 1) ** 2 and np.iinfo(dtype).min <= -p * (p - 1)
    values = np.arange(-p * (p - 1), n * (p - 1) ** 2 + 1)
    expected = [v % p for v in values.tolist()]
    assert linalg.reduce_mod(values.astype(dtype), p).tolist() == expected
    assert linalg.reduce_mod(values.astype(object), p).tolist() == expected


def test_enumeration_rejects_rationals():
    with pytest.raises(LinalgError, match="non-enumerable"):
        next(enumerate_subspaces(2, [1], QQ))
    with pytest.raises(LinalgError, match="non-enumerable"):
        next(enumerate_unordered_bases(2, QQ))


def test_enumeration_budget_errors_name_the_flag():
    # the cap counts the work, not the dimension: the 511 lines of GF(2)^9
    # are admitted, its 4141728 subspaces of dimension 1..4 are not
    assert sum(len(rows) for _, rows in enumerate_subspaces(9, [1], GF2)) == 511
    with pytest.raises(BudgetError, match="4141728 subspaces.*--budget-subspaces"):
        next(enumerate_subspaces(9, range(1, 5), GF2))
    with pytest.raises(BudgetError, match="--budget-bases"):
        next(enumerate_unordered_bases(5, GF2))


def test_subspace_count_cap_refuses_large_primes_at_once():
    # GF(2)^8 up to dimension 4 is the largest scan the default caps admit;
    # one more dimension, or a large prime at n = 4, is refused by its count
    assert next(enumerate_subspaces(8, range(1, 5), GF2))[0] == 1
    with pytest.raises(BudgetError, match="417199 subspaces.*--budget-subspaces"):
        next(enumerate_subspaces(8, range(9), GF2))
    p = 1_000_003
    count = gaussian_binomial(4, 1, p) + gaussian_binomial(4, 2, p)
    with pytest.raises(BudgetError, match=f"{count} subspaces"):
        next(enumerate_subspaces(4, [1, 2], Field.gf(p)))
    # a cap raised to the count admits it
    assert next(enumerate_subspaces(8, range(9), GF2, Budgets(subspace_work=417_199)))[0] == 0


def test_astronomical_counts_are_refused_at_once():
    # counting stops at 2^400, so a huge ambient dimension is refused cheaply
    # and the message stays short
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"would visit at least 2\^400 subspaces"):
        Budgets().check_subspaces(GF2, 2000, range(1, 1001))
    with pytest.raises(BudgetError, match=r"at least 2\^400 steps \(at least 2\^400 projective"):
        Budgets().check_bases(Field.gf(7), 2000)
    assert time.perf_counter() - start < 1
    # below 2^400 the count is exact
    with pytest.raises(BudgetError, match=f"{2**100 - 1 + gaussian_binomial(100, 2, 2)} subspaces"):
        Budgets().check_subspaces(GF2, 100, [1, 2])


def test_budget_errors_are_raised_in_budgets_only():
    # budgets.py decides and words every refusal; the oracles only call it
    raising = set()
    for module in Path(linalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "BudgetError":
                    raising.add(module.name)
    assert raising == {"budgets.py"}


def test_unordered_basis_counts():
    assert sum(1 for _ in enumerate_unordered_bases(1, GF2)) == 1
    assert sum(1 for _ in enumerate_unordered_bases(2, GF2)) == 3
    assert sum(1 for _ in enumerate_unordered_bases(3, GF2)) == 28
    for n, field in [(2, GF2), (3, GF2), (4, GF2), (2, GF3), (3, GF3)]:
        p = field.characteristic
        gl_order = math.prod(p**n - p**i for i in range(n))
        got = sum(1 for _ in enumerate_unordered_bases(n, field))
        assert got == gl_order // math.factorial(n)


def test_unordered_bases_are_bases():
    for basis in enumerate_unordered_bases(3, GF2):
        assert Subspace.from_vectors(GF2, 3, basis).dim == 3


def test_subspace_json_round_trip():
    s = Subspace.from_vectors(QQ, 3, [("1/2", 1, 0), (0, 1, "2/3")])
    assert Subspace.from_json_dict(QQ, s.to_json_dict()) == s
    t = Subspace.from_vectors(GF3, 2, [(1, 2)])
    assert Subspace.from_json_dict(GF3, t.to_json_dict()) == t
