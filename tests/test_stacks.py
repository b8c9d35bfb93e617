"""The stacked scans: :func:`raagcheeger.pairing.cheeger_constants` ranks each
batch of the stream for a whole stack of triples, and must report, triple by
triple, what the per-triple map reports: each triple's own scan, a stack of
one."""

import gc
import inspect
import itertools
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from raagcheeger import linalg, pairing, zerosets
from raagcheeger import (
    GF2,
    GF3,
    QQ,
    DEFAULT_BUDGETS,
    BudgetError,
    Budgets,
    Field,
    LinalgError,
    PairingError,
    PairingTriple,
    SimplicialGraph,
    build_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    complete,
    cycle,
    edgeless,
    is_connected,
    labeled_graphs,
    path,
    star,
)
from raagcheeger.pairing import cheeger_constants, refuse_exhaustive, stack_size

from generators import random_triple

METHODS = ("exhaustive", "coordinate")


def _per_triple(triples, method, budgets=DEFAULT_BUDGETS):
    scan = cheeger_constant_exhaustive if method == "exhaustive" else cheeger_constant_coordinate
    return [scan(t, budgets) for t in triples]


def _assert_stacked(triples, methods=METHODS, budgets=DEFAULT_BUDGETS) -> list:
    """Every report of the stacked scans equals the per-triple one: value,
    minimizer, method and visit count.  Returns the last method's reports."""
    for method in methods:
        stacked = cheeger_constants(triples, method, budgets)
        for i, (got, want) in enumerate(zip(stacked, _per_triple(triples, method, budgets), strict=True)):
            assert got == want, (method, i, triples[i])
    return stacked


def _clear_caches():
    for module in (linalg, pairing):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@pytest.mark.parametrize("field", [GF2, GF3], ids=["gf2", "gf3"])
def test_stacks_equal_the_per_triple_map_on_every_graph_up_to_five_vertices(field):
    # the graphs of one size in input order: edgeless, disconnected and
    # connected ones, so triples leave the stack at different batches, and
    # dim W runs from 0 to C(n, 2), so every stack is zero-padded
    for n in range(6):
        triples = [build_triple(g, field) for g in labeled_graphs(n)]
        if n == 5:
            # several stacks, on the zero-set kernel
            assert stack_size(field, n) < len(triples)
            assert zerosets.zero_sets_pay(triples[-1].pairing)
        _assert_stacked(triples)


@pytest.mark.parametrize("field", [GF2, GF3], ids=["gf2", "gf3"])
def test_stacks_on_the_rank_kernel_equal_the_per_triple_map(monkeypatch, field):
    monkeypatch.setattr(pairing, "zero_sets_pay", lambda pt: False)
    for n, every in ((4, 1), (5, 7)):
        triples = [build_triple(g, field) for g in list(labeled_graphs(n))[::every]]
        _assert_stacked(triples, ("exhaustive",))


@pytest.mark.parametrize("p", [5, 7, 101])
def test_stacks_equal_the_per_triple_map_on_four_vertices(p):
    field = Field.gf(p)
    triples = [build_triple(g, field) for g in labeled_graphs(4)]
    if p < 101:
        assert zerosets.zero_sets_pay(triples[-1].pairing)
        _assert_stacked(triples)
        return
    # GF(101)^4's table is past the zero-set cap, so the exhaustive scans
    # eliminate.  A connected graph's scan visits all 106,151,810 subspaces
    # of dimension 1..2, so the exhaustive stack holds graphs with an
    # isolated vertex: with vertex 0 isolated the scan stops at the first
    # line, e_0's, and with vertex 1 isolated, after the 1,030,301 lines
    # with pivot 0, at e_1's
    assert not zerosets.zero_sets_pay(triples[-1].pairing)
    _assert_stacked(triples, ("coordinate",))
    first = [t for t in triples if t.graph.degrees[0] == 0]
    second = [t for t in triples if t.graph.degrees[0] and t.graph.degrees[1] == 0][:2]
    stack = [*second[:1], *first, *second[1:]]
    assert len(stack) == 10
    reports = _assert_stacked(stack, ("exhaustive",), Budgets(subspace_work=10**9))
    assert [r.subspaces_visited for r in reports] == [1_030_302, *[1] * 8, 1_030_302]


@pytest.mark.parametrize("p", [2, 3, 31, 101])
def test_stacks_equal_the_per_triple_map_on_three_vertices(p):
    # dim V = 3 stays on the rank kernel over every field
    triples = [build_triple(g, Field.gf(p)) for g in labeled_graphs(3)]
    triples += [random_triple(3, m, Field.gf(p), 3 * p + m, "symmetric") for m in (1, 2, 4)]
    _assert_stacked(triples)


def _rational_triple(n: int, m: int, rng: random.Random) -> PairingTriple:
    """An antisymmetric triple over QQ whose entries have denominators up to 7."""
    tensor = [[[Fraction(0)] * m for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for e in range(m):
                x = Fraction(rng.randint(-4, 4), rng.randint(1, 7)) if rng.random() < 0.5 else Fraction(0)
                tensor[i][j][e], tensor[j][i][e] = x, -x
    return PairingTriple.of(QQ, n, m, tensor, "antisymmetric")


def test_coordinate_stacks_over_the_rationals():
    rng = random.Random(29)
    triples = [build_triple(g, QQ) for g in (cycle(6), path(6), star(5), complete(6), edgeless(6))]
    triples += [_rational_triple(6, m, rng) for m in (1, 2, 3, 5, 8)]
    assert len({getattr(t, "pairing", t).denominator for t in triples}) == 3
    _assert_stacked(triples, ("coordinate",))


def test_stacks_mix_edgeless_disconnected_and_connected_graphs():
    two_paths = SimplicialGraph.of("abcde", [("a", "b"), ("b", "c"), ("d", "e")])
    triangle = SimplicialGraph.of("abcde", [("a", "b"), ("b", "c"), ("a", "c")])
    graphs = [complete(5), edgeless(5), cycle(5), two_paths, star(4), triangle, path(5), edgeless(5)]
    for field in (GF2, GF3, Field.gf(5)):
        _assert_stacked([build_triple(g, field) for g in graphs])
        _assert_stacked([build_triple(g, field) for g in reversed(graphs)])


@pytest.mark.parametrize("chunk, zero_set_bytes", [(512, None), (2048, 4096)])
def test_stacks_span_many_slices(monkeypatch, chunk, zero_set_bytes):
    # small point batches make the rank kernels' slices one subspace of a
    # stack of several triples; a smaller zero-set cap makes smaller stacks,
    # and builds F's points in smaller pieces
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", chunk)
    if zero_set_bytes:
        monkeypatch.setattr(zerosets, "ZERO_SET_BYTES", zero_set_bytes)
    _clear_caches()
    try:
        for field, n, every in ((GF2, 5, 5), (GF3, 4, 1)):
            triples = [build_triple(g, field) for g in list(labeled_graphs(n))[::every]]
            assert 1 < stack_size(field, n) < len(triples)
            _assert_stacked(triples)
            with monkeypatch.context() as m:
                m.setattr(pairing, "zero_sets_pay", lambda pt: False)
                _assert_stacked(triples, ("exhaustive",))
    finally:
        _clear_caches()


@pytest.mark.parametrize("pairs", [1, 7])
def test_zero_set_slices_of_one_and_seven_pairs(monkeypatch, pairs):
    # 5-vertex triples over GF(3), 121 points in 2 words, on the zero-set
    # kernel with slices of 1 and 7 (triple, subspace) pairs: one subspace
    # for every live triple, or 7 // live subspaces once fewer than 8 are
    # live.  Disconnected graphs leave their stack at their first zero,
    # inside a batch, and every report is the one of the default slices, in
    # a stack of 17, of 3 and of one
    triples = [build_triple(g, GF3) for g in list(labeled_graphs(5))[::61]]
    assert zerosets.zero_sets_pay(triples[-1].pairing) and len(triples) <= stack_size(GF3, 5)
    wanted = cheeger_constants(triples)
    ends = set(itertools.accumulate(len(batch) for _, batch in linalg.enumerate_subspaces(5, [1, 2], GF3)))
    leaving = [r.subspaces_visited for r in wanted[9:12] if r.value == 0]
    assert len(leaving) == 2 and not ends & set(leaving) and wanted[11].value > 0
    monkeypatch.setattr(zerosets, "SLICE_BYTES", 16 * 2 * pairs)
    assert cheeger_constants(triples) == wanted
    assert cheeger_constants(triples[9:12]) == wanted[9:12]
    assert _per_triple(triples, "exhaustive") == wanted


@pytest.mark.parametrize("method, kernel, n", [
    ("exhaustive", "_rank_kernel", 6), ("coordinate", "_coordinate_kernel", 8)])
def test_slices_grow_as_triples_leave_the_stack(monkeypatch, method, kernel, n):
    # one connected triple in a stack of graphs with an isolated vertex 0,
    # which leave at the first line: the connected one then scans in the
    # slices of a stack of one, not of the stack it started in (the
    # per-triple scans, stacks of one, are not recorded)
    monkeypatch.setattr(pairing, "zero_sets_pay", lambda pt: False)
    calls = []
    real = getattr(pairing, kernel)

    def recorded(*pts):
        ranks = real(*pts)

        def wrapped(k, batch, live):
            if len(pts) > 1:
                calls.append((len(live), len(batch)))
            return ranks(k, batch, live)
        return wrapped

    monkeypatch.setattr(pairing, kernel, recorded)
    vs = [f"v{i}" for i in range(n)]
    leaving = [SimplicialGraph.of(vs, [(vs[i], vs[j]) for i in range(1, n) for j in range(i + 1, n) if (i + j) % s])
               for s in range(2, 17)]
    triples = [build_triple(g, GF2) for g in [cycle(n), *leaving]]
    _assert_stacked(triples, (method,))

    def width(live):
        return max(1, linalg.POINT_BATCH_BYTES // (n * n * live))

    assert calls[0][0] == 16
    assert all(live in (1, 16) and size <= width(live) for live, size in calls)
    assert max(size for live, size in calls if live == 1) > width(16)


@pytest.mark.parametrize("method", METHODS)
def test_a_call_of_several_stacks_builds_its_stream_once(monkeypatch, method):
    # stacks of two in one call: the edgeless pair never reads the stream,
    # the disconnected graphs stop at their first zero and the connected
    # ones read it all.  Under the default budget the call builds the stream
    # once and yields each batch once; under a raised budget each stack that
    # reads it builds its own.  A single stack holds no batch it has read
    # past, and no batch outlives a call.  Batches of 16 bytes make every
    # stream 6 to 213 batches long
    monkeypatch.setattr(pairing, "stack_size", lambda field, n: 2)
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", 16)
    two_paths = SimplicialGraph.of("abcde", [("a", "b"), ("b", "c"), ("d", "e")])
    graphs = [edgeless(5), edgeless(5), two_paths, cycle(5), complete(5), path(5), star(4)]
    name = "enumerate_subspaces" if method == "exhaustive" else "_coordinate_batches"
    real, built, alive, held = getattr(pairing, name), [], [], []

    def recorded(*args):
        built.append(0)
        for k, batch in real(*args):
            held.append(sum(ref() is not None for ref in alive[len(alive) - built[-1] :]))
            built[-1] += 1
            alive.append(weakref.ref(batch))
            yield k, batch

    raised = Budgets(subspace_work=DEFAULT_BUDGETS.subspace_work + 1)
    for field in (GF2, GF3):
        triples = [build_triple(g, field) for g in graphs]
        wanted = _per_triple(triples, method)
        whole = sum(1 for _ in (real(5, [1, 2], field) if method == "exhaustive" else real(5)))
        assert whole >= 6
        for budgets, at in ((DEFAULT_BUDGETS, slice(None)), (raised, slice(None)), (DEFAULT_BUDGETS, slice(3, 5))):
            built.clear()
            alive.clear()
            held.clear()
            with monkeypatch.context() as m:
                m.setattr(pairing, name, recorded)
                assert cheeger_constants(triples[at], method, budgets) == wanted[at]
            gc.collect()
            assert not any(ref() is not None for ref in alive), (field, budgets)
            if at.start:
                # the batches the scan has read past are freed as it reads
                assert built == [whole] and max(held) <= 1, (field, built, held)
            elif budgets is DEFAULT_BUDGETS:
                assert built == [whole] and held[-1] == whole - 1, (field, built)
            else:
                # one stream per stack that reads one: the exhaustive scan of
                # the edgeless pair reads none
                assert len(built) == (3 if method == "exhaustive" else 4) and max(built) == whole, (field, built)


def test_stack_size_follows_the_byte_caps():
    # the rank kernels' slices hold POINT_BATCH_BYTES // n^2 pairs, and a
    # zero-set table at most half of ZERO_SET_BYTES
    assert stack_size(GF2, 6) == zerosets.zero_set_stack(GF2, 6) == 131072 // (63 * 8)
    assert stack_size(GF2, 3) == 16384 // 9
    assert stack_size(Field.gf(101), 4) == 16384 // 16
    assert stack_size(QQ, 7) == 16384 // 49
    for field, n in ((GF2, 8), (GF3, 5), (Field.gf(7), 4)):
        points = (field.characteristic**n - 1) // (field.characteristic - 1)
        assert stack_size(field, n) * points * -(-points // 64) * 8 <= zerosets.ZERO_SET_BYTES // 2


def test_a_stack_shares_its_field_and_dimension():
    with pytest.raises(PairingError, match="one field and one dim V"):
        cheeger_constants([build_triple(path(3), GF2), build_triple(path(3), GF3)])
    with pytest.raises(PairingError, match="one field and one dim V"):
        cheeger_constants([build_triple(path(3), GF2), build_triple(path(4), GF2)], "coordinate")
    assert cheeger_constants([]) == []


@pytest.mark.parametrize("field, n, dim_w, budgets, refused", [
    (QQ, 3, 1, DEFAULT_BUDGETS, LinalgError),
    (GF2, 9, 1, DEFAULT_BUDGETS, BudgetError),
    (GF2, 9, 0, DEFAULT_BUDGETS, BudgetError),
    (GF3, 4, 2, Budgets(subspace_work=169), BudgetError),
    (Field.gf(2**61 - 1), 3, 1, Budgets(subspace_work=10**60), LinalgError),
    (Field.gf(2**61 - 1), 3, 0, Budgets(subspace_work=10**60), None),
    (GF2, 1, 1, Budgets(subspace_work=0), None),
    (GF3, 4, 2, Budgets(subspace_work=170), None),
], ids=["rational", "gf2^9", "gf2^9-zero", "gf3^4-cap", "too-large", "too-large-zero", "dim1", "gf3^4"])
def test_scan_refusals_come_before_the_triple(field, n, dim_w, budgets, refused):
    # refuse_exhaustive raises what the exhaustive scan of such a triple
    # raises before its first kernel call, with the same message, and
    # nothing where the scan runs
    t = random_triple(n, dim_w, field, 7) if field.is_prime_field else _rational_triple(n, dim_w, random.Random(7))
    outcomes = []
    for call in (lambda: cheeger_constant_exhaustive(t, budgets), lambda: refuse_exhaustive(field, n, dim_w, budgets)):
        try:
            call()
            outcomes.append(None)
        except (BudgetError, LinalgError) as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] and outcomes[0][0]) == refused


@pytest.mark.parametrize("zero_sets", [True, False], ids=["zero-set", "rank"])
def test_a_stack_holds_no_batch_of_its_minimizers(monkeypatch, zero_sets):
    # each triple of a stack keeps the rows of its first minimizer as a
    # copy: a view would hold the minimizer's whole batch until the scan
    # ends, one batch per triple.  In batches of 16 bytes the first minimizers
    # of the connected 4-vertex graphs' triples over GF(3) fall in five
    # batches, and h > 0 for all of them, so their one stack reads the whole
    # stream; when the stream ends, every batch but the one in hand is freed,
    # and what tracemalloc still finds of the stream's batches is less than
    # two batches (110 bytes here, and 666 with views)
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", 16)
    monkeypatch.setattr(pairing, "stack_size", lambda field, n: 64)
    if not zero_sets:
        monkeypatch.setattr(pairing, "zero_sets_pay", lambda pt: False)
    triples = [build_triple(g, GF3) for g in labeled_graphs(4) if is_connected(g)]
    stream = list(linalg.enumerate_subspaces(4, [1, 2], GF3))
    rows = [[linalg.projective_points(4, 3)[at].tolist() for at in batch] for _, batch in stream]
    wanted = _per_triple(triples, "exhaustive")
    held = {next(i for i, batch in enumerate(rows) if [list(map(int, r)) for r in rep.minimizer.basis] in batch)
            for rep in wanted}
    assert len(held) == 5 and all(rep.value > 0 for rep in wanted)

    alive, ended = [], []
    real = pairing.enumerate_subspaces

    def traced(*args):
        for k, batch in real(*args):
            alive.append(weakref.ref(batch))
            yield k, batch
        del batch
        gc.collect()
        lines, first = inspect.getsourcelines(linalg._point_batches)
        built = [t.size for t in tracemalloc.take_snapshot().traces if t.traceback[0].filename == linalg.__file__
                 and first <= t.traceback[0].lineno < first + len(lines)]
        ended.append(([ref() is not None for ref in alive], sum(built)))

    monkeypatch.setattr(pairing, "enumerate_subspaces", traced)
    tracemalloc.start()
    try:
        assert cheeger_constants(triples) == wanted
    finally:
        tracemalloc.stop()
    (still, built), = ended
    assert len(still) == len(stream) and still == [False] * (len(still) - 1) + [True]
    assert 0 < built < 2 * sys.getsizeof(stream[-1][1]), built
