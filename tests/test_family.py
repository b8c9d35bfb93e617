import json
import random
from fractions import Fraction

import pytest

from raagcheeger import (
    GF2,
    GF3,
    GF5,
    QQ,
    Budgets,
    SimplicialGraph,
    build_triple,
    cheeger_graph_exact,
    complete,
    cycle,
    edgeless,
    field_invariance_check,
    graph_family_report,
    labeled_graphs,
    margulis_like,
    path,
    star,
    triple_family_report,
    verify_augmentation,
    verify_main_theorem,
)
from raagcheeger import linalg, pairing
from raagcheeger.budgets import DEFAULT_BUDGETS, BudgetError
from raagcheeger.fields import Field
from raagcheeger.family import (
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_EXPANDER,
    FamilyEntry,
    VerificationRecord,
    graph_triple_family_report,
    _check,
    _fmt,
    _item,
    _q_valence,
    _verify_invariance_run,
    _verify_theorem_run,
)
from raagcheeger.graphs import max_valence
from raagcheeger.linalg import LinalgError
from raagcheeger.pairing import (
    PairingError,
    augment_triple,
    check_pivot,
    cheeger_constant_exhaustive,
    is_alternating,
    q_valence_coordinate,
    refuse_exhaustive,
)
from raagcheeger.qvalence import refuse_q_valence
from raagcheeger.isomorphism import canonical_masks, class_keys

from generators import sample_labeled_graphs, zero_triple

VERDICTS = {VERDICT_CONSISTENT, VERDICT_NOT_EXPANDER, VERDICT_INCONCLUSIVE}


def test_cycles_trend_to_zero_but_stay_consistent():
    report = graph_family_report([cycle(4), cycle(6), cycle(8)])
    assert [e.cheeger for e in report.entries] == [1, Fraction(2, 3), Fraction(1, 2)]
    assert report.prefix_infimum == Fraction(1, 2)
    assert report.prefix_infimum_kind == "exact"
    assert report.verdict == VERDICT_CONSISTENT  # a finite prefix never proves expansion
    assert report.valence_bound == 2


def test_disconnected_member_disproves_expansion():
    report = graph_family_report([cycle(4), edgeless(4)])
    assert report.entries[1].cheeger == 0
    assert report.verdict == VERDICT_NOT_EXPANDER


def test_valence_bound_violation_disproves():
    report = graph_family_report([star(2), star(5)], valence_bound=3)
    assert report.verdict == VERDICT_NOT_EXPANDER


def test_spectral_mode_on_margulis_family():
    report = graph_family_report(
        [margulis_like(2), margulis_like(3), margulis_like(4)], mode="spectral"
    )
    for e in report.entries:
        assert e.method == "spectral"
        assert e.cheeger_lower > 0
        assert e.valence <= 8
    assert report.verdict == VERDICT_CONSISTENT
    assert report.prefix_infimum_kind == "spectral-lower"


def test_exact_mode_falls_back_to_spectral_past_budget():
    report = graph_family_report(
        [cycle(4), cycle(8)], budgets=Budgets(subset_vertices=5)
    )
    assert report.entries[0].method == "exact"
    assert report.entries[1].method == "spectral"
    assert "fallback" in report.entries[1].note


def test_csv_spectral_bounds_parse_back_exactly():
    # a rounded lower bound can print above the computed one
    report = graph_family_report([path(200)], mode="spectral")
    entry = report.entries[0]
    cell = report.to_csv().splitlines()[1].split(",")[5]
    lower, upper = cell.strip("[]").split(";")
    assert float(lower) == entry.cheeger_lower
    assert float(upper) == entry.cheeger_upper


def test_triple_report_matches_graph_values():
    graphs = [path(3), path(4), path(5)]
    triples = [build_triple(g, GF2) for g in graphs]
    report = triple_family_report(triples)
    for g, e in zip(graphs, report.entries):
        assert e.cheeger == cheeger_graph_exact(g).value
        assert e.field == "gf2"
    assert report.verdict == VERDICT_CONSISTENT


def test_zero_pairing_family_is_not_expander():
    report = triple_family_report([zero_triple(n, 1, GF2) for n in (2, 3, 4)])
    assert all(e.cheeger == 0 for e in report.entries)
    assert report.verdict == VERDICT_NOT_EXPANDER


def test_budget_violations_are_inconclusive_not_fatal():
    report = triple_family_report(
        [build_triple(path(2), GF2), zero_triple(5, 1, GF2)],
        # admits GF(2)^4's 50 subspaces of dimension 1..2, refuses GF(2)^5's 186
        budgets=Budgets(subspace_work=50),
    )
    assert report.entries[0].method == "exact"
    assert report.entries[1].method == "inconclusive"
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_rational_triples_are_inconclusive_not_fatal():
    # the exhaustive scans enumerate prime fields only: over the rationals
    # q-valence falls back to the coordinate value, exact for cup-product
    # triples, and the Cheeger value is left open
    report = triple_family_report([build_triple(cycle(n), QQ) for n in (4, 5)])
    assert [(e.size, e.valence, e.valence_method, e.cheeger, e.method) for e in report.entries] == [
        (4, 2, "coordinate", None, "inconclusive"), (5, 2, "coordinate", None, "inconclusive")]
    assert all("non-enumerable field" in e.note for e in report.entries)
    assert report.verdict == VERDICT_INCONCLUSIVE


def test_mixed_fields_are_allowed():
    report = triple_family_report(
        [build_triple(path(3), GF2), build_triple(path(4), GF3)]
    )
    assert [e.field for e in report.entries] == ["gf2", "gf3"]


def test_verdict_vocabulary_is_closed():
    reports = [
        graph_family_report([cycle(4)]),
        graph_family_report([edgeless(2)]),
        triple_family_report([zero_triple(9, 1, GF2)]),
    ]
    for r in reports:
        assert r.verdict in VERDICTS


# -- verification records ------------------------------------------------------


def test_main_theorem_on_small_corpus():
    graphs = [g for n in range(1, 5) for g in labeled_graphs(n)]
    record = verify_main_theorem(graphs, GF2)
    assert record.checked == 1 + 2 + 8 + 64
    assert record.failed == 0
    assert record.passed


def test_main_theorem_p3_over_gf3():
    record = verify_main_theorem([path(3)], GF3)
    assert record.passed
    item = record.items[0]
    assert item["data"]["h_graph"] == item["data"]["h_triple"] == "1"


def test_main_theorem_star_centralizer_data():
    record = verify_main_theorem([star(3)], GF2)
    assert record.passed
    assert record.items[0]["data"]["qvalence"] == 3


def test_main_theorem_sampled_six_vertex_graphs():
    # reduced-scale sample; the bulk 6-vertex Cheeger equality runs in the
    # acceptance suite
    graphs = sample_labeled_graphs(6, 25, seed=606)
    record = verify_main_theorem(graphs, GF2)
    assert record.failed == 0


def test_augmentation_on_cycles():
    record = verify_augmentation([cycle(n) for n in (3, 4, 5, 6)], GF2)
    assert record.checked == 4 and record.failed == 0


def test_augmentation_on_degenerate_graphs():
    record = verify_augmentation([edgeless(2), path(2)], GF2)
    assert record.failed == 0
    assert record.items[0]["data"]["h_graph"] == "0"  # stays zero after augmenting


def test_field_invariance_small():
    record = field_invariance_check([path(4), complete_triangle()], [GF2, GF3, GF5])
    assert record.failed == 0
    p4 = record.items[0]
    assert p4["data"]["h_triple"] == "1/2"
    k3 = record.items[1]
    assert k3["data"]["qvalence"] == 2


def complete_triangle() -> SimplicialGraph:
    from raagcheeger import complete

    return complete(3)


def test_reports_are_deterministic_across_jobs():
    # 66 graphs in 11 isomorphism classes, C4 three times over
    graphs = [*labeled_graphs(4), cycle(4), _relabeled(cycle(4), [2, 0, 3, 1])]
    for verify, fields in ((verify_main_theorem, GF2), (field_invariance_check, [GF2, GF3])):
        a = verify(graphs, fields, jobs=1)
        b = verify(graphs, fields, jobs=2)
        assert a.to_json_dict(verbose=True) == b.to_json_dict(verbose=True)
    ra = graph_family_report([cycle(4), cycle(6)], jobs=1)
    rb = graph_family_report([cycle(4), cycle(6)], jobs=2)
    assert ra.to_json_dict() == rb.to_json_dict()


def test_triple_reports_from_graphs_equal_those_from_their_triples():
    # a triple is built only where a scan reads it; the entries equal those
    # of the built triples wherever the Cheeger scan, the q-valence min-max,
    # both or neither refuse
    graphs = [edgeless(0), path(1), edgeless(3), path(2), cycle(4), star(4), complete(5), cycle(9), path(12)]
    budgets = [DEFAULT_BUDGETS, Budgets(subspace_work=10), Budgets(subspace_work=400, basis_work=10),
               Budgets(basis_work=10**7)]
    for field in (GF2, GF3, Field.gf(101), QQ):
        for b in budgets:
            want = triple_family_report([build_triple(g, field) for g in graphs], b).to_json_dict()
            for jobs in (1, 2):
                assert graph_triple_family_report(graphs, field, b, jobs=jobs).to_json_dict() == want, (field, b)


def test_every_job_gets_a_stack(monkeypatch):
    # the 34 classes of 5-vertex graphs are split so that each job takes one
    # run of them, which goes to the worker whole, in one call; the worker's
    # one call per method cuts the run into stacks (of five here) that read
    # one stream, and the records do not depend on the split
    from raagcheeger import family, fold

    runs, calls, streams = [], [], []
    real, real_worker = fold._pmap, family._verify_theorem_run

    def pmap(fn, items, jobs):
        runs.append([len(run) for run in items])
        return real(fn, items, 1)

    def worker(graphs, field, budgets):
        calls.append(len(graphs))
        return real_worker(graphs, field, budgets)

    def recorded(name):
        stream = getattr(pairing, name)

        def built(n, *args):
            batches = stream(n, *args)

            def read():
                streams.append((n, name))
                yield from batches
            return read()
        return built

    monkeypatch.setattr(fold, "_pmap", pmap)
    monkeypatch.setattr(family, "_verify_theorem_run", worker)
    monkeypatch.setattr(pairing, "stack_size", lambda field, n: 5)
    for name in ("enumerate_subspaces", "_coordinate_batches"):
        monkeypatch.setattr(pairing, name, recorded(name))
    graphs = [*labeled_graphs(5), *labeled_graphs(3)]
    records = [verify_main_theorem(graphs, GF2, jobs=jobs).to_json_dict(verbose=True) for jobs in (1, 2, 3)]
    assert runs == [[34, 4], [17, 17, 2, 2], [12, 12, 10, 2, 2]]
    assert calls == [size for sizes in runs for size in sizes]
    sizes = [5, 3, 5, 5, 3, 3, 5, 5, 5, 3, 3]
    assert streams == [(n, name) for n in sizes for name in ("enumerate_subspaces", "_coordinate_batches")]
    assert records[1] == records[0] == records[2]


def test_invariance_stacks_each_field_by_its_own_size(monkeypatch):
    # the 34 classes of 5-vertex graphs are one run, whose triples over each
    # field go to one call: one stack over GF(2), whose zero-set table holds
    # them all, and 34 over GF(5), whose table holds one triple
    scanned = []
    real = pairing._scan

    def scan(pts, method, batches):
        scanned.append((pts[0].field.name, len(pts)))
        return real(pts, method, batches)

    monkeypatch.setattr(pairing, "_scan", scan)
    graphs = list(labeled_graphs(5))
    assert min(pairing.stack_size(GF2, 5), pairing.stack_size(GF3, 5)) >= 34 and pairing.stack_size(GF5, 5) == 1
    record = field_invariance_check(graphs, (GF2, GF3, GF5))
    assert (record.checked, record.failed) == (1024, 0)
    assert scanned == [("gf2", 34), ("gf3", 34), *[("gf5", 1)] * 34]


def test_record_csv_shape():
    record = verify_main_theorem([path(3), cycle(4)], GF2)
    lines = record.to_csv().strip().splitlines()
    assert lines[0] == "index,n,dimV,valence,qvalence,h_graph,h_triple,method,checks_passed"
    assert len(lines) == 3
    assert lines[1].endswith("5/5")


# -- one check per isomorphism class -------------------------------------------


def _relabeled(graph: SimplicialGraph, perm: list[int]) -> SimplicialGraph:
    """The graph with vertex i renamed to vertex perm[i], on the same labels."""
    vs = graph.vertices
    return SimplicialGraph.of(vs, [(vs[perm[i]], vs[perm[j]]) for i, j in graph.pairs])


def _verify_one_graph(graph: SimplicialGraph, field: Field, budgets) -> dict:
    """The per-graph map of verify_main_theorem: the graph's triple scanned
    as a stack of one."""
    return _verify_theorem_run([graph], field, budgets)[0]


def _verify_one_invariance(graph: SimplicialGraph, fields, budgets) -> dict:
    """The per-graph map of field_invariance_check, a stack of one per field."""
    return _verify_invariance_run([graph], tuple(fields), budgets)[0]


def _assert_per_graph_items(record: VerificationRecord, items: list[dict]) -> None:
    """The per-class record equals the per-graph map's ``items``, item by
    item, in verbose JSON and in CSV."""
    expected = VerificationRecord(record.kind, record.field, tuple(items))
    for got, want in zip(record.items, expected.items, strict=True):
        assert got == want
    assert json.dumps(record.to_json_dict(verbose=True)) == json.dumps(expected.to_json_dict(verbose=True))
    assert record.to_csv() == expected.to_csv()


@pytest.mark.parametrize("n, fields", [(5, (GF2, GF3)), (4, (GF5, Field.gf(7)))], ids=["n5", "n4"])
def test_per_class_records_equal_the_per_graph_map(n, fields):
    # the per-graph map verifies every graph on its own, as the verifiers
    # did before they keyed classes
    graphs = list(labeled_graphs(n))
    for field in fields:
        per_graph = [_verify_one_graph(g, field, DEFAULT_BUDGETS) for g in graphs]
        _assert_per_graph_items(verify_main_theorem(graphs, field), per_graph)
    per_graph = [_verify_one_invariance(g, fields, DEFAULT_BUDGETS) for g in graphs]
    _assert_per_graph_items(field_invariance_check(graphs, fields), per_graph)


def test_canonical_mask_is_invariant_under_relabeling():
    rng = random.Random(27)
    for n in range(8):
        for mask in (0, (1 << n * (n - 1) // 2) - 1, *(rng.getrandbits(n * (n - 1) // 2) for _ in range(6))):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = SimplicialGraph.of([f"v{i}" for i in range(n)],
                                   [(f"v{i}", f"v{j}") for k, (i, j) in enumerate(pairs) if mask >> k & 1])
            relabeled = [_relabeled(g, rng.sample(range(n), n)) for _ in range(4)]
            expected, *masks = canonical_masks(n, [g.pairs] + [h.pairs for h in relabeled])
            assert masks == [expected] * 4
            # sharing a bucket, the relabelings all take the graph's key
            assert len(set(class_keys([g, *relabeled]))) == 1


def test_class_keys_count_the_isomorphism_classes():
    # the graphs on n unlabeled vertices, OEIS A000088
    counts = [len(set(class_keys(list(labeled_graphs(n))))) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


def test_graphs_past_the_keyed_size_are_their_own_classes_in_input_order():
    # three copies of C8, one relabeled, share a bucket, yet each 8-vertex
    # graph is a class of its own; the three copies of P3 share one key
    p3 = path(3)
    graphs = [cycle(8), p3, _relabeled(cycle(8), [1, 2, 3, 4, 5, 6, 7, 0]), _relabeled(p3, [1, 0, 2]),
              path(8), cycle(8), p3]
    keys = class_keys(graphs)
    assert [keys[i] for i in (0, 2, 4, 5)] == [0, 2, 4, 5]
    assert keys[1] == keys[3] == keys[6] != 1
    per_graph = [_verify_one_graph(g, GF2, DEFAULT_BUDGETS) for g in graphs]
    _assert_per_graph_items(verify_main_theorem(graphs, GF2), per_graph)


def test_stacks_of_several_sizes_map_over_jobs():
    # the first graphs of each vertex count are scanned as stacks, one per
    # size here, and jobs maps over the stacks; the records equal the
    # per-graph map for one and two jobs
    rng = random.Random(31)
    graphs = [g for n in (2, 5, 3, 4) for g in rng.sample(list(labeled_graphs(n)), min(12, 2 ** (n * (n - 1) // 2)))]
    graphs += [edgeless(5), cycle(5), graphs[0]]
    for field in (GF2, GF3):
        per_graph = [_verify_one_graph(g, field, DEFAULT_BUDGETS) for g in graphs]
        for jobs in (1, 2):
            _assert_per_graph_items(verify_main_theorem(graphs, field, jobs=jobs), per_graph)
    fields = (GF2, GF3)
    per_graph = [_verify_one_invariance(g, fields, DEFAULT_BUDGETS) for g in graphs]
    for jobs in (1, 2):
        _assert_per_graph_items(field_invariance_check(graphs, fields, jobs=jobs), per_graph)


def test_blocked_masks_equal_the_per_graph_gather():
    # the masks of a bucket come from float64 products over blocks of C(n, 2)
    # graphs; each equals the least, over the relabelings, of the sum of the
    # table's bits at the graph's own pair positions, gathered graph by graph
    from raagcheeger.isomorphism import _relabelings

    for n in range(8):
        graphs = list(labeled_graphs(n))[::7] if n <= 6 else [cycle(7), path(7), complete(7), edgeless(7)]
        position, bits = _relabelings(n)
        gathered = [int(bits[:, [position[i][j] for i, j in g.pairs]].sum(axis=1).min()) for g in graphs]
        assert canonical_masks(n, [g.pairs for g in graphs]) == gathered


# -- stacked augmentation and triple reports -----------------------------------


def _verify_one_augmentation(graph: SimplicialGraph, field: Field, pivot: int, budgets) -> dict:
    """The per-graph map of verify_augmentation: the graph's triple and its
    augmentation, each scanned alone."""
    triple = build_triple(graph, field)
    augmented = augment_triple(triple, pivot)
    h_orig = cheeger_constant_exhaustive(triple, budgets).value
    h_aug = cheeger_constant_exhaustive(augmented, budgets).value
    if h_orig is None:
        monotone = h_aug is None
    else:
        monotone = h_aug is not None and h_aug >= h_orig
    d_orig = q_valence_coordinate(triple)
    d_aug = q_valence_coordinate(augmented)
    alt_orig = is_alternating(triple)
    alt_aug = is_alternating(augmented)
    checks = [
        _check("cheeger-monotone-under-augmentation", monotone,
               {"h": _fmt(h_orig), "h_augmented": _fmt(h_aug)}),
        _check("qvalence-grows-at-most-one", d_aug <= d_orig + 1,
               {"d": d_orig, "d_augmented": d_aug}),
        _check("alternating-flips", alt_orig and not alt_aug,
               {"alternating": alt_orig, "alternating_augmented": alt_aug}),
    ]
    data = {
        "n": graph.n_vertices,
        "dimV": triple.pairing.dim_v,
        "qvalence": d_orig,
        "h_graph": _fmt(h_orig),
        "h_triple": _fmt(h_aug),
        "method": "exhaustive",
    }
    return _item(graph, checks, data)


def _augmentation_by_graph(graphs, field, pivot, budgets=DEFAULT_BUDGETS) -> VerificationRecord:
    """verify_augmentation as the per-graph map: every size's refusals in
    input order, then each graph on its own."""
    for n, m in dict.fromkeys((g.n_vertices, min(g.n_edges, 1)) for g in graphs):
        check_pivot(n, pivot)
        refuse_exhaustive(field, n, m, budgets)
        refuse_exhaustive(field, n, 1, budgets)
    items = tuple(_verify_one_augmentation(g, field, pivot, budgets) for g in graphs)
    return VerificationRecord("augmentation", field.name, items)


@pytest.mark.parametrize("sizes, fields", [
    (range(1, 6), (GF2, GF3)), ([4], (GF5, Field.gf(7))), ([3], (Field.gf(31), Field.gf(101))),
], ids=["gf2-gf3", "gf5-gf7", "gf31-gf101"])
def test_stacked_augmentation_equals_the_per_graph_map(sizes, fields):
    # every graph of each size, in stacks of one vertex count that mix
    # edgeless, disconnected and connected graphs; GF(5)^4 and GF(7)^4 scan
    # on the zero-set kernel, dim V = 3 on the rank kernel at any field.
    # Pivot 0 in one call over all the sizes, on one and two jobs, and pivot
    # n - 1 size by size, on two jobs for the largest size
    for field in fields:
        graphs = [g for n in sizes for g in labeled_graphs(n)]
        want = _augmentation_by_graph(graphs, field, 0)
        for jobs in (1, 2):
            _assert_per_graph_items(verify_augmentation(graphs, field, 0, jobs=jobs), list(want.items))
        for n in sizes:
            graphs = list(labeled_graphs(n))
            want = _augmentation_by_graph(graphs, field, n - 1)
            for jobs in (1, 2) if n == max(sizes) else (1,):
                _assert_per_graph_items(verify_augmentation(graphs, field, n - 1, jobs=jobs), list(want.items))


@pytest.mark.parametrize("chunk", [7, 100])
def test_stacked_augmentation_in_small_batches(monkeypatch, chunk):
    # batches of chunk bytes, and stacks as small as those caps make them,
    # over graphs of several sizes in one call
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", chunk)
    rng = random.Random(chunk)
    graphs = [g for n in (4, 2, 5, 3) for g in rng.sample(list(labeled_graphs(n)), min(20, 2 ** (n * (n - 1) // 2)))]
    for field in (GF2, GF3):
        want = _augmentation_by_graph(graphs, field, 1)
        for jobs in (1, 2):
            _assert_per_graph_items(verify_augmentation(graphs, field, 1, jobs=jobs), list(want.items))


@pytest.mark.parametrize("graphs, field, pivot, budgets, refused, message", [
    ([path(3), path(2), path(4)], GF2, 2, DEFAULT_BUDGETS, PairingError, "pivot 2 outside basis range 0..1"),
    ([path(3), edgeless(0)], GF2, 0, DEFAULT_BUDGETS, PairingError, "pivot 0 outside basis range 0..-1"),
    ([path(3), complete(9)], GF2, 0, DEFAULT_BUDGETS, BudgetError, "--budget-subspaces"),
    ([complete(9)], GF2, 9, DEFAULT_BUDGETS, PairingError, "pivot 9 outside basis range 0..8"),
    ([complete(9), path(2)], GF2, 2, DEFAULT_BUDGETS, BudgetError, "--budget-subspaces"),
    ([edgeless(3), path(2)], Field.gf(2**61 - 1), 0, DEFAULT_BUDGETS, BudgetError, "--budget-subspaces"),
    ([edgeless(3), path(2)], Field.gf(2**61 - 1), 0, Budgets(subspace_work=10**60), LinalgError,
     "gf2305843009213693951^3 has more vectors than a numpy array can index"),
    ([path(3), cycle(4)], QQ, 1, DEFAULT_BUDGETS, LinalgError, "non-enumerable field"),
], ids=["pivot", "empty", "budget", "pivot-before-budget", "input-order", "budget-before-dim-w-1", "dim-w-1",
        "rational"])
def test_augmentation_refusals_keep_their_order(monkeypatch, graphs, field, pivot, budgets, refused, message):
    # the per-graph map's first refusal, with its message, before any triple
    # is built: graph by graph in input order, a pivot out of range before
    # the budget, and for the edgeless graph over
    # GF(2^61 - 1) the budget, then, with the budget raised, the dim W = 1
    # check of its augmentation, a space too large to index
    from raagcheeger import family

    built = []
    real = family.build_triple
    monkeypatch.setattr(family, "build_triple", lambda g, f: built.append(g) or real(g, f))
    outcomes = []
    for verify in (_augmentation_by_graph, verify_augmentation):
        with pytest.raises(refused) as err:
            verify(graphs, field, pivot, budgets)
        outcomes.append(str(err.value))
    assert outcomes[0] == outcomes[1] and message in outcomes[1] and not built


def _triple_entry_alone(t, budgets) -> FamilyEntry:
    """The per-triple map of the triple reports: the triple scanned alone."""
    pt = getattr(t, "pairing", t)
    n = pt.dim_v
    qval, qmethod = _q_valence(pt, budgets)
    try:
        report = cheeger_constant_exhaustive(pt, budgets)
    except (BudgetError, LinalgError) as err:
        return FamilyEntry("triple", pt.field.name, n, qval, qmethod, None, method="inconclusive", note=str(err))
    if report.value is None:
        return FamilyEntry("triple", pt.field.name, n, qval, qmethod, None, method="undefined", note="dim V < 2")
    return FamilyEntry("triple", pt.field.name, n, qval, qmethod, report.value, method="exact")


def _graph_triple_entry_alone(graph: SimplicialGraph, field: Field, budgets) -> FamilyEntry:
    """The per-graph map of graph_triple_family_report: the graph's triple
    built only where a scan of it runs, and scanned alone."""
    n = graph.n_vertices
    try:
        refuse_exhaustive(field, n, graph.n_edges, budgets)
    except (BudgetError, LinalgError) as err:
        try:
            refuse_q_valence(field, n, budgets)
        except (BudgetError, LinalgError):
            return FamilyEntry("triple", field.name, n, max_valence(graph), "coordinate", None,
                               method="inconclusive", note=str(err))
    return _triple_entry_alone(build_triple(graph, field), budgets)


def _refused(refuse, *args) -> bool:
    try:
        refuse(*args)
    except (BudgetError, LinalgError):
        return True
    return False


def test_stacked_triple_reports_equal_the_per_triple_map(monkeypatch):
    # mixed fields and sizes in one report, in stacks of one field and dim V
    # that hold edgeless graphs beside connected ones; budgets that refuse
    # the Cheeger scan of some sizes and not others, the q-valence min-max
    # too or not, and QQ, where both refuse by field.  A graph's triple is
    # built once where one of its scans runs, and nowhere else
    from raagcheeger import family

    rng = random.Random(30)
    graphs = [edgeless(0), path(1), edgeless(3), path(2), cycle(4), star(4), complete(5), cycle(9), path(12)]
    graphs += [g for n in (4, 5, 3) for g in rng.sample(list(labeled_graphs(n)), 8)] + [edgeless(4), edgeless(5)]
    budgets = [DEFAULT_BUDGETS, Budgets(subspace_work=10), Budgets(subspace_work=400, basis_work=10),
               Budgets(basis_work=10**7)]
    fields = (GF2, GF3, Field.gf(101), QQ)
    built = []
    real = family.build_triple
    monkeypatch.setattr(family, "build_triple", lambda g, f: built.append(id(g)) or real(g, f))
    seen = set()
    for b in budgets:
        triples = [real(g, fields[i % len(fields)]) for i, g in enumerate(graphs)]
        want = [_triple_entry_alone(t, b) for t in triples]
        for jobs in (1, 2):
            assert list(triple_family_report(triples, b, jobs=jobs).entries) == want, (b, jobs)
        for field in fields:
            want = [_graph_triple_entry_alone(g, field, b) for g in graphs]
            seen |= {(e.method, e.valence_method) for e in want}
            read = [id(g) for g in graphs if not (_refused(refuse_exhaustive, field, g.n_vertices, g.n_edges, b)
                                                  and _refused(refuse_q_valence, field, g.n_vertices, b))]
            for jobs in (1, 2):
                built.clear()
                assert list(graph_triple_family_report(graphs, field, b, jobs=jobs).entries) == want, (field, b)
                if jobs == 1:
                    assert sorted(built) == sorted(read), (field, b)
    assert {("exact", "exhaustive"), ("undefined", "exhaustive"), ("inconclusive", "exhaustive"),
            ("inconclusive", "coordinate")} <= seen
