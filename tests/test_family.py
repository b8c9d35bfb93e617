from fractions import Fraction

import pytest

from raagcheeger import (
    GF2,
    GF3,
    GF5,
    Budgets,
    SimplicialGraph,
    build_triple,
    cheeger_graph_exact,
    cycle,
    edgeless,
    field_invariance_check,
    graph_family_report,
    labeled_graphs,
    margulis_like,
    path,
    sample_labeled_graphs,
    star,
    triple_family_report,
    verify_augmentation,
    verify_main_theorem,
    zero_triple,
)
from raagcheeger.family import (
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_EXPANDER,
)

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
    graphs = [g for g in labeled_graphs(3)]
    a = verify_main_theorem(graphs, GF2, jobs=1)
    b = verify_main_theorem(graphs, GF2, jobs=2)
    assert a.to_json_dict(verbose=True) == b.to_json_dict(verbose=True)
    ra = graph_family_report([cycle(4), cycle(6)], jobs=1)
    rb = graph_family_report([cycle(4), cycle(6)], jobs=2)
    assert ra.to_json_dict() == rb.to_json_dict()


def test_record_csv_shape():
    record = verify_main_theorem([path(3), cycle(4)], GF2)
    lines = record.to_csv().strip().splitlines()
    assert lines[0] == "index,n,dimV,valence,qvalence,h_graph,h_triple,method,checks_passed"
    assert len(lines) == 3
    assert lines[1].endswith("5/5")
