import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from raagcheeger import (
    BudgetError,
    Budgets,
    CheegerUndefinedError,
    GraphError,
    SimplicialGraph,
    boundary,
    cheeger_graph_exact,
    cheeger_of_subset,
    complete,
    cycle,
    edgeless,
    is_connected,
    labeled_graphs,
    margulis_like,
    max_valence,
    path,
    random_regular,
    spectral_cheeger_bounds,
    star,
)
from raagcheeger import graphs, linalg
from raagcheeger.budgets import DENSE_SPECTRAL_VERTICES, check_dense_spectrum
from raagcheeger.graphs import laplacian_second_eigenvalue

from graph_subset_oracle import (
    cheeger_by_subset_loop,
    connected_by_search,
    laplacian_by_edge_loop,
    margulis_by_labels,
)


def abc_path():
    return SimplicialGraph.of(["a", "b", "c"], [("a", "b"), ("b", "c")])


# -- validation ----------------------------------------------------------------


def test_self_loop_rejected():
    with pytest.raises(GraphError, match="self-loop"):
        SimplicialGraph.of(["a"], [("a", "a")])


def test_repeated_edge_rejected_either_orientation():
    with pytest.raises(GraphError, match="repeated edge"):
        SimplicialGraph.of(["a", "b"], [("a", "b"), ("b", "a")])


def test_undeclared_endpoint_rejected():
    with pytest.raises(GraphError, match="undeclared vertex 'c'"):
        SimplicialGraph.of(["a", "b"], [("a", "c")])


def test_edges_are_canonicalized():
    g = SimplicialGraph.of(["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert g.edges == (("a", "b"), ("b", "c"))


# -- boundary and subset Cheeger -------------------------------------------------


def test_boundary_of_opposite_pair_in_c4():
    g = cycle(4)
    assert boundary(g, ["v0", "v2"]) == frozenset({"v1", "v3"})


def test_boundary_of_everything_is_empty():
    g = cycle(4)
    assert boundary(g, g.vertices) == frozenset()


def test_boundary_of_a_component_is_empty():
    g = SimplicialGraph.of(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert boundary(g, ["a", "b"]) == frozenset()


def test_subset_cheeger_values():
    assert cheeger_of_subset(complete(4), ["v0"]) == 3
    g = path(4)
    assert cheeger_of_subset(g, ["v0", "v3"]) == 1
    assert cheeger_of_subset(g, ["v0", "v1"]) == Fraction(1, 2)
    two_edges = SimplicialGraph.of("abcd", [("a", "b"), ("c", "d")])
    assert cheeger_of_subset(two_edges, ["a", "b"]) == 0


def test_subset_cheeger_preconditions():
    g = abc_path()
    with pytest.raises(GraphError):
        cheeger_of_subset(g, [])
    # {a, c} has more than half of 3 vertices, hence is not admissible
    with pytest.raises(GraphError, match="exceeds half"):
        cheeger_of_subset(g, ["a", "c"])
    with pytest.raises(GraphError, match="not a vertex"):
        cheeger_of_subset(g, ["z"])


# -- exact Cheeger constant ------------------------------------------------------


def test_cheeger_c4():
    res = cheeger_graph_exact(cycle(4))
    assert res.value == 1


def test_cheeger_p3_only_singletons_admissible():
    # with 3 vertices the only admissible subsets are singletons
    res = cheeger_graph_exact(abc_path())
    assert res.value == 1
    assert res.minimizer == ("a",)
    assert res.subsets_visited == 3


def test_cheeger_p4():
    res = cheeger_graph_exact(path(4))
    assert res.value == Fraction(1, 2)
    assert res.minimizer == ("v0", "v1")


def test_cheeger_zero_iff_disconnected_exhaustive():
    for n in range(2, 7):
        for g in labeled_graphs(n):
            assert (cheeger_graph_exact(g).value == 0) == (not is_connected(g))


def test_cheeger_undefined_below_two_vertices():
    with pytest.raises(CheegerUndefinedError):
        cheeger_graph_exact(edgeless(1))
    with pytest.raises(CheegerUndefinedError):
        cheeger_graph_exact(edgeless(0))


def test_cheeger_budget_error_names_flag():
    with pytest.raises(BudgetError, match="--budget-subsets"):
        cheeger_graph_exact(cycle(6), Budgets(subset_vertices=5))
    with pytest.raises(BudgetError) as err:
        cheeger_graph_exact(cycle(25))
    assert str(err.value) == (
        "exact subset enumeration capped at 24 vertices "
        "(requested 25; raise with --budget-subsets or use spectral bounds)"
    )


def test_cheeger_invariant_under_relabeling():
    rng = random.Random(3)
    for g in [cycle(6), path(5), star(4), margulis_like(2)]:
        names = [f"x{i}" for i in range(g.n_vertices)]
        rng.shuffle(names)
        h1 = cheeger_graph_exact(g).value
        to = dict(zip(g.vertices, names))
        h2 = cheeger_graph_exact(SimplicialGraph.of(names, [(to[u], to[v]) for u, v in g.edges])).value
        assert h1 == h2


def _outcome(res):
    return res.value, res.minimizer, res.subsets_visited


def _components_graph(sizes, rng, extra=0.3):
    """A graph whose components have the given sizes, each a random spanning
    tree plus random extra edges, on shuffled labels v0..v{n-1}."""
    n = sum(sizes)
    order = list(range(n))
    rng.shuffle(order)
    edges, start = set(), 0
    for size in sizes:
        part = order[start : start + size]
        start += size
        for t in range(1, size):
            edges.add(tuple(sorted((part[rng.randrange(t)], part[t]))))
        edges.update(e for e in itertools.combinations(sorted(part), 2) if rng.random() < extra)
    return _indexed_graph(n, edges)


def _indexed_graph(n, edges):
    return SimplicialGraph.of([f"v{i}" for i in range(n)], [(f"v{a}", f"v{b}") for a, b in sorted(edges)])


def _cycle_beside(n, component, component_edges, rng=None):
    """A component beside a cycle through every other vertex of range(n),
    plus n random chords of that cycle when ``rng`` is given."""
    rest = [v for v in range(n) if v not in component]
    edges = {tuple(sorted((rest[i - 1], rest[i]))) for i in range(len(rest))}
    if rng is not None:
        edges.update(tuple(sorted(rng.sample(rest, 2))) for _ in range(n))
    return _indexed_graph(n, edges | set(component_edges))


def test_exact_scan_matches_subset_loop_on_every_small_graph():
    for n in range(2, 6):
        for g in labeled_graphs(n):
            assert _outcome(cheeger_graph_exact(g)) == _outcome(cheeger_by_subset_loop(g)), g


def test_exact_scan_matches_subset_loop_on_a_seeded_sample():
    rng = random.Random(2024)
    sample = []
    for n in range(6, 17):
        sample.append(_components_graph([n], rng))
        low = rng.randint(2, n // 2)
        sample.append(_components_graph([low, n - low], rng))
        if n >= 9:
            sample.append(_components_graph([3, 3, n - 6], rng, extra=0.5))
        pairs = itertools.combinations(range(n), 2)
        sample.append(_indexed_graph(n, [e for e in pairs if rng.random() < 0.2]))
    zero_past_singletons = 0
    for g in sample:
        res = cheeger_graph_exact(g)
        assert _outcome(res) == _outcome(cheeger_by_subset_loop(g)), g
        zero_past_singletons += res.value == 0 and len(res.minimizer) > 1
    assert zero_past_singletons >= 10
    assert any(g.n_vertices % 2 for g in sample)
    for n in (18, 20):
        g = random_regular(n, 3, seed=n)
        assert _outcome(cheeger_graph_exact(g)) == _outcome(cheeger_by_subset_loop(g))


def test_exact_scan_matches_subset_loop_across_chunk_boundaries(monkeypatch):
    rng = random.Random(7)
    cases = [
        # the only zero of size 2 is {v0, v7}, rank 6: last of a 7-block
        _cycle_beside(8, (0, 7), [(0, 7)]),
        # the only zero of size 2 is {v1, v2}, rank 7: first of a 7-block
        _cycle_beside(8, (1, 2), [(1, 2)]),
        # 16 vertices: a zero inside the high part [12, 16) and one across
        _cycle_beside(16, (13, 15), [(13, 15)]),
        _cycle_beside(16, (3, 14), [(3, 14)]),
        path(8), cycle(9), star(10), path(14), cycle(15),
        random_regular(14, 3, seed=1), random_regular(16, 3, seed=2),
        _components_graph([2, 14], rng), _components_graph([3, 13], rng),
    ]
    expected = [_outcome(cheeger_by_subset_loop(g)) for g in cases]
    assert [out[2] for out in expected[:2]] == [8 + 6 + 1, 8 + 7 + 1]
    assert {out[0] for out in expected} >= {0, Fraction(1, 4)}
    for chunk in (1, 7, graphs.SUBSET_CHUNK):
        monkeypatch.setattr(graphs, "SUBSET_CHUNK", chunk)
        for g, want in zip(cases, expected):
            assert _outcome(cheeger_graph_exact(g)) == want, (chunk, g)


def test_popcount_and_exact_scan_without_bitwise_count(monkeypatch):
    # numpy before 2.0 has no bitwise_count: linalg.popcount then looks up
    # 12 bits at a time, once for masks of up to 12 bits and two to six
    # times for wider ones, as the scan's masks of 14 and 20 vertices are
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = random.Random(5)
    for bits in range(1, 64):
        masks = [rng.getrandbits(bits) for _ in range(50)] + [2**bits - 1]
        counts = linalg.popcount(np.array(masks, np.int64), bits).tolist()
        assert counts == [bin(x).count("1") for x in masks], bits
    words = [rng.getrandbits(64) for _ in range(50)] + [0, 2**63, 2**64 - 1]
    counts = linalg.popcount(np.array(words, np.uint64), 64).tolist()
    assert counts == [bin(x).count("1") for x in words]
    for n in (8, 14, 20):
        g = random_regular(n, 3, seed=n + 1)
        assert _outcome(cheeger_graph_exact(g)) == _outcome(cheeger_by_subset_loop(g)), n


def test_exact_scan_on_graphs_wider_than_64_bits():
    # a zero at a small size must end the scan before any large subset table
    # is built, and masks past bit 63 must stay exact
    rng = random.Random(11)
    cases = [
        _cycle_beside(64, (63,), [], rng),  # an isolated vertex at bit 63
        _cycle_beside(64, (40, 62), [(40, 62)], rng),
        _cycle_beside(70, (20, 66, 69), [(20, 66), (66, 69)], rng),
    ]
    for g in cases:
        start = time.perf_counter()
        res = cheeger_graph_exact(g, Budgets(subset_vertices=70))
        elapsed = time.perf_counter() - start
        assert _outcome(res) == _outcome(cheeger_by_subset_loop(g))
        assert res.value == 0
        assert elapsed < 1.0


def test_boundary_disjoint_from_subset():
    rng = random.Random(9)
    for g in [cycle(5), complete(4), star(3), path(6)]:
        for _ in range(10):
            a = {v for v in g.vertices if rng.random() < 0.5}
            assert not (boundary(g, a) & a)


# -- valence and connectivity ----------------------------------------------------


def test_valence_and_connectivity_basics():
    assert max_valence(star(3)) == 3
    assert not is_connected(edgeless(2))
    assert is_connected(cycle(5)) and max_valence(cycle(5)) == 2
    assert max_valence(edgeless(0)) == 0
    assert is_connected(edgeless(0)) and is_connected(edgeless(1))


# -- spectral bounds ---------------------------------------------------------------


def test_lambda2_matches_closed_forms():
    # paths: 2 - 2cos(pi / n); cycles: 2 - 2cos(2 pi / n); complete: n; stars: 1
    for n in (50, 120, 200):
        lam = laplacian_second_eigenvalue(path(n))
        assert lam == pytest.approx(2 - 2 * math.cos(math.pi / n), rel=1e-9)
    for n in (3, 4, 6, 12, 60, 120, 240):
        lam = laplacian_second_eigenvalue(cycle(n))
        assert lam == pytest.approx(2 - 2 * math.cos(2 * math.pi / n), rel=1e-9)
    for n in (2, 4, 7):
        assert laplacian_second_eigenvalue(complete(n)) == pytest.approx(n, abs=1e-6)
    for k in (3, 5):
        assert laplacian_second_eigenvalue(star(k)) == pytest.approx(1.0, abs=1e-6)


def test_spectral_bounds_on_k2_and_c4():
    lo, up = spectral_cheeger_bounds(complete(2))
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert up == pytest.approx(2.0, abs=1e-6)
    lo, up = spectral_cheeger_bounds(cycle(4))
    assert lo == pytest.approx(0.5, abs=1e-6)
    assert up == pytest.approx(math.sqrt(8), abs=1e-6)


def test_spectral_sandwich_against_exact():
    graphs = [cycle(n) for n in range(3, 13)]
    graphs += [path(n) for n in range(2, 13)]
    graphs += [complete(n) for n in range(2, 9)]
    graphs += [star(k) for k in range(1, 12)]
    graphs += [margulis_like(2), margulis_like(3)]
    for g in graphs:
        lo, up = spectral_cheeger_bounds(g)
        h = cheeger_graph_exact(g).value
        assert lo - 1e-6 <= h <= up + 1e-6, g


def test_dense_spectral_route_refuses_past_its_vertex_cap(monkeypatch):
    # the refusal comes before any work on the graph, and so before the
    # n x n Laplacian is allocated
    check_dense_spectrum(DENSE_SPECTRAL_VERTICES)
    monkeypatch.setattr(graphs, "is_connected", None)
    n = DENSE_SPECTRAL_VERTICES + 1
    with pytest.raises(BudgetError) as err:
        laplacian_second_eigenvalue(path(n))
    assert str(err.value) == (
        f"dense spectral bounds capped at {DENSE_SPECTRAL_VERTICES} vertices "
        f"(requested {n}; its Laplacian would take {8 * n * n} bytes)"
    )
    with pytest.raises(BudgetError, match="dense spectral bounds capped"):
        spectral_cheeger_bounds(cycle(30_000))


def test_spectral_rejects_disconnected_and_tiny():
    with pytest.raises(GraphError):
        spectral_cheeger_bounds(edgeless(3))
    with pytest.raises(GraphError):
        spectral_cheeger_bounds(edgeless(1))


# -- index pairs -------------------------------------------------------------------


def _small_and_generated_graphs():
    gs = [g for n in range(6) for g in labeled_graphs(n)]
    gs += [cycle(n) for n in range(3, 30)] + [path(n) for n in range(1, 30)]
    gs += [complete(n) for n in range(9)] + [star(k) for k in range(10)] + [edgeless(n) for n in range(5)]
    gs += [margulis_like(m) for m in range(2, 7)]
    gs += [random_regular(n, d, seed) for n, d in ((6, 0), (8, 1), (8, 3), (10, 4), (20, 3)) for seed in range(3)]
    return gs


def test_pairs_and_degrees_agree_with_the_labeled_adjacency():
    # every graph on at most 5 vertices and the generated families: the
    # pairs are sorted, distinct and i < j, name the labeled edges in order,
    # and are the label-keyed adjacency's edges; the degrees, valence and
    # connectivity read from them are the adjacency's
    for g in _small_and_generated_graphs():
        n = g.n_vertices
        assert list(g.pairs) == sorted(set(g.pairs)) and all(0 <= i < j < n for i, j in g.pairs), g
        assert g.edges == tuple((g.vertices[i], g.vertices[j]) for i, j in g.pairs), g
        by_labels = {tuple(sorted((g.index[u], g.index[w]))) for u in g.vertices for w in g.adjacency[u]}
        assert set(g.pairs) == by_labels, g
        assert g.degrees == tuple(len(g.adjacency[v]) for v in g.vertices), g
        assert max_valence(g) == max((len(g.adjacency[v]) for v in g.vertices), default=0), g
        assert is_connected(g) == connected_by_search(g), g


def test_laplacian_from_pairs_equals_the_edge_loop():
    # the matrix is the per-edge loop's entry for entry, so eigvalsh returns
    # the same bits
    gs = [path(n) for n in range(2, 201)] + [cycle(n) for n in range(3, 241)]
    gs += [margulis_like(m) for m in range(3, 7)]
    gs += [random_regular(n, 3, seed) for n in (10, 20, 40, 100) for seed in range(3)]
    for g in gs:
        expected = laplacian_by_edge_loop(g)
        assert np.array_equal(graphs._laplacian(g), expected), g
    for g in gs[::17]:
        lam2 = float(np.linalg.eigvalsh(laplacian_by_edge_loop(g))[1])
        assert laplacian_second_eigenvalue(g) == lam2, g


def test_generated_graphs_equal_those_built_from_labels():
    # graphs built directly from index pairs equal, and hash alike, the ones
    # SimplicialGraph.of builds from their labeled definitions, pairs
    # included; the seeded random-regular graphs are pinned
    def check(g, h):
        assert (g, hash(g), g.pairs) == (h, hash(h), h.pairs), g

    for n in range(6):
        vs = [f"v{i}" for i in range(n)]
        every = list(itertools.combinations(vs, 2))
        for mask, g in enumerate(labeled_graphs(n)):
            check(g, SimplicialGraph.of(vs, [e for k, e in enumerate(every) if mask >> k & 1]))
    for n in range(1, 40):
        vs = [f"v{i}" for i in range(n)]
        check(path(n), SimplicialGraph.of(vs, zip(vs, vs[1:])))
        check(complete(n), SimplicialGraph.of(vs, itertools.combinations(vs, 2)))
        check(star(n - 1), SimplicialGraph.of(vs, [(vs[0], v) for v in vs[1:]]))
        check(edgeless(n), SimplicialGraph.of(vs, []))
        if n >= 3:
            check(cycle(n), SimplicialGraph.of(vs, zip(vs, vs[1:] + vs[:1])))
    for m in range(2, 9):
        check(margulis_like(m), margulis_by_labels(m))
    pinned = {
        (8, 3, 1): "0-2 0-4 0-5 1-2 1-3 1-5 2-7 3-4 3-6 4-7 5-6 6-7",
        (10, 4, 2): "0-1 0-2 0-3 0-4 1-2 1-4 1-8 2-6 2-9 3-5 3-8 3-9 4-5 4-7 5-6 5-7 6-7 6-9 7-8 8-9",
    }
    for (n, d, seed), edges in pinned.items():
        pairs = [tuple(map(int, e.split("-"))) for e in edges.split()]
        vs = [f"v{i}" for i in range(n)]
        check(random_regular(n, d, seed), SimplicialGraph.of(vs, [(vs[i], vs[j]) for i, j in pairs]))


# -- generators --------------------------------------------------------------------


def test_cycle_generator():
    g = cycle(4)
    assert g.n_vertices == 4 and g.n_edges == 4
    assert all(len(g.adjacency[v]) == 2 for v in g.vertices)
    with pytest.raises(GraphError):
        cycle(2)


def test_margulis_like_shape():
    g = margulis_like(3)
    assert g.n_vertices == 9
    assert all(len(g.adjacency[v]) <= 8 for v in g.vertices)
    assert is_connected(g)
    with pytest.raises(GraphError):
        margulis_like(1)


def test_random_regular_structure():
    g = random_regular(6, 2, seed=7)
    assert all(len(g.adjacency[v]) == 2 for v in g.vertices)
    assert g.n_edges == 6
    assert random_regular(6, 2, seed=7) == g  # deterministic
    g3 = random_regular(8, 3, seed=1)
    assert all(len(g3.adjacency[v]) == 3 for v in g3.vertices)
    with pytest.raises(GraphError, match="unsatisfiable"):
        random_regular(5, 3, seed=0)
    with pytest.raises(GraphError, match="unsatisfiable"):
        random_regular(4, 4, seed=0)


def test_star_and_edgeless():
    assert star(3).n_vertices == 4 and max_valence(star(3)) == 3
    assert edgeless(4).n_edges == 0


def test_labeled_graphs_refuse_a_negative_vertex_count():
    with pytest.raises(GraphError, match="nonnegative"):
        labeled_graphs(-1)
    assert [g.n_vertices for g in labeled_graphs(0)] == [0]


# -- serialization -------------------------------------------------------------------


def test_json_round_trip_is_bit_exact():
    g = SimplicialGraph.of(["a", "b", "c"], [("c", "a"), ("b", "c")])
    text = json.dumps(g.to_json_dict())
    back = SimplicialGraph.from_json_dict(json.loads(text))
    assert back == g
    assert json.dumps(back.to_json_dict()) == text


def test_edgelist_round_trip():
    for g in [cycle(5), path(4), edgeless(3), margulis_like(2)]:
        assert SimplicialGraph.from_edgelist(g.to_edgelist()) == g


def test_edgelist_needs_implicit_labels():
    g = SimplicialGraph.of(["a", "b"], [("a", "b")])
    with pytest.raises(GraphError, match="implicit labels"):
        g.to_edgelist()


def test_edgelist_header_is_checked():
    with pytest.raises(GraphError):
        SimplicialGraph.from_edgelist("2\nv0 v1\n")
    with pytest.raises(GraphError):
        SimplicialGraph.from_edgelist("3 2\nv0 v1\n")
