import random

import pytest

from raagcheeger import (
    GF2,
    GF3,
    QQ,
    GraphError,
    SimplicialGraph,
    build_triple,
    cycle,
    complete,
    edgeless,
    labeled_graphs,
    max_centralizer_rank,
    max_valence,
    star,
)
from raagcheeger.raag import RaagTriple

from generators import sample_labeled_graphs
from triple_oracle import scalar_tensor


def test_single_edge_triple_over_gf2():
    t = build_triple(complete(2), GF2)
    assert t.pairing.dim_v == 2 and t.pairing.dim_w == 1
    assert t.pairing.tensor[0][1].tolist() == [1]
    assert t.pairing.tensor[1][0].tolist() == [1]  # -1 = 1 in characteristic 2


def test_edgeless_triple_has_zero_pairing():
    t = build_triple(edgeless(3), GF2)
    assert t.pairing.dim_w == 0
    assert t.pairing.tensor.tolist() == [[[]] * 3] * 3


def test_triangle_over_gf3_sign_convention():
    t = build_triple(complete(3), GF3)
    assert t.pairing.dim_w == 3
    # edge v0-v1 is the first edge coordinate
    assert t.pairing.tensor[0][1].tolist() == [1, 0, 0]
    assert t.pairing.tensor[1][0].tolist() == [2, 0, 0]  # -1 = 2 mod 3


def test_dimensions_match_graph():
    for g in [cycle(5), star(3), edgeless(4)]:
        for field in (GF2, GF3, QQ):
            t = build_triple(g, field)
            assert t.pairing.dim_v == g.n_vertices
            assert t.pairing.dim_w == g.n_edges
            assert len(t.vertex_basis) == g.n_vertices
            assert len(t.edge_basis) == g.n_edges


def test_tensor_structure_small_corpus():
    # antisymmetric with zero diagonal; one nonzero pair (i<j) per edge
    fields = (GF2, GF3, QQ)
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for field in fields:
                tensor = scalar_tensor(build_triple(g, field).pairing)
                neg = field.neg
                nonzero_pairs = 0
                for i in range(n):
                    assert not any(tensor[i][i])
                    for j in range(i + 1, n):
                        a, b = tensor[i][j], tensor[j][i]
                        assert b == tuple(neg(x) for x in a)
                        if any(a):
                            nonzero_pairs += 1
                assert nonzero_pairs == g.n_edges


def test_max_centralizer_rank():
    assert max_centralizer_rank(star(3)) == 4
    assert max_centralizer_rank(cycle(6)) == 3
    assert max_centralizer_rank(edgeless(1)) == 1
    with pytest.raises(GraphError):
        max_centralizer_rank(edgeless(0))


def test_max_centralizer_rank_is_attained_on_a_vertex():
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 5, 6):
        for g in sample_labeled_graphs(n, min(4, 2 ** (n * (n - 1) // 2)), seed=rng.randrange(10**6)):
            best = max(1 + len(g.adjacency[v]) for v in g.vertices)
            assert best == max_centralizer_rank(g) == max_valence(g) + 1


def test_retract_compatibility_with_full_subgraphs():
    # the triple of a full subgraph is the subtensor on its vertex coordinates,
    # projected to its edge coordinates
    rng = random.Random(41)
    pool = [g for g in labeled_graphs(4)] + [cycle(5), star(4)]
    for g in rng.sample(pool, 12):
        keep = [v for v in g.vertices if rng.random() < 0.6]
        sub = SimplicialGraph.of(keep, [(u, v) for u, v in g.edges if u in keep and v in keep])
        t_big = build_triple(g, GF3).pairing
        t_sub = build_triple(sub, GF3).pairing
        vmap = [g.index[v] for v in sub.vertices]
        big_edges = {pair: e for e, pair in enumerate(g.pairs)}
        emap = []
        for i, j in sub.pairs:
            bi, bj = vmap[i], vmap[j]
            emap.append(big_edges[(min(bi, bj), max(bi, bj))])
        for i in range(sub.n_vertices):
            for j in range(sub.n_vertices):
                projected = t_big.tensor[vmap[i], vmap[j], emap].tolist()
                assert projected == t_sub.tensor[i, j].tolist()


@pytest.mark.parametrize("field, entry, negated", [(GF3, 0, 0), (QQ, 0, 0), (QQ, "1/2", "-1/2")])
def test_raag_triple_refuses_a_tensor_its_graph_does_not_give(field, entry, negated):
    # a valid antisymmetric tensor, but not the cup product of its graph: the
    # edge v0-v1 cleared, or halved
    data = build_triple(cycle(4), field).to_json_dict()
    data["tensor"][0][1][0], data["tensor"][1][0][0] = entry, negated
    with pytest.raises(GraphError, match="does not match the cup product of its source graph"):
        RaagTriple.from_json_dict(data)


def test_raag_triple_json_round_trip():
    t = build_triple(cycle(4), GF3)
    data = t.to_json_dict()
    assert data["vertex_basis"] == ["v0*", "v1*", "v2*", "v3*"]
    back = RaagTriple.from_json_dict(data)
    assert back == t
