import ast
import gc
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import raagcheeger
from raagcheeger import linalg, pairing, zerosets
from raagcheeger import (
    GF2,
    GF3,
    GF5,
    QQ,
    DEFAULT_BUDGETS,
    BudgetError,
    Budgets,
    Field,
    FieldError,
    LinalgError,
    PairingError,
    PairingTriple,
    SimplicialGraph,
    Subspace,
    augment_triple,
    build_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    cheeger_graph_exact,
    cheeger_of_subspace,
    complete,
    cycle,
    edgeless,
    enumerate_subspaces,
    gaussian_binomial,
    is_alternating,
    is_connected,
    is_pairing_connected_exhaustive,
    labeled_graphs,
    path,
    q_valence_coordinate,
    q_valence_exhaustive,
    random_triple,
    star,
    zero_triple,
)

from complement_oracle import apply_pairing, orthogonal_complement, subspace_intersection
from decomposition_oracle import pairing_connected_by_decomposition
from qvalence_oracle import q_valence_by_basis_pairs
from subspace_stream import canonical_order, subspaces as subspace_stream
from triple_oracle import triple_by_scalars


def p3_triple(field=GF2):
    return build_triple(path(3), field)


def span(field, n, *vectors):
    return Subspace.from_vectors(field, n, vectors)


# -- construction and validation ----------------------------------------------


def test_symmetry_is_validated():
    with pytest.raises(PairingError, match="symmetry violated"):
        PairingTriple.of(GF3, 2, 1, [[(0,), (1,)], [(1,), (0,)]], "antisymmetric")
    PairingTriple.of(GF3, 2, 1, [[(0,), (1,)], [(2,), (0,)]], "antisymmetric")
    PairingTriple.of(GF3, 2, 1, [[(0,), (1,)], [(1,), (0,)]], "symmetric")


def test_componentwise_needs_signs():
    with pytest.raises(PairingError, match="sign"):
        PairingTriple.of(GF2, 1, 1, [[(1,)]], "componentwise")
    PairingTriple.of(GF2, 1, 1, [[(1,)]], "componentwise", [1])
    with pytest.raises(PairingError):
        PairingTriple.of(GF2, 1, 1, [[(1,)]], "componentwise", [2])


def test_triple_json_round_trip():
    t = random_triple(3, 2, GF3, seed=5)
    assert PairingTriple.from_json_dict(t.to_json_dict()) == t
    aug = augment_triple(t, 1)
    assert PairingTriple.from_json_dict(aug.to_json_dict()) == aug


def _built(build, *args):
    """The triple with the type of each scalar, or the exception's type and message."""
    try:
        t = build(*args)
    except Exception as err:
        return type(err), str(err)
    return t, [type(x) for row in t.tensor for w in row for x in w]


def _both_built(*args):
    fast, oracle = _built(PairingTriple.of, *args), _built(triple_by_scalars, *args)
    assert fast == oracle, args
    return fast


CONSTRUCTION_FIELDS = [GF2, GF3, Field.gf(7919), QQ]
CONSTRUCTION_IDS = ["gf2", "gf3", "gf7919", "qq"]
SYMMETRIES = [("symmetric", None), ("antisymmetric", None),
              ("componentwise", (1, -1)), ("componentwise", (-1, 1))]


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=CONSTRUCTION_IDS)
def test_construction_matches_scalar_oracle_on_odd_scalars(field):
    odd = [True, False, 1.0, 2.5, None, "3", "-4", " 5 ", "2/3", "x", -1, -7920,
           2**63, 2**64 + 5, -(2**70) - 1, Fraction(1, 2), Fraction(4, 1)]
    outcomes = set()
    for value in odd:
        for symmetry, signs in SYMMETRIES:
            for places in ([(0, 1, 0), (1, 0, 0)], [(0, 0, 0)], [(1, 1, 1)], [(1, 0, 1)]):
                tensor = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
                for i, j, e in places:
                    tensor[i][j][e] = value
                outcomes.add(_both_built(field, 2, 2, tensor, symmetry, signs)[0])
    # the corpus reaches valid triples, coercion errors and symmetry violations
    assert any(isinstance(o, PairingTriple) for o in outcomes)
    assert {o for o in outcomes if isinstance(o, type)} >= {FieldError, PairingError}


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=CONSTRUCTION_IDS)
@pytest.mark.parametrize("symmetry, signs", SYMMETRIES)
def test_construction_matches_scalar_oracle_on_every_violation(field, symmetry, signs):
    # a valid random tensor, then one entry moved at every (i, j, e) in turn,
    # the first and the last included
    rng = random.Random(17)
    p, n, m = field.characteristic, 3, 2
    keep = signs or ((1,) * m if symmetry == "symmetric" else (-1,) * m)

    def scalar():
        if p:
            return rng.randrange(-3 * p, 3 * p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    tensor = [[[None] * m for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for e in range(m):
                a = scalar()
                if i == j and keep[e] == -1 and p != 2:
                    a = 0
                tensor[i][j][e] = a
                tensor[j][i][e] = (a if keep[e] == 1 else -a) + (p * rng.randint(-2, 2) if p else 0)
    assert isinstance(_both_built(field, n, m, tensor, symmetry, signs)[0], PairingTriple)
    violations = 0
    for i, j, e in itertools.product(range(n), range(n), range(m)):
        moved = [[list(w) for w in row] for row in tensor]
        moved[i][j][e] += 1
        violations += _both_built(field, n, m, moved, symmetry, signs)[0] is PairingError
    assert violations >= n * (n - 1) * m


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=CONSTRUCTION_IDS)
def test_construction_matches_scalar_oracle_on_shapes(field):
    cases = [
        (2, 1, [[(0,), (1,)]]),
        (2, 1, [[(0,), (1,)], [(1,)]]),
        (2, 1, [[(0,), (1,)], [(1,), (0, 0)]]),
        (2, 2, [[(0,), (1,)], [(1,), (0,)]]),
        (1, 1, [[(0,)], [(0,)]]),
        (1, 1, [[0]]),
        (0, 0, []),
        (2, 0, [[(), ()], [(), ()]]),
    ]
    for dim_v, dim_w, tensor in cases:
        for symmetry, signs in SYMMETRIES + [("symmetric", [1]), ("componentwise", None),
                                             ("componentwise", [0]), ("skew", None)]:
            _both_built(field, dim_v, dim_w, tensor, symmetry, signs)


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=CONSTRUCTION_IDS)
def test_cup_product_triples_match_scalar_oracle(field):
    for graph in (path(3), cycle(5), complete(4), edgeless(3)):
        t = build_triple(graph, field).pairing
        assert triple_by_scalars(field, t.dim_v, t.dim_w, t.tensor) == t
        assert PairingTriple.from_json_dict(t.to_json_dict()) == t


# -- apply_pairing ---------------------------------------------------------------


def test_pairing_of_zero_vector_vanishes():
    t = p3_triple()
    assert apply_pairing(t, (0, 0, 0), (1, 1, 0)) == (0, 0)


def test_pairing_on_edge_duals():
    t = build_triple(complete(2), GF2)
    assert apply_pairing(t, (1, 0), (0, 1)) == (1,)


def test_pairing_expands_bilinearly():
    # path a-b-c: q(a* + c*, b*) covers both edges
    t = p3_triple()
    assert apply_pairing(t, (1, 0, 1), (0, 1, 0)) == (1, 1)


def test_pairing_dimension_mismatch():
    with pytest.raises(PairingError):
        apply_pairing(p3_triple(), (1, 0), (0, 1, 0))


# -- orthogonal complements --------------------------------------------------------


def test_complement_under_zero_pairing_is_everything():
    t = zero_triple(4, 2, GF3)
    f = span(GF3, 4, (1, 2, 0, 1))
    everything = span(GF3, 4, *[[int(i == j) for j in range(4)] for i in range(4)])
    assert orthogonal_complement(t, f) == everything


def test_complement_in_path_triple():
    t = p3_triple()
    assert orthogonal_complement(t, span(GF2, 3, (1, 0, 0))) == span(
        GF2, 3, (1, 0, 0), (0, 0, 1)
    )


def test_complement_in_edge_triple():
    t = build_triple(complete(2), GF2)
    assert orthogonal_complement(t, span(GF2, 2, (1, 0))) == span(GF2, 2, (1, 0))


def test_complement_is_monotone_decreasing():
    rng = random.Random(77)
    for _ in range(25):
        field = rng.choice([GF2, GF3])
        p = field.characteristic
        n = rng.randint(2, 5)
        t = random_triple(n, rng.randint(0, 3), field, seed=rng.randrange(2**32))
        vecs = [
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)
        ]
        small = span(field, n, vecs[0])
        big = span(field, n, *vecs)
        c_small = orthogonal_complement(t, small)
        c_big = orthogonal_complement(t, big)
        for v in c_big.basis:
            assert span(field, n, *c_small.basis, v) == c_small


def test_two_sided_complements_coincide():
    # q(f, v) = 0 for all f iff q(v, f) = 0 for all f, by (anti)symmetry
    rng = random.Random(13)
    for _ in range(10):
        t = random_triple(4, 2, GF3, seed=rng.randrange(2**32),
                          symmetry=rng.choice(["symmetric", "antisymmetric"]))
        f = span(GF3, 4, tuple(rng.randrange(3) for _ in range(4)))
        comp = orthogonal_complement(t, f)
        for v in comp.basis:
            for fv in f.basis:
                assert apply_pairing(t, v, fv) == (0, 0)
                assert apply_pairing(t, fv, v) == (0, 0)


def test_complement_oracle_stays_independent_of_the_rank_kernel():
    # the oracle may take the triple from raagcheeger.pairing, nothing else,
    # and the package no longer exports the complement route
    tree = ast.parse((Path(__file__).parent / "complement_oracle.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for module, name in imported if module == "raagcheeger.pairing"} <= {
        "PairingTriple", "_pairing"}
    assert ("raagcheeger", "pairing") not in imported
    plain = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not any(name.startswith("raagcheeger") for name in plain)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not (names | {name for _, name in imported}) & {"_rank_kernel", "_column_ranks"}
    for moved in ("apply_pairing", "orthogonal_complement", "subspace_intersection"):
        assert not any(hasattr(module, moved) for module in (raagcheeger, linalg, pairing))
    # no test oracle names either kernel or the tables the zero-set kernel
    # counts in, so the cross-checks of both kernels stay independent
    kernels = {"zerosets", "_rank_kernel", "_column_ranks", "zero_set_kernel", "zero_sets_pay",
               "pairs_blocks", "point_codes"}
    oracles = sorted(Path(__file__).parent.glob("*_oracle.py")) + [
        Path(__file__).with_name("subspace_stream.py")]
    assert len(oracles) == 6
    for oracle in oracles:
        tree = ast.parse(oracle.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not names & kernels, oracle.name


# -- subspace Cheeger ---------------------------------------------------------------


def test_h_of_vertex_dual_in_path():
    t = p3_triple()
    assert cheeger_of_subspace(t, span(GF2, 3, (1, 0, 0))) == 1


def test_h_vanishes_for_zero_pairing():
    t = zero_triple(4, 1, GF2)
    assert cheeger_of_subspace(t, span(GF2, 4, (1, 0, 1, 0))) == 0


def test_h_of_two_ends_of_p4():
    t = build_triple(path(4), GF2)
    f = span(GF2, 4, (1, 0, 0, 0), (0, 0, 0, 1))
    assert cheeger_of_subspace(t, f) == 1


def test_h_precondition_enforced():
    t = p3_triple()
    with pytest.raises(PairingError):
        cheeger_of_subspace(t, Subspace.zero(GF2, 3))
    with pytest.raises(PairingError):
        # dim 2 > 3/2: not admissible
        cheeger_of_subspace(t, span(GF2, 3, (1, 0, 0), (0, 0, 1)))


def test_exhaustive_cheeger_p3():
    rep = cheeger_constant_exhaustive(p3_triple())
    assert rep.value == 1
    assert rep.subspaces_visited == 7  # the seven lines of GF(2)^3
    assert rep.minimizer == span(GF2, 3, (1, 0, 0))
    assert rep.method == "exhaustive"


def test_exhaustive_cheeger_zero_pairing():
    rep = cheeger_constant_exhaustive(zero_triple(4, 1, GF2))
    assert rep.value == 0


def test_exhaustive_cheeger_k2_gf3():
    rep = cheeger_constant_exhaustive(build_triple(complete(2), GF3))
    assert rep.value == 1
    assert rep.subspaces_visited == 4  # four lines in GF(3)^2


def test_cheeger_undefined_below_dim_two():
    rep = cheeger_constant_exhaustive(build_triple(edgeless(1), GF2))
    assert rep.value is None and rep.minimizer is None
    assert cheeger_constant_coordinate(build_triple(edgeless(1), GF2)).value is None


def test_exhaustive_cheeger_budget_message():
    # GF(2)^4 has 15 + 35 subspaces of dimension 1..2; the zero triple's scan
    # eliminates, and the 4-cycle's counts on the point stream
    c4 = build_triple(cycle(4), GF2)
    assert zerosets.zero_sets_pay(c4.pairing)
    for t in (zero_triple(4, 0, GF2), c4):
        with pytest.raises(BudgetError, match="50 subspaces, past the cap of 49.*coordinate"):
            cheeger_constant_exhaustive(t, Budgets(subspace_work=49))


@pytest.mark.parametrize("field", [GF2, QQ])
def test_coordinate_cheeger_budget_counts_its_subspaces(field):
    # GF(2)^6 and QQ^6 both have 6 + 15 + 20 coordinate subspaces of dimension 1..3
    t = build_triple(cycle(6), field)
    with pytest.raises(BudgetError, match=r"visit 41 subspaces, past the cap of 40 \(raise with --budget-subspaces\)$"):
        cheeger_constant_coordinate(t, Budgets(subspace_work=40))
    rep = cheeger_constant_coordinate(t, Budgets(subspace_work=41))
    assert (rep.value, rep.subspaces_visited) == (Fraction(2, 3), 41)


def test_coordinate_cheeger_agrees_on_samples():
    for g in [path(3), cycle(4), star(3), edgeless(3),
              SimplicialGraph.of("abcd", [("a", "b"), ("c", "d")])]:
        t = build_triple(g, GF2)
        exh = cheeger_constant_exhaustive(t)
        coord = cheeger_constant_coordinate(t)
        assert coord.value == exh.value
        assert coord.method == "coordinate"
    disc = build_triple(SimplicialGraph.of("abcd", [("a", "b")]), GF2)
    assert cheeger_constant_coordinate(disc).value == 0


def _h_by_complement(t, f: Subspace) -> Fraction:
    """h_F from the oracle's complement and intersection routes."""
    n = getattr(t, "pairing", t).dim_v
    comp = orthogonal_complement(t, f)
    inter = subspace_intersection(comp, f)
    return Fraction(n - f.dim - comp.dim + inter.dim, f.dim)


def _kernel_test_triples():
    rng = random.Random(19)
    for field, n in ((GF2, 6), (GF3, 5), (GF5, 4)):
        for symmetry in ("antisymmetric", "symmetric"):
            yield random_triple(n, rng.randint(1, 3), field, rng.randrange(2**32), symmetry)
        base = random_triple(n, rng.randint(1, 2), field, rng.randrange(2**32))
        yield augment_triple(base, rng.randrange(n))  # componentwise symmetry
        yield random_triple(n, 0, field, rng.randrange(2**32))  # dim W = 0


def test_cheeger_fused_path_matches_public_formula():
    # the rank kernel must agree with the oracle's complement + intersection
    # route on every admissible subspace, and the scan must report the first
    # minimum in enumeration order with the matching visit count
    for t in _kernel_test_triples():
        n, field = t.dim_v, t.field
        subspaces = list(subspace_stream(n, range(1, n // 2 + 1), field))
        expected = [_h_by_complement(t, f) for f in subspaces]
        assert [cheeger_of_subspace(t, f) for f in subspaces] == expected
        low = min(expected)
        first = expected.index(low)
        rep = cheeger_constant_exhaustive(t)
        assert rep.value == low
        assert rep.minimizer == subspaces[first]
        assert rep.subspaces_visited == (first + 1 if low == 0 else len(subspaces))


def test_coordinate_scan_over_rationals_matches_public_formula():
    # characteristic 0: the kernel's exact Fraction elimination
    fractional = PairingTriple.of(
        QQ, 4, 2,
        [[(0, 0), ("1/2", 0), (0, 3), (0, 0)],
         [("-1/2", 0), (0, 0), (0, 0), (2, "1/3")],
         [(0, -3), (0, 0), (0, 0), (0, 0)],
         [(0, 0), (-2, "-1/3"), (0, 0), (0, 0)]],
    )
    two_parts = SimplicialGraph.of("abcde", [("a", "b"), ("c", "d"), ("d", "e")])
    for t in [build_triple(g, QQ) for g in (cycle(5), path(4), star(3), two_parts)] + [fractional]:
        pt = getattr(t, "pairing", t)
        n = pt.dim_v
        coords = [
            Subspace.from_vectors(QQ, n, [[1 if j == c else 0 for j in range(n)] for c in combo])
            for size in range(1, n // 2 + 1)
            for combo in itertools.combinations(range(n), size)
        ]
        expected = [_h_by_complement(t, f) for f in coords]
        assert [cheeger_of_subspace(t, f) for f in coords] == expected
        low = min(expected)
        rep = cheeger_constant_coordinate(t)
        assert rep.value == low
        assert rep.minimizer == coords[expected.index(low)]
        if hasattr(t, "graph"):
            assert rep.value == cheeger_graph_exact(t.graph).value
    # non-coordinate rational subspaces, where pivots are not units, of the
    # triple above and of a seeded antisymmetric triple on QQ^6 whose entries
    # have denominators up to 7, so the kernel scales rows and tensor by
    # different lcms and its elimination divides by several earlier pivots
    rng = random.Random(23)
    grid = [[[Fraction(0)] * 3 for _ in range(6)] for _ in range(6)]
    for i, j in itertools.combinations(range(6), 2):
        grid[i][j] = [Fraction(rng.randint(-4, 4), rng.randint(1, 7)) for _ in range(3)]
        grid[j][i] = [-x for x in grid[i][j]]
    dense = PairingTriple.of(QQ, 6, 3, grid)
    coords = _coordinate_subspaces(QQ, 6)
    expected = [_h_by_complement(dense, f) for f in coords]
    assert [cheeger_of_subspace(dense, f) for f in coords] == expected
    rep = cheeger_constant_coordinate(dense)
    assert (rep.value, rep.minimizer) == (min(expected), coords[expected.index(min(expected))])
    for t, n in ((fractional, 4), (dense, 6)):
        for _ in range(60):
            k = rng.randint(1, n // 2)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(k)]
            f = Subspace.from_vectors(QQ, n, rows)
            if 0 < f.dim:
                assert cheeger_of_subspace(t, f) == _h_by_complement(t, f)


def _scan_by_complement(t, subspaces):
    """(value, first minimizer, visited) of a first-minimum scan with every
    h_F from orthogonal_complement + subspace_intersection."""
    best, visited = None, 0
    for f in subspaces:
        visited += 1
        h = _h_by_complement(t, f)
        if best is None or h < best[0]:
            best = (h, f)
            if h == 0:
                break
    return best[0], best[1], visited


def _coordinate_subspaces(field, n):
    return [
        Subspace.from_vectors(field, n, [[int(j == c) for j in range(n)] for c in combo])
        for size in range(1, n // 2 + 1)
        for combo in itertools.combinations(range(n), size)
    ]


def test_scans_match_complement_route_across_chunk_boundaries(monkeypatch):
    # (triple, subspaces the exhaustive scan visits).  Batches restart at each
    # dimension; the comments place the first zero within its dimension
    cases = [
        (random_triple(6, 1, GF2, 6), 3),  # dim 1, 3rd: inside the first batch
        (random_triple(6, 2, GF2, 5), 49),  # dim 1, 49th: last of a 7-batch
        (random_triple(6, 1, GF2, 53), 64),  # dim 2, 1st: first of a batch at every size
        (random_triple(6, 2, GF2, 144), 320),  # dim 2, 257th: first of a 256-batch
        (random_triple(5, 1, GF3, 6), 78),  # dim 1, 78th: first of a 7-batch
        (random_triple(5, 2, GF3, 64), 628),  # dim 2, 507th: inside both
        (random_triple(5, 3, GF3, 87), 1024),  # dim 2, 903rd: last of a 7-batch
        (random_triple(4, 1, GF5, 79), 8),  # dim 1, 8th: first of a 7-batch
        (random_triple(4, 1, GF5, 58), 14),  # dim 1, 14th: last of a 7-batch
        (random_triple(4, 2, GF5, 1), 578),  # dim 2, 422nd: inside a 256-batch
        (build_triple(cycle(6), GF2), 2109),  # h > 0: the whole stream
        (build_triple(cycle(5), GF3), 1331),
        (build_triple(path(4), GF5), 962),
    ]
    for t, visits in cases:
        pt = getattr(t, "pairing", t)
        n, field = pt.dim_v, pt.field
        stream = (Subspace(field, n, tuple(map(tuple, rows))) for rows in canonical_order(
            n, range(1, n // 2 + 1), field.characteristic))
        exhaustive = _scan_by_complement(t, stream)
        coordinate = _scan_by_complement(t, _coordinate_subspaces(field, n))
        assert exhaustive[2] == visits
        for chunk in (1, 7, linalg.SUBSPACE_CHUNK):
            monkeypatch.setattr(linalg, "SUBSPACE_CHUNK", chunk)
            rep = cheeger_constant_exhaustive(t)
            assert (rep.value, rep.minimizer, rep.subspaces_visited) == exhaustive
            rep = cheeger_constant_coordinate(t)
            assert (rep.value, rep.minimizer, rep.subspaces_visited) == coordinate


@pytest.mark.parametrize("p", [0, 3, 7])
def test_column_elimination_matches_echelon_ranks(p):
    # integer matrices, given column by column, where about half the columns
    # are combinations of earlier ones, so columns without a pivot fall
    # between pivots other than 1; over QQ the elimination divides by earlier
    # pivots, over GF(p) it scales rows by them.  The rank of all columns and
    # of the first k must be those of the RREF accumulator
    field = Field.gf(p) if p else QQ
    rng = random.Random(31 + p)
    n_cols, n_rows, k = 7, 5, 3
    mats = []
    for _ in range(300):
        cols = []
        for c in range(n_cols):
            if c and rng.random() < 0.5:
                a, b = rng.choice(cols), rng.choice(cols)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                cols.append([s * x + t * y for x, y in zip(a, b)])
            else:
                cols.append([rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(n_rows)])
        mats.append([[x % p for x in col] for col in cols] if p else cols)
    expected = [
        tuple(Subspace.from_vectors(field, n_rows, cols[:j]).dim for j in (n_cols, k))
        for cols in mats
    ]
    batch = np.array(mats, dtype=np.int64 if p else object)
    rank, restricted = pairing._column_ranks(batch, k, p, np.int64 if p else object)
    assert list(zip(rank.tolist(), restricted.tolist())) == expected


def test_kernel_with_zero_dimensional_w():
    # dim W = 0: R_F has no rows, every h_F is 0 and both scans stop at once;
    # over GF(2^61 - 1) the first pivot set already has p^3 >= 2^63 fills,
    # which the stream counts in Python ints.  The default budgets refuse that
    # field by its subspace count, so it runs under a cap raised to that count
    for field in (GF2, GF3, QQ, Field.gf(2**61 - 1)):
        t = build_triple(edgeless(4), field)
        first = Subspace.from_vectors(field, 4, [[1, 0, 0, 0]])
        rep = cheeger_constant_coordinate(t)
        assert (rep.value, rep.minimizer, rep.subspaces_visited) == (0, first, 1)
        assert cheeger_of_subspace(t, span(field, 4, (1, 1, 0, 0), (0, 0, 1, 2))) == 0
        if field.is_prime_field:
            p = field.characteristic
            count = gaussian_binomial(4, 1, p) + gaussian_binomial(4, 2, p)
            budgets = Budgets(subspace_work=count) if p > 3 else DEFAULT_BUDGETS
            rep = cheeger_constant_exhaustive(t, budgets)
            assert (rep.value, rep.minimizer, rep.subspaces_visited) == (0, first, 1)
            assert not is_pairing_connected_exhaustive(t, budgets)
    with pytest.raises(BudgetError, match="subspaces, past the cap of 308992"):
        cheeger_constant_exhaustive(build_triple(edgeless(4), Field.gf(2**61 - 1)))


@pytest.mark.parametrize("p", [
    13, 101, 1831, 1847, 2039, 2053, 42_443_351, 42_443_377, 47_453_111, 47_453_149,
    1_073_741_789, 2**31 - 1, 2**61 - 1,
])
def test_kernel_over_larger_primes_matches_public_formula(p):
    # for n = 4 and 5, n * (p - 1)^2 needs int16 at p = 13, int32 at p = 101
    # and int64 at the largest prime below 2^30, where (p - 1)^3 would not
    # fit; for the two Mersenne primes the kernel works on Python ints.  The
    # products run in float32 while n * (p - 1)^2 < 2^24 and in float64 while
    # it is below 2^53.  1831 is the largest prime where the float32 bound
    # holds for n = 5 and 2039 for n = 4, and at the next primes, 1847 and
    # 2053, the products run in float64; 42443351 is the largest prime where
    # the float64 bound holds for n = 5 and 47453111 for n = 4, and at the
    # next primes, 42443377 and 47453149, they run in int64
    field = Field.gf(p)
    rng = random.Random(p)
    triples = [build_triple(g, field) for g in (cycle(5), path(4), star(3))]
    triples += [random_triple(4, 2, field, rng.randrange(2**32)),
                random_triple(5, 1, field, rng.randrange(2**32), "symmetric")]
    for t in triples:
        n = getattr(t, "pairing", t).dim_v
        coords = _coordinate_subspaces(field, n)
        expected = [_h_by_complement(t, f) for f in coords]
        assert [cheeger_of_subspace(t, f) for f in coords] == expected
        rep = cheeger_constant_coordinate(t)
        assert rep.value == min(expected)
        assert rep.minimizer == coords[expected.index(rep.value)]
        if hasattr(t, "graph"):
            assert rep.value == cheeger_graph_exact(t.graph).value
        for _ in range(10):
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, n // 2))]
            f = Subspace.from_vectors(field, n, rows)
            assert cheeger_of_subspace(t, f) == _h_by_complement(t, f)



@pytest.mark.parametrize("p, n, past", [
    (1831, 5, False), (1847, 5, True), (2039, 4, False), (2053, 4, True),
    (42_443_351, 5, False), (42_443_377, 5, True), (47_453_111, 4, False), (47_453_149, 4, True),
])
def test_kernel_float_rungs_at_their_bounds(p, n, past):
    # Dense, non-echelon bases S and tensors with entries just below p, fed
    # to the kernel directly, drive both products to within a few (p - 1)
    # of n * (p - 1)^2: past 2^24 (or 2^53) exactly at the primes where the
    # kernel leaves float32 (or float64).  Entries of p - 1 alone would not
    # test the rung: every product would be even, and float32 holds every
    # even integer below 2^25.  The second W coordinate is twice the first,
    # so R_F has rank at most k and a rounding error in either product
    # raises a rank.  The dense tensor drives the first product, the
    # identity tensor (R_F = F, entries near p) the second.
    field = Field.gf(p)
    rng = random.Random(p)
    limit = 2**24 if p < 10**6 else 2**53

    def near():
        return p - rng.randint(1, 3)

    dense = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            dense[i][j] = dense[j][i] = near()
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    bases = []
    while len(bases) < 24:
        basis = [[near() for _ in range(n)] for _ in range(n)]
        if Subspace.from_vectors(field, n, basis).dim == n:
            bases.append(basis)
    batch = np.array(bases, dtype=np.int64)
    reached = 0
    for grid in (dense, identity):
        doubled = [[2 * x % p for x in row] for row in grid]
        t = PairingTriple.of(field, n, 2, [list(zip(*rows)) for rows in zip(grid, doubled)],
                             "symmetric")
        for k in (1, 2):
            rank, restricted = pairing._rank_kernel(t)(k, batch)
            expected_rank, expected_restricted = [], []
            for basis in bases:
                f = Subspace.from_vectors(field, n, basis[:k])
                comp = orthogonal_complement(t, f)
                expected_rank.append(n - comp.dim)
                expected_restricted.append(k - subspace_intersection(comp, f).dim)
            assert rank.tolist() == expected_rank
            assert restricted.tolist() == expected_restricted
            # the largest sums of the two products, in Python ints
            s = batch.astype(object)
            for table in (grid, doubled):
                first = s[:, :k] @ np.array(table, dtype=object)
                second = s @ (first % p).transpose(0, 2, 1)
                reached = max(reached, first.max(), second.max())
    assert (reached > limit) == past


# -- the batch cache -----------------------------------------------------------------


def _clear_caches():
    # what a fresh process starts with: every lru cache of linalg and pairing
    for module in (linalg, pairing):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _scans(triples):
    return [
        (rep.value, rep.minimizer, rep.subspaces_visited)
        for t in triples
        for rep in (cheeger_constant_exhaustive(t), cheeger_constant_coordinate(t))
    ]


@pytest.mark.parametrize("chunk", [1, 7, linalg.SUBSPACE_CHUNK])
def test_scans_agree_with_a_cold_and_a_warm_cache(monkeypatch, chunk):
    # the same scans streamed lazily, from a cold cache and from a warm one;
    # the disconnected graphs stop early at h = 0
    monkeypatch.setattr(linalg, "SUBSPACE_CHUNK", chunk)
    two_edges = SimplicialGraph.of("abcd", [("a", "b"), ("c", "d")])
    triples = [build_triple(g, field) for g in (cycle(5), two_edges) for field in (GF2, GF3)]
    triples += [build_triple(path(6), GF2), random_triple(5, 2, GF3, 11),
                random_triple(6, 3, GF2, 12, "symmetric")]
    _clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(linalg, "BATCH_CACHE_BYTES", -1)
            lazy = _scans(triples)
            assert linalg._retained.cache_info().currsize == 0
        cold = _scans(triples)
        assert linalg._retained.cache_info().currsize > 0
        assert _scans(triples) == cold == lazy
        assert any(value == 0 for value, _, _ in lazy[::2])
    finally:
        _clear_caches()


def test_cached_batches_are_read_only_and_cleared():
    _clear_caches()
    try:
        kept = [bases for _, bases in enumerate_subspaces(4, [1, 2], GF3)]
        kept += [bases for _, bases in linalg._coordinate_batches(6)]
        assert linalg._retained.cache_info().currsize == 5
        for bases in kept:
            assert not bases.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                bases[0, 0, 0] = 1
        # dimension 3 of GF(2)^7 takes more than the cap and is streamed
        streamed = [bases for _, bases in enumerate_subspaces(7, [3], GF2)]
        assert linalg._retained.cache_info().currsize == 5
        assert all(bases.flags.writeable for bases in streamed)
    finally:
        _clear_caches()
    assert linalg._retained.cache_info().currsize == 0


def _retained_bytes(scan) -> int:
    """Bytes still allocated after draining the batches of ``scan()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in scan():
            pass
        del _
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_batch_cache_retains_less_than_its_cap():
    # GF(2)^8 keeps only its 255 lines (16 KB); n = 20 keeps its coordinate
    # subspaces of dimension 1 and 2 (84 KB) and streams those of dimension 3
    # (456 KB) and up
    _clear_caches()
    try:
        scans = [
            lambda: enumerate_subspaces(8, range(1, 5), GF2),
            lambda: itertools.takewhile(lambda b: b[0] <= 3, linalg._coordinate_batches(20)),
        ]
        for scan in scans:
            assert 0 < _retained_bytes(scan) < linalg.BATCH_CACHE_BYTES
            _clear_caches()
    finally:
        _clear_caches()


# -- the zero-set kernel -------------------------------------------------------------


def _as_points(t, k, bases):
    """The zero-set kernel's input for a batch of completed bases: the row of
    projective_points holding each of the first k rows, found by its residues
    read as a base-p number."""
    pt = getattr(t, "pairing", t)
    n, p = pt.dim_v, pt.field.characteristic
    points = linalg.projective_points(n, p)
    powers = p ** np.arange(n - 1, -1, -1)
    row_of = np.full(p**n, -1)
    row_of[points @ powers] = np.arange(len(points))
    at = row_of[bases[:, :k].astype(np.int64) @ powers]
    assert (at >= 0).all() and (points[at] == bases[:, :k]).all()
    return at.astype(np.int16)


def _kernels_agree(t, batches) -> int:
    """Assert that the zero-set kernel, fed the points of each batch of
    completed bases, gives the rank kernel's (rank R_F, rank R_F|_F) on the
    bases; return the number of batches compared."""
    pt = getattr(t, "pairing", t)
    zero_sets, ranks = zerosets.zero_set_kernel(pt), pairing._rank_kernel(pt)
    compared = 0
    for k, bases in batches:
        got, want = zero_sets(k, _as_points(pt, k, bases)), ranks(k, bases)
        assert (got[0].tolist(), got[1].tolist()) == (want[0].tolist(), want[1].tolist()), (pt, k)
        compared += 1
    return compared


def _exhaustive_stream(t):
    pt = getattr(t, "pairing", t)
    return enumerate_subspaces(pt.dim_v, range(1, pt.dim_v // 2 + 1), pt.field)


@pytest.mark.parametrize("field", [GF2, GF3], ids=["gf2", "gf3"])
def test_zero_set_kernel_matches_rank_kernel_on_every_graph(field):
    # every labeled graph on 2..5 vertices with at least one edge (the gate
    # refuses dim W = 0, where the rank kernel needs no work)
    checked = 0
    for n in range(2, 6):
        for g in labeled_graphs(n):
            if g.edges:
                t = build_triple(g, field)
                assert _kernels_agree(t, _exhaustive_stream(t))
                checked += 1
    assert checked == 1 + 7 + 63 + 1023


def test_zero_set_kernel_matches_rank_kernel_on_random_triples():
    # symmetric, antisymmetric and augmented (componentwise) triples over
    # every (p, n) with n = 2..6 whose table fits the gate's cap: GF(7)^5
    # and GF(5)^6 have 2801 and 3906 points and never take the kernel
    rng = random.Random(12)
    cases = 0
    for p, most in ((2, 6), (3, 6), (5, 5), (7, 4)):
        field = Field.gf(p)
        for n in range(2, most + 1):
            points = (p**n - 1) // (p - 1)
            assert points * -(-points // 64) * 8 <= zerosets.ZERO_SET_BYTES // 2
            symmetric = random_triple(n, rng.randint(1, 3), field, rng.randrange(2**32), "symmetric")
            antisymmetric = random_triple(n, rng.randint(1, 3), field, rng.randrange(2**32))
            for t in (symmetric, antisymmetric, augment_triple(antisymmetric, rng.randrange(n))):
                assert _kernels_agree(t, _exhaustive_stream(t))
                cases += 1
    assert cases == 3 * (5 + 5 + 4 + 3)


def _bases_where(t, k, keep, most):
    """One batch of the first ``most`` completed bases, in stream order, of
    the k-dimensional subspaces whose rank-kernel (rank R_F, rank R_F|_F)
    satisfy ``keep``."""
    pt = getattr(t, "pairing", t)
    ranks = pairing._rank_kernel(pt)
    kept = [bases[keep(*ranks(k, bases))] for _, bases in enumerate_subspaces(pt.dim_v, [k], pt.field)]
    batch = np.concatenate(kept)[:most]
    assert len(batch) == most
    return batch


# random triples whose stream has C(F) = 0 and C(F) != 0 with F n C(F) != 0
# in dimensions 2 and 3
SPARSE_COMPLEMENTS = [(7, 5, GF2, 21, "antisymmetric"), (6, 3, GF3, 5, "antisymmetric"),
                      (6, 4, GF3, 21, "symmetric")]


@pytest.mark.parametrize("n, m, field, seed, symmetry", SPARSE_COMPLEMENTS)
@pytest.mark.parametrize("k", [2, 3])
def test_zero_set_kernel_on_a_batch_with_every_complement_zero(n, m, field, seed, symmetry, k):
    # rank R_F = n for every F, so no F needs its points
    t = random_triple(n, m, field, seed, symmetry)
    batch = _bases_where(t, k, lambda rank, restricted: rank == n, 60)
    assert _kernels_agree(t, [(k, batch)]) == 1
    assert zerosets.zero_set_kernel(t)(k, _as_points(t, k, batch))[1].tolist() == [k] * 60


@pytest.mark.parametrize("n, m, field, seed, symmetry", SPARSE_COMPLEMENTS[:2])
@pytest.mark.parametrize("k", [2, 3])
def test_zero_set_kernel_on_a_batch_with_one_complement_in_the_middle(n, m, field, seed, symmetry, k):
    # C(F) != 0 for the 31st F alone, and F n C(F) != 0 there
    t = random_triple(n, m, field, seed, symmetry)
    zero = _bases_where(t, k, lambda rank, restricted: rank == n, 60)
    meet = _bases_where(t, k, lambda rank, restricted: (rank < n) & (restricted < k), 1)
    batch = np.concatenate([zero[:30], meet, zero[30:]])
    assert _kernels_agree(t, [(k, batch)]) == 1
    rank, restricted = zerosets.zero_set_kernel(t)(k, _as_points(t, k, batch))
    assert np.flatnonzero(rank < n).tolist() == np.flatnonzero(restricted < k).tolist() == [30]


@pytest.mark.parametrize("n, m, field, seed, counts", [
    (4, 4, GF3, 14, (20, 3, 17)), (3, 3, GF5, 22, (21, 2, 8)),
], ids=["gf3^4", "gf5^3"])
def test_zero_set_kernel_on_points(n, m, field, seed, counts):
    # F = <x>: F n C(F) = F where q(x, x) = 0 and 0 elsewhere; counts are the
    # points with C(F) = 0, with q(x, x) = 0, and the rest
    t = random_triple(n, m, field, seed, "symmetric")
    (k, batch), = enumerate_subspaces(n, [1], field)
    assert _kernels_agree(t, [(k, batch)]) == 1
    rank, restricted = zerosets.zero_set_kernel(t)(k, _as_points(t, k, batch))
    assert ((rank == n).sum(), (restricted == 0).sum(), ((rank < n) & (restricted == 1)).sum()) == counts


@pytest.mark.parametrize("chunk", [1, 7, linalg.SUBSPACE_CHUNK])
def test_zero_set_scans_agree_with_a_cold_and_a_warm_cache(monkeypatch, chunk):
    # the exhaustive scan reports what it reports on the rank kernel, from a
    # cold and from a warm cache, and every batch of the stream gives both
    # kernels' ranks; the two-edge graph stops early at h = 0
    monkeypatch.setattr(linalg, "SUBSPACE_CHUNK", chunk)
    # batches of the point stream hold chunk bytes: 1 to chunk / k subspaces
    monkeypatch.setattr(linalg, "POINT_BATCH_BYTES", chunk)
    two_edges = SimplicialGraph.of("abcd", [("a", "b"), ("c", "d")])
    triples = [build_triple(g, field) for g in (cycle(5), two_edges) for field in (GF2, GF3)]
    triples += [random_triple(5, 2, GF3, 11), random_triple(6, 3, GF2, 12, "symmetric")]
    assert all(zerosets.zero_sets_pay(getattr(t, "pairing", t)) for t in triples)
    _clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(pairing, "zero_sets_pay", lambda pt: False)
            expected = [cheeger_constant_exhaustive(t) for t in triples]
        _clear_caches()
        for _ in ("cold", "warm"):
            assert [cheeger_constant_exhaustive(t) for t in triples] == expected
            assert linalg._retained.cache_info().currsize > 0
            for t in triples:
                assert _kernels_agree(t, _exhaustive_stream(t))
        assert [rep.value for rep in expected].count(0) == 2
    finally:
        _clear_caches()


@pytest.mark.parametrize("p, n, m, zero_sets", [
    (1009, 2, 3, False), (31, 3, 3, False), (7, 4, 3, False),
    (5, 5, 2, True), (3, 6, 3, True), (2, 8, 3, True),
], ids=["gf1009^2", "gf31^3", "gf7^4", "gf5^5", "gf3^6", "gf2^8"])
def test_zero_set_gate_pins_the_kernel(monkeypatch, p, n, m, zero_sets):
    # the first three build more than ZERO_SET_WORK table entries per
    # subspace, where the table costs more than elimination saves
    t = random_triple(n, m, Field.gf(p), 7)
    assert zerosets.zero_sets_pay(t) == zero_sets
    built = []
    for name in ("zero_set_kernel", "_rank_kernel"):
        kernel = getattr(pairing, name)
        monkeypatch.setattr(pairing, name, lambda pt, kernel=kernel, name=name: (
            built.append(name), kernel(pt))[1])
    rep = cheeger_constant_exhaustive(t)
    assert built == ["zero_set_kernel" if zero_sets else "_rank_kernel"]
    assert rep.subspaces_visited == sum(gaussian_binomial(n, k, p) for k in range(1, n // 2 + 1))


def test_zero_set_gate_refusals():
    # over QQ, for dim W = 0, and past the table's cap the scan eliminates
    assert not zerosets.zero_sets_pay(build_triple(cycle(5), QQ).pairing)
    assert not zerosets.zero_sets_pay(zero_triple(6, 0, GF2))
    assert zerosets.zero_sets_pay(random_triple(10, 1, GF2, 3))  # 1023 points, 128 KB
    assert not zerosets.zero_sets_pay(random_triple(11, 1, GF2, 3))  # 2047 points, 512 KB


def test_zero_set_table_build_stays_under_its_cap():
    # the table and the temporaries of its row-block build, measured with the
    # points and codes of GF(p)^n already built (they are shared per (n, p))
    for p, n, m in ((2, 8, 8), (3, 6, 6), (5, 5, 3)):
        t = random_triple(n, m, Field.gf(p), 5)
        linalg.point_codes(n, p)
        gc.collect()
        tracemalloc.start()
        try:
            zerosets.zero_set_kernel(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak < zerosets.ZERO_SET_BYTES, (p, n, peak)


def test_point_stream_and_zero_set_scan_stay_under_their_caps():
    # the point stream holds the batch its consumer has, the pieces of the
    # next and their join: at most four batches; a zero-set scan adds the
    # kernel's table and its slices, within ZERO_SET_BYTES, and what the
    # batch cache keeps of the stream (GF(2)^8 in dimensions 1 and 2), which
    # stays allocated after the scan.  Points and codes are shared per (n, p)
    # and built before.
    linalg.point_codes(8, 2)
    for k in range(1, 5):
        linalg.projective_points(k, 2)
    c8 = build_triple(cycle(8), GF2)
    assert zerosets.zero_sets_pay(c8.pairing)
    scans = [
        (lambda: linalg.enumerate_subspace_points(8, [4], GF2), 4 * linalg.POINT_BATCH_BYTES),
        (lambda: [cheeger_constant_exhaustive(c8)],
         zerosets.ZERO_SET_BYTES + 4 * linalg.POINT_BATCH_BYTES),
    ]
    _clear_caches()
    try:
        for scan, cap in scans:
            gc.collect()
            tracemalloc.start()
            try:
                for item in scan():
                    del item
                gc.collect()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept < linalg.BATCH_CACHE_BYTES and 0 < peak - kept < cap, (peak, kept, cap)
            _clear_caches()
            linalg.point_codes(8, 2)
    finally:
        _clear_caches()


def test_zero_set_kernel_without_bitwise_count(monkeypatch):
    # numpy before 2.0 has no bitwise_count: the kernel counts bits with
    # linalg.popcount, here on tables of 2, 6 and 13 words
    triples = [random_triple(7, 3, GF2, 8), random_triple(6, 2, GF3, 9),
               random_triple(5, 1, GF5, 10, "symmetric")]
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for t in triples:
        assert _kernels_agree(t, itertools.islice(_exhaustive_stream(t), 12))
    words = np.array([0, 1, 2**63, 2**64 - 1, 0x8000_0000_0000_0001, 0x0123_4567_89AB_CDEF],
                     dtype=np.uint64)
    assert linalg.popcount(words, 64).tolist() == [bin(int(w)).count("1") for w in words]


# -- q-valence -----------------------------------------------------------------------


def test_q_valence_zero_pairing():
    assert q_valence_exhaustive(zero_triple(3, 2, GF2)) == 0
    assert q_valence_coordinate(zero_triple(3, 2, GF2)) == 0


def test_q_valence_single_edge():
    t = build_triple(complete(2), GF2)
    assert q_valence_exhaustive(t) == 1
    assert q_valence_coordinate(t) == 1


def test_q_valence_path():
    t = p3_triple()
    assert q_valence_exhaustive(t) == 2
    assert q_valence_coordinate(t) == 2


def test_q_valence_star_coordinate():
    assert q_valence_coordinate(build_triple(star(3), GF2)) == 3


def test_q_valence_budget_error():
    t = build_triple(cycle(5), GF2)
    with pytest.raises(BudgetError, match="--budget-bases"):
        q_valence_exhaustive(t)


def test_q_valence_exhaustive_gf3():
    for g in [path(3), complete(3), edgeless(3)]:
        t = build_triple(g, GF3)
        from raagcheeger import max_valence

        assert q_valence_exhaustive(t) == max_valence(g)


def _seeded_triples():
    rng = random.Random(2024)
    for field, dims in ((GF2, (2, 3, 4)), (GF3, (2, 3)), (GF5, (2,))):
        for n in dims:
            for m in range(4):
                for symmetry in ("symmetric", "antisymmetric"):
                    for _ in range(2):
                        yield random_triple(n, m, field, rng.randrange(2**32), symmetry)


def test_q_valence_min_max_matches_basis_pair_oracle():
    triples = list(_seeded_triples())
    triples += [augment_triple(build_triple(g, GF3), 0) for g in (path(3), complete(3))]
    assert len(triples) >= 64
    got = [q_valence_exhaustive(t) for t in triples]
    assert got == [q_valence_by_basis_pairs(t) for t in triples]
    assert set(got) == {0, 1, 2, 3}


@pytest.mark.parametrize("field, most", [(GF2, 4), (GF3, 3)], ids=["gf2", "gf3"])
def test_q_valence_min_max_matches_oracle_on_small_graphs(field, most):
    for n in range(1, most + 1):
        for g in labeled_graphs(n):
            t = build_triple(g, field)
            assert q_valence_exhaustive(t) == q_valence_by_basis_pairs(t), g.edges


@pytest.mark.parametrize("chunk", [1, 100])
def test_q_valence_min_max_is_chunk_invariant(monkeypatch, chunk):
    # with tiny chunks the independence test and the scan each take many steps
    triples = [t for t in _seeded_triples() if t.dim_v >= 3][::3]
    expected = [q_valence_exhaustive(t) for t in triples]
    monkeypatch.setattr(pairing, "QVALENCE_CHUNK_BYTES", chunk)
    pairing._projective_frame.cache_clear()
    try:
        assert [q_valence_exhaustive(t) for t in triples] == expected
    finally:
        pairing._projective_frame.cache_clear()


def test_q_valence_gf2_dim5_in_seconds():
    # 3 is the value of one run of the basis-pair oracle, which takes about 15 s
    t = random_triple(5, 3, GF2, 2024)
    pairing._projective_frame.cache_clear()
    start = time.perf_counter()
    assert q_valence_exhaustive(t, Budgets(basis_work=80_078_240)) == 3
    assert time.perf_counter() - start < 2


def test_q_valence_work_cap():
    # the min-max takes p^2 + (p(p + 1)/2) * (p + 1)^2 steps on GF(p)^2:
    # 159505 at p = 23 pass the default cap of 189016 and 392341 at p = 29 do
    # not; a cap raised to that count admits it, one step less does not
    assert q_valence_exhaustive(build_triple(path(2), Field.gf(23))) == 1
    t = build_triple(path(2), Field.gf(29))
    with pytest.raises(BudgetError, match=r"392341 steps.*--budget-bases.*coordinate"):
        q_valence_exhaustive(t)
    assert q_valence_exhaustive(t, Budgets(basis_work=392_341)) == 1
    with pytest.raises(BudgetError, match=r"392341 steps.*past the cap of 392340"):
        q_valence_exhaustive(t, Budgets(basis_work=392_340))
    # the cap is GF(2)^4's count, 840 projective bases of 15 points, and admits it
    assert 2**4 + 840 * 15**2 == 189_016
    assert q_valence_exhaustive(build_triple(star(3), GF2)) == 3
    # GF(7919)^1 is one point and one basis, 7919 + 1 steps
    line = PairingTriple.of(Field.gf(7919), 1, 1, [[(1,)]], "symmetric")
    assert q_valence_exhaustive(line) == 1
    assert q_valence_exhaustive(build_triple(edgeless(1), Field.gf(7919))) == 0


@pytest.mark.parametrize("p, most", [(2, 4), (3, 4), (5, 2)])
def test_projective_frame_matches_the_filtered_grid(p, most):
    # the frame built block by block equals the one filtered out of the whole
    # p^n grid: same points in the same order, and a basis is a set of n
    # points with a nonzero determinant mod p
    for n in range(1, most + 1):
        grid = np.indices((p,) * n).reshape(n, -1).T
        points = grid[grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)] == 1]
        combos = np.array(list(itertools.combinations(range(len(points)), n)))
        dets = np.rint(np.linalg.det(points[combos])).astype(np.int64)
        got_points, got_outside, got_bases = pairing._projective_frame(n, p)
        assert got_points.tolist() == points.tolist()
        assert got_outside.tolist() == (points @ points.T % p != 0).tolist()
        assert got_bases.tolist() == combos[dets % p != 0].tolist()


def test_q_valence_frame_holds_only_the_points():
    # GF(1000003)^1 has one projective point, so the frame must not hold the
    # p^n vectors of the whole space
    line = PairingTriple.of(Field.gf(1_000_003), 1, 1, [[(1,)]], "symmetric")
    pairing._projective_frame.cache_clear()
    tracemalloc.start()
    try:
        assert q_valence_exhaustive(line, Budgets(basis_work=1_000_004)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        pairing._projective_frame.cache_clear()
    assert peak < 2**20


def test_q_valence_refuses_a_large_prime_at_once():
    p = 1_000_003
    t = build_triple(path(2), Field.gf(p))
    bases = (p**2 - 1) * (p**2 - p) // (2 * (p - 1) ** 2)
    count = p**2 + bases * (p + 1) ** 2
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=f"{count} steps"):
        q_valence_exhaustive(t)
    assert time.perf_counter() - start < 1


def test_q_valence_refusal_messages():
    with pytest.raises(LinalgError, match="^non-enumerable field: basis enumeration needs a prime field$"):
        q_valence_exhaustive(build_triple(path(2), QQ))
    with pytest.raises(BudgetError) as err:
        q_valence_exhaustive(build_triple(cycle(5), GF2))
    assert str(err.value) == (
        "q-valence over gf2 in dimension 5 would take 80078240 steps "
        "(83328 projective bases, 31 points), past the cap of 189016 "
        "(raise with --budget-bases); "
        "the coordinate upper bound is exact for cup-product triples"
    )
    # dim W = 0 answers 0, but only inside the budget
    assert q_valence_exhaustive(build_triple(edgeless(4), GF2)) == 0
    with pytest.raises(BudgetError):
        q_valence_exhaustive(build_triple(edgeless(5), GF2))


# -- pairing-connectedness --------------------------------------------------------------


def test_dim_one_is_vacuously_connected():
    assert is_pairing_connected_exhaustive(build_triple(edgeless(1), GF2))


def test_two_isolated_vertices_disconnect():
    assert not is_pairing_connected_exhaustive(build_triple(edgeless(2), GF2))


def test_single_edge_is_connected():
    assert is_pairing_connected_exhaustive(build_triple(complete(2), GF2))


def test_pairing_connectivity_matches_graph_on_gf3():
    for g in labeled_graphs(3):
        t = build_triple(g, GF3)
        assert is_pairing_connected_exhaustive(t) == is_connected(g)


def test_positive_cheeger_implies_pairing_connected_small():
    # h > 0 iff the independent direct-sum oracle finds no split
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 4)
        t = random_triple(n, rng.randint(1, 3), GF2, seed=rng.randrange(2**32))
        rep = cheeger_constant_exhaustive(t)
        assert (rep.value > 0) == pairing_connected_by_decomposition(t)


def test_connectedness_matches_decomposition_oracle_beyond_gf2():
    # the h > 0 characterization holds for every declared symmetry and field
    rng = random.Random(4242)
    for _ in range(40):
        field = rng.choice([GF2, GF3, GF5])
        n = rng.randint(2, 4 if field is GF2 else 3)
        t = random_triple(n, rng.randint(0, 2), field, seed=rng.randrange(2**32),
                          symmetry=rng.choice(["symmetric", "antisymmetric"]))
        if rng.random() < 0.3:
            t = augment_triple(t, rng.randrange(n))
        assert is_pairing_connected_exhaustive(t) == pairing_connected_by_decomposition(t)


def test_connectedness_is_read_off_exhaustive_reports_only():
    # the coordinate value only bounds h from above: h > 0 there proves nothing
    disconnected = build_triple(SimplicialGraph.of("abcd", [("a", "b"), ("c", "d")]), GF2)
    assert not pairing.pairing_connected_from_report(cheeger_constant_exhaustive(disconnected))
    assert pairing.pairing_connected_from_report(cheeger_constant_exhaustive(p3_triple()))
    assert pairing.pairing_connected_from_report(cheeger_constant_exhaustive(build_triple(edgeless(1), GF2)))
    with pytest.raises(PairingError, match="exhaustive"):
        pairing.pairing_connected_from_report(cheeger_constant_coordinate(p3_triple()))


# -- augmentation -----------------------------------------------------------------------


def test_augmented_edge_triple_entries():
    t = build_triple(complete(2), GF2)
    aug = augment_triple(t, 0)
    assert aug.dim_w == 2
    assert aug.tensor[0][0] == (0, 1)  # pivot pairs with itself in the new slot
    assert aug.tensor[1][1] == (0, 0)
    assert aug.tensor[0][1] == (1, 0)
    assert aug.symmetry == "componentwise"
    assert aug.signs == (-1, 1)
    # the pivot now touches one more basis vector than the graph valence
    assert q_valence_coordinate(aug) == q_valence_coordinate(t) + 1 == 2


def test_augment_pivot_range_checked():
    with pytest.raises(PairingError):
        augment_triple(p3_triple(), 3)


def test_augmentation_is_pointwise_monotone():
    # h_F never drops when the pairing gains a coordinate
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        t = random_triple(n, rng.randint(0, 2), GF2, seed=rng.randrange(2**32))
        aug = augment_triple(t, rng.randrange(n))
        for f in subspace_stream(n, range(1, n // 2 + 1), GF2):
            assert cheeger_of_subspace(aug, f) >= cheeger_of_subspace(t, f)


def test_alternating_witness():
    for g in [path(3), cycle(4), star(3), edgeless(2)]:
        for field in (GF2, GF3, QQ):
            t = build_triple(g, field)
            assert is_alternating(t)
    assert not is_alternating(augment_triple(build_triple(cycle(4), GF2), 2))
    assert is_alternating(zero_triple(3, 1, GF5))


def test_alternating_detects_gf2_diagonal():
    t = PairingTriple.of(GF2, 2, 1, [[(1,), (1,)], [(1,), (0,)]], "symmetric")
    assert not is_alternating(t)


# -- sign insensitivity -------------------------------------------------------------------


def negated(t: PairingTriple) -> PairingTriple:
    f = t.field
    tensor = tuple(
        tuple(tuple(f.neg(x) for x in w) for w in row) for row in t.tensor
    )
    return PairingTriple.of(f, t.dim_v, t.dim_w, tensor, t.symmetry, t.signs)


def test_sign_convention_does_not_change_invariants():
    cases = [
        (path(4), GF3),
        (cycle(5), GF3),
        (star(3), GF3),
        (path(3), GF5),
        (path(4), GF5),
        (star(3), GF5),
    ]
    for g, field in cases:
        t = build_triple(g, field).pairing
        flipped = negated(t)
        assert (
            cheeger_constant_exhaustive(t).value
            == cheeger_constant_exhaustive(flipped).value
        )
        assert q_valence_coordinate(t) == q_valence_coordinate(flipped)
        assert is_pairing_connected_exhaustive(t) == is_pairing_connected_exhaustive(flipped)


# -- random triples --------------------------------------------------------------------


def test_random_triple_is_deterministic_and_valid():
    a = random_triple(4, 3, GF3, seed=99)
    b = random_triple(4, 3, GF3, seed=99)
    assert a == b
    assert a.symmetry == "antisymmetric"
    assert all(x == (0, 0, 0) for x in (a.tensor[i][i] for i in range(4)))
    with pytest.raises(PairingError):
        random_triple(2, 1, QQ, seed=1)
