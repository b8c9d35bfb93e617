"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is exact
(Fraction equality) except the spectral sandwich, which carries its stated
1e-6 float tolerance.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from raagcheeger import (
    GF2,
    GF3,
    GF5,
    Subspace,
    boundary,
    build_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    cheeger_graph_exact,
    cheeger_of_subspace,
    complete,
    cycle,
    is_alternating,
    is_connected,
    is_pairing_connected_exhaustive,
    labeled_graphs,
    margulis_like,
    max_centralizer_rank,
    max_valence,
    path,
    q_valence_coordinate,
    q_valence_exhaustive,
    random_regular,
    spectral_cheeger_bounds,
    star,
)
from raagcheeger.pairing import augment_triple

from decomposition_oracle import pairing_connected_by_decomposition
from generators import random_triple, sample_labeled_graphs

pytestmark = pytest.mark.acceptance

SAMPLE_SEED = 20260808


def _report(num: int, desc: str, failures: list, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    print(f"[criterion {num:02d}] {status} in {elapsed:.1f}s: {desc}")
    assert not failures, f"criterion {num}: first failures: {failures[:5]}"


def test_criterion_01_cheeger_equality_on_five_vertex_corpus():
    started = time.perf_counter()
    failures = []
    for g in labeled_graphs(5):
        t = build_triple(g, GF2)
        hg = cheeger_graph_exact(g).value
        he = cheeger_constant_exhaustive(t).value
        hc = cheeger_constant_coordinate(t).value
        if not (hg == he == hc):
            failures.append((g.edges, str(hg), str(he), str(hc)))
    _report(1, "graph Cheeger = exhaustive = coordinate triple Cheeger on all "
               "1024 labeled 5-vertex graphs over GF(2), exact", failures, started)


def test_criterion_02_coordinate_sufficiency_on_six_vertex_sample():
    started = time.perf_counter()
    failures = []
    for g in sample_labeled_graphs(6, 1000, seed=SAMPLE_SEED):
        t = build_triple(g, GF2)
        he = cheeger_constant_exhaustive(t).value
        hc = cheeger_constant_coordinate(t).value
        if he != hc:
            failures.append(("coordinate", g.edges, str(he), str(hc)))
        hg = cheeger_graph_exact(g).value
        if hg != he:
            failures.append(("graph", g.edges, str(hg), str(he)))
    _report(2, "exhaustive = coordinate (and = graph) Cheeger on 1000 sampled "
               "6-vertex graphs over GF(2), exact", failures, started)


def test_criterion_03_q_valence_equals_max_valence():
    started = time.perf_counter()
    failures = []
    for g in labeled_graphs(4):
        t = build_triple(g, GF2)
        qe = q_valence_exhaustive(t)
        if qe != max_valence(g):
            failures.append((g.edges, qe, max_valence(g)))
    _report(3, "exhaustive q-valence = max graph valence on all 64 labeled "
               "4-vertex graphs over GF(2)", failures, started)


def test_criterion_04_pairing_connected_iff_connected():
    # the production check (h > 0) and the direct-sum oracle must each match
    started = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for g in labeled_graphs(n):
            t = build_triple(g, GF2)
            connected = is_connected(g)
            if is_pairing_connected_exhaustive(t) != connected:
                failures.append(("production", n, g.edges))
            if pairing_connected_by_decomposition(t) != connected:
                failures.append(("decomposition oracle", n, g.edges))
    _report(4, "pairing-connected iff graph connected on all labeled graphs "
               "with at most 5 vertices over GF(2), by the production check "
               "and by the direct-sum oracle", failures, started)


def test_criterion_05_positive_cheeger_implies_pairing_connected():
    # an iff: h > 0 exactly when the direct-sum oracle finds no split
    started = time.perf_counter()
    rng = random.Random(SAMPLE_SEED)
    failures = []
    positive = 0
    for k in range(200):
        dim_v = rng.randint(2, 6)
        dim_w = rng.randint(0, 4)
        t = random_triple(dim_v, dim_w, GF2, seed=rng.randrange(2**63))
        h = cheeger_constant_exhaustive(t).value
        positive += h > 0
        if (h > 0) != pairing_connected_by_decomposition(t):
            failures.append((k, dim_v, dim_w, str(h)))
    _report(5, f"h > 0 iff pairing-connected (direct-sum oracle) on 200 seeded "
               f"random antisymmetric GF(2) triples ({positive} with h > 0), zero "
               f"counterexamples", failures, started)


def test_criterion_06_coordinate_subspace_cheeger_is_boundary_quotient():
    started = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for g in labeled_graphs(n):
            t = build_triple(g, GF2)
            for size in range(1, n // 2 + 1):
                for combo in itertools.combinations(range(n), size):
                    members = [g.vertices[i] for i in combo]
                    expected = Fraction(len(boundary(g, members)), size)
                    f = Subspace.from_vectors(
                        GF2, n, [[1 if j == c else 0 for j in range(n)] for c in combo]
                    )
                    got = cheeger_of_subspace(t, f)
                    if got != expected:
                        failures.append((g.edges, members, str(got), str(expected)))
    _report(6, "coordinate-subspace Cheeger = |boundary(B)|/|B| for every "
               "admissible subset of every graph with at most 5 vertices", failures, started)


def test_criterion_07_centralizer_rank_dictionary():
    started = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for g in labeled_graphs(n):
            t = build_triple(g, GF2)
            rank = max_centralizer_rank(g)
            if not (rank == max_valence(g) + 1 == q_valence_coordinate(t) + 1):
                failures.append((g.edges, rank, max_valence(g), q_valence_coordinate(t)))
    _report(7, "max centralizer rank = max valence + 1 = coordinate q-valence + 1 "
               "on the full corpus with at most 5 vertices", failures, started)


def test_criterion_08_augmentation_behaves():
    started = time.perf_counter()
    failures = []
    for n in (3, 4, 5, 6):
        t = build_triple(cycle(n), GF2)
        aug = augment_triple(t, 0)
        h = cheeger_constant_exhaustive(t).value
        h_aug = cheeger_constant_exhaustive(aug).value
        if not h_aug >= h:
            failures.append((n, "cheeger", str(h), str(h_aug)))
        d = q_valence_coordinate(t)
        d_aug = q_valence_coordinate(aug)
        if not d_aug <= d + 1:
            failures.append((n, "qvalence", d, d_aug))
        if not (is_alternating(t) and not is_alternating(aug)):
            failures.append((n, "alternating", is_alternating(t), is_alternating(aug)))
    _report(8, "pivot augmentation on C3..C6 over GF(2): Cheeger monotone, "
               "q-valence +<=1, alternating flips true -> false", failures, started)


def test_criterion_09_field_invariance():
    started = time.perf_counter()
    failures = []
    fields = (GF2, GF3, GF5)
    for n in range(1, 5):
        for g in labeled_graphs(n):
            h_values = []
            d_values = []
            for f in fields:
                t = build_triple(g, f)
                h_values.append(cheeger_constant_exhaustive(t).value)
                d_values.append(q_valence_coordinate(t))
            if len(set(h_values)) != 1:
                failures.append((g.edges, "h", [str(h) for h in h_values]))
            if len(set(d_values)) != 1:
                failures.append((g.edges, "d", d_values))
            # oracle cross-check where the basis-pair budget allows it
            if n <= 3:
                ex = q_valence_exhaustive(build_triple(g, GF3))
                if ex != d_values[1]:
                    failures.append((g.edges, "d-oracle-gf3", ex, d_values[1]))
    _report(9, "Cheeger value and q-valence of the cohomology triple agree over "
               "GF(2), GF(3), GF(5) on all graphs with at most 4 vertices", failures, started)


def _fixture_connected_graphs():
    graphs = [cycle(n) for n in range(3, 13)]
    graphs += [path(n) for n in range(2, 13)]
    graphs += [complete(n) for n in range(2, 9)]
    graphs += [star(k) for k in range(1, 12)]
    graphs += [margulis_like(2), margulis_like(3)]
    graphs += [random_regular(8, 3, seed=1), random_regular(10, 3, seed=2),
               random_regular(12, 4, seed=3)]
    return [g for g in graphs if g.n_vertices <= 12 and is_connected(g)]


def test_criterion_10_spectral_sandwich():
    started = time.perf_counter()
    failures = []
    for g in _fixture_connected_graphs():
        lower, upper = spectral_cheeger_bounds(g)
        h = float(cheeger_graph_exact(g).value)
        if not (lower - 1e-6 <= h <= upper + 1e-6):
            failures.append((g.n_vertices, g.n_edges, lower, h, upper))
    _report(10, "spectral lower - 1e-6 <= exact h <= spectral upper + 1e-6 on "
                "every connected fixture graph with at most 12 vertices", failures, started)


def _cli(*args: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "raagcheeger", *args], capture_output=True, timeout=600
    )
    assert proc.returncode in (0, 1), proc.stderr.decode()
    return proc.stdout


def test_criterion_11_byte_identical_output(tmp_path):
    started = time.perf_counter()
    g = path(4)
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps(g.to_json_dict()))
    built = _cli("build-triple", "--input", str(gf), "--field", "gf2")
    tf = tmp_path / "t.json"
    tf.write_bytes(built)
    commands = [
        ("graph-h", "--input", str(gf)),
        ("build-triple", "--input", str(gf), "--field", "gf3"),
        ("triple-h", "--input", str(tf)),
        ("qvalence", "--input", str(tf)),
        ("gen", "--family", "random-regular", "--size", "10", "--degree", "3", "--seed", "7"),
        ("family-report", "--family", "cycle", "--sizes", "3", "4", "5", "6", "--format", "csv"),
        ("family-report", "--family", "cycle", "--sizes", "3", "4", "5", "6"),
        ("verify-theorem", "--all-graphs", "4", "--field", "gf2"),
        ("verify-augmentation", "--family", "cycle", "--sizes", "3", "4"),
    ]
    failures = []
    for cmd in commands:
        first = _cli(*cmd)
        second = _cli(*cmd)
        if first != second:
            failures.append((cmd, "rerun differs"))
    jobs_sensitive = [
        ("verify-theorem", "--all-graphs", "4", "--field", "gf2"),
        ("family-report", "--family", "cycle", "--sizes", "3", "4", "5", "6"),
    ]
    # --jobs takes at most one worker per CPU
    most = str(os.cpu_count() or 1)
    for cmd in jobs_sensitive:
        one = _cli(*cmd, "--jobs", "1")
        many = _cli(*cmd, "--jobs", most)
        if one != many:
            failures.append((cmd, f"jobs 1 vs {most} differ"))
    _report(11, "every command byte-identical across reruns and across "
                f"--jobs 1 vs {most}", failures, started)
