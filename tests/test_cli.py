import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from raagcheeger import GF2, Field, SimplicialGraph, build_triple, cheeger_constant_exhaustive, cycle, path
from raagcheeger.cli import _COMMANDS, build_parser, main
from raagcheeger.family import VerificationRecord


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "raagcheeger", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def p3_file(tmp_path):
    g = path(3)
    f = tmp_path / "p3.json"
    f.write_text(json.dumps(g.to_json_dict()))
    return str(f)


def test_gen_then_graph_h(tmp_path):
    gen = run_cli("gen", "--family", "cycle", "--size", "4")
    assert gen.returncode == 0
    f = tmp_path / "c4.json"
    f.write_text(gen.stdout)
    res = run_cli("graph-h", "--input", str(f))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {
        "h": "1",
        "minimizer": ["v0", "v1"],
        "subsets_visited": 10,
    }


def test_gen_edgelist_parses_back(tmp_path):
    gen = run_cli("gen", "--family", "path", "--size", "4", "--format", "edgelist")
    assert gen.returncode == 0
    f = tmp_path / "p4.txt"
    f.write_text(gen.stdout)
    res = run_cli("graph-h", "--input", str(f))
    assert res.returncode == 0
    assert json.loads(res.stdout)["h"] == "1/2"


def test_build_triple_round_trip_matches_in_process(tmp_path, p3_file):
    built = run_cli("build-triple", "--input", p3_file, "--field", "gf2")
    assert built.returncode == 0
    tf = tmp_path / "t.json"
    tf.write_text(built.stdout)
    out = run_cli("triple-h", "--input", str(tf))
    assert out.returncode == 0
    in_process = cheeger_constant_exhaustive(build_triple(path(3), GF2))
    assert json.loads(out.stdout) == in_process.to_json_dict()


def test_qvalence_and_connectedness_commands(tmp_path, p3_file):
    built = run_cli("build-triple", "--input", p3_file)
    tf = tmp_path / "t.json"
    tf.write_text(built.stdout)
    q = run_cli("qvalence", "--input", str(tf))
    assert json.loads(q.stdout) == {"q_valence": 2, "method": "exhaustive"}
    qc = run_cli("qvalence", "--input", str(tf), "--method", "coordinate")
    assert json.loads(qc.stdout) == {"q_valence": 2, "method": "coordinate"}
    c = run_cli("connectedness", "--input", str(tf))
    assert json.loads(c.stdout) == {"pairing_connected": True}


def test_connectedness_on_eight_vertices_finishes(tmp_path):
    # C8 over GF(2) sits inside the default subspace budget; enumerating its
    # direct-sum decompositions ran for minutes, the h > 0 scan takes seconds
    two_squares = SimplicialGraph.of(
        [f"v{i}" for i in range(8)],
        [(f"v{i}", f"v{(i + 1) % 4}") for i in range(4)]
        + [(f"v{4 + i}", f"v{4 + (i + 1) % 4}") for i in range(4)],
    )
    for graph, connected in ((cycle(8), True), (two_squares, False)):
        tf = tmp_path / "t.json"
        tf.write_text(json.dumps(build_triple(graph, GF2).to_json_dict()))
        res = run_cli("connectedness", "--input", str(tf))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"pairing_connected": connected}


def test_augment_command(tmp_path, p3_file):
    built = run_cli("build-triple", "--input", p3_file)
    tf = tmp_path / "t.json"
    tf.write_text(built.stdout)
    out = run_cli("augment", "--input", str(tf), "--pivot", "1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["dimW"] == 3
    assert data["symmetry"] == {"componentwise": [-1, -1, 1]}
    assert data["tensor"][1][1] == [0, 0, 1]


def test_verify_theorem_all_graphs():
    res = run_cli("verify-theorem", "--all-graphs", "3", "--field", "gf2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["checked"] == 8 and data["failed"] == 0


def test_verify_augmentation_family():
    res = run_cli("verify-augmentation", "--family", "cycle", "--sizes", "3", "4", "5")
    assert res.returncode == 0
    assert json.loads(res.stdout)["failed"] == 0


def test_family_report_csv():
    res = run_cli(
        "family-report", "--family", "cycle", "--sizes", "4", "6", "--format", "csv"
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("index,n,dimV")
    assert lines[1].split(",")[5] == "1"
    assert lines[2].split(",")[5] == "2/3"


def test_family_report_triple_kind():
    res = run_cli(
        "family-report", "--family", "path", "--sizes", "3", "4",
        "--kind", "triple", "--field", "gf3",
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert [e["cheeger"] for e in data["entries"]] == ["1", "1/2"]
    assert data["verdict"] == "consistent-with-expander"


def test_human_format_prints_exact_rationals(p3_file):
    res = run_cli("graph-h", "--input", p3_file, "--format", "human")
    assert res.returncode == 0
    assert "h: 1" in res.stdout


def test_malformed_graph_names_edge(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
    res = run_cli("graph-h", "--input", str(f))
    assert res.returncode == 2
    assert "repeated edge" in res.stderr and "(b, a)" in res.stderr


def test_budget_exceedance_names_flag(tmp_path):
    gen = run_cli("gen", "--family", "cycle", "--size", "8")
    f = tmp_path / "c8.json"
    f.write_text(gen.stdout)
    res = run_cli("graph-h", "--input", str(f), "--budget-subsets", "6")
    assert res.returncode == 2
    assert "--budget-subsets" in res.stderr


@pytest.mark.parametrize(
    "command, size, flag",
    [("qvalence", 2, "--budget-bases"), ("triple-h", 4, "--budget-subspaces")],
)
def test_large_prime_is_refused_at_once(tmp_path, command, size, flag):
    # both inputs are small, but over GF(1000003) the basis or subspace count
    # is astronomical; the count cap refuses it
    f = tmp_path / "t.json"
    f.write_text(json.dumps(build_triple(path(size), Field.gf(1_000_003)).to_json_dict()))
    res = subprocess.run(
        [sys.executable, "-m", "raagcheeger", command, "--input", str(f), "--method", "exhaustive"],
        capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 2
    assert flag in res.stderr and "past the cap of" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "command, flag", [("triple-h", "--budget-subspaces"), ("qvalence", "--budget-bases")]
)
def test_explicit_budget_caps_the_work(tmp_path, command, flag):
    # an explicit budget caps the subspaces or steps, not the dimension: 4
    # refuses the triple on GF(1831)^4 at once, where a dimension cap of 4
    # admitted a scan of about 1.1e13 subspaces
    f = tmp_path / "t.json"
    f.write_text(json.dumps(build_triple(path(4), Field.gf(1831)).to_json_dict()))
    res = subprocess.run(
        [sys.executable, "-m", "raagcheeger", command, "--input", str(f), "--method",
         "exhaustive", flag, "4"],
        capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 2
    assert f"past the cap of 4 (raise with {flag})" in res.stderr
    assert "Traceback" not in res.stderr


def test_field_past_the_witness_bound_is_refused(p3_file):
    # build-triple parses --field, so an unprovable prime must be refused
    res = subprocess.run(
        [sys.executable, "-m", "raagcheeger", "build-triple", "--input", p3_file,
         "--field", "gf618970019642690137449562111"],
        capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 2
    assert "3317044064679887385961981" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_field_too_large_to_stream_is_refused(tmp_path, capsys):
    # with the subspace cap raised past its count, the P3 triple over
    # GF(2^61 - 1) reaches the point stream, whose (2^61 - 1)^3 vectors no
    # numpy array indexes: the stream refuses it, and names field and dimension
    f = tmp_path / "t.json"
    f.write_text(json.dumps(build_triple(path(3), Field.gf(2**61 - 1)).to_json_dict()))
    for command in (["triple-h", "--method", "exhaustive"], ["connectedness"]):
        assert main([*command, "--input", str(f), "--budget-subspaces", str(10**44)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: gf2305843009213693951^3 has more vectors than a numpy array can index\n"


def test_gf7_five_dimensional_scan_answers(tmp_path, capsys):
    # GF(7)^5 up to dimension 2 is 142851 subspaces, within the work cap;
    # h > 0, so the scan visits all of them
    for graph, h in ((cycle(5), "1"), (path(5), "1/2")):
        f = tmp_path / "t.json"
        f.write_text(json.dumps(build_triple(graph, Field.gf(7)).to_json_dict()))
        assert main(["triple-h", "--input", str(f), "--method", "exhaustive"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["value"], out["subspaces_visited"]) == (h, 142_851)
    assert main(["verify-theorem", "--family", "cycle", "--sizes", "5", "--field", "gf7"]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0


def test_missing_input_is_usage_error():
    res = run_cli("graph-h")
    assert res.returncode == 2


def test_unknown_command_is_usage_error():
    res = run_cli("no-such-command")
    assert res.returncode == 2


def test_check_failure_maps_to_exit_one(monkeypatch, capsys):
    from raagcheeger import cli as cli_module

    fake = VerificationRecord(
        kind="main-theorem",
        field="gf2",
        items=(
            {"label": "fake", "passed": False, "data": {},
             "checks": [{"name": "h-graph-equals-h-triple", "passed": False, "witness": {}}]},
        ),
    )
    monkeypatch.setattr(cli_module, "verify_main_theorem", lambda *a, **k: fake)
    rc = main(["verify-theorem", "--all-graphs", "2"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["failed"] == 1


def test_failed_item_keeps_its_index_witness_and_check_count(monkeypatch, capsys):
    # a wrong centralizer rank on P3 fails one of the five checks of item 1 of 3
    from raagcheeger import family

    rank = family.max_centralizer_rank
    monkeypatch.setattr(family, "max_centralizer_rank", lambda g: rank(g) + (g.n_vertices == 3))
    argv = ["verify-theorem", "--family", "path", "--sizes", "2", "3", "4"]
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["checked"], out["failed"]) == (3, 1)
    [failure] = out["failures"]
    assert (failure["index"], failure["label"], failure["passed"]) == (1, "n=3[v0-v1;v1-v2]", False)
    assert [c for c in failure["checks"] if "witness" in c] == [{
        "name": "centralizer-rank-equals-qvalence-plus-1",
        "passed": False,
        "witness": {"max_centralizer_rank": 4, "q_valence": 2, "q_valence_method": "exhaustive"},
    }]
    assert main([*argv, "--format", "csv"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [(row.split(",")[0], row.split(",")[-1]) for row in rows] == [
        ("0", "5/5"), ("1", "4/5"), ("2", "5/5"),
    ]


# the flags each command takes besides --help: those its handler or main reads
COMMAND_FLAGS = {
    "gen": ["--family", "--size", "--degree", "--seed", "--format", "--jobs"],
    "graph-h": ["--input", "--budget-subsets", "--format", "--jobs"],
    "triple-h": ["--input", "--method", "--budget-subspaces", "--format", "--jobs"],
    "qvalence": ["--input", "--method", "--budget-bases", "--format", "--jobs"],
    "connectedness": ["--input", "--budget-subspaces", "--format", "--jobs"],
    "build-triple": ["--input", "--field", "--format", "--jobs"],
    "augment": ["--input", "--pivot", "--format", "--jobs"],
    "verify-theorem": ["--input", "--field", "--budget-subsets", "--budget-subspaces",
                       "--budget-bases", "--all-graphs", "--family", "--sizes", "--degree",
                       "--seed", "--verbose", "--format", "--jobs"],
    "verify-augmentation": ["--input", "--field", "--budget-subspaces", "--family", "--sizes",
                            "--degree", "--seed", "--pivot", "--verbose", "--format", "--jobs"],
    "verify-invariance": ["--input", "--budget-subspaces", "--all-graphs", "--family", "--sizes",
                          "--degree", "--seed", "--fields", "--verbose", "--format", "--jobs"],
    "family-report": ["--input", "--field", "--budget-subsets", "--budget-subspaces",
                      "--budget-bases", "--family", "--sizes", "--degree", "--seed", "--kind",
                      "--mode", "--valence-bound", "--format", "--jobs"],
}
# the flags every command took, whether it read them or not
ONCE_COMMON = ["--field", "--budget-subsets", "--budget-subspaces", "--budget-bases", "--seed"]


def _parsable_argv(name, tmp_path):
    """A command line of ``name`` that parses; its --input names a missing file."""
    if name == "gen":
        return [name, "--family", "cycle", "--size", "4"]
    return [name, "--input", str(tmp_path / "missing.json")]


def test_each_command_takes_only_the_flags_it_reads():
    for name, *_ in _COMMANDS:
        [action] = [a for a in build_parser(name)._actions if isinstance(a, argparse._SubParsersAction)]
        flags = [flag for a in action.choices[name]._actions for flag in a.option_strings]
        assert sorted(flags) == sorted(["-h", "--help", *COMMAND_FLAGS[name]]), name
    assert sum(map(len, COMMAND_FLAGS.values())) == 81


@pytest.mark.parametrize("name", [name for name, flags in COMMAND_FLAGS.items() if "--field" in flags])
def test_bad_field_is_refused_before_any_input_is_read(tmp_path, name, capsys):
    # main parses --field where a command takes it, before a handler opens --input
    assert main([*_parsable_argv(name, tmp_path), "--field", "gf4"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: prime field characteristic must be prime, got 4\n")


@pytest.mark.parametrize(
    "name, flag",
    [(name, flag) for name, flags in COMMAND_FLAGS.items() for flag in ONCE_COMMON if flag not in flags],
)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, name, flag, capsys):
    # --field is refused as a whole word where only --fields is taken, not
    # read as its abbreviation
    value = "gf7" if flag == "--field" else "1"
    with pytest.raises(SystemExit) as exit_:
        main([*_parsable_argv(name, tmp_path), flag, value])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "cycle", "--size", "5", "--degree", "3"],
        ["verify-theorem", "--family", "path", "--sizes", "4", "--degree", "2"],
        ["family-report", "--family", "cycle", "--sizes", "4", "--degree", "2"],
    ],
)
def test_degree_without_random_regular_is_refused(argv, capsys):
    # only random-regular reads --degree; another family would ignore it
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --degree applies only to --family random-regular, not {argv[2]}\n"


@pytest.mark.parametrize(
    "argv", [["verify-theorem", "--all-graphs", "4", "--verbose"], ["gen", "--family", "cycle", "--size", "4"]]
)
def test_closed_stdout_is_not_an_input_error(argv):
    # the reader of stdout is gone before the command writes: a large output
    # fails as it is printed, a small one only at the last flush
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "raagcheeger", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (141, "")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify-theorem", "--all-graphs", "2", "--field", "gf3"], "gf3"),
        (["verify-augmentation", "--family", "path", "--sizes", "3", "--field", "gf5"], "gf5"),
        (["verify-invariance", "--all-graphs", "2"], "gf2+gf3+gf5"),
        (["verify-invariance", "--family", "path", "--sizes", "3", "--fields", "gf3", "gf2"],
         "gf3+gf2"),
    ],
)
def test_verify_commands_name_their_field(argv, field, capsys):
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out)[:2] == ["kind", "field"] and out["field"] == field
    assert main([*argv, "--format", "human"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"field: {field}"
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "index,n,dimV,valence,qvalence,h_graph,h_triple,method,checks_passed"
    )


@pytest.mark.parametrize("name", ["verify-theorem", "family-report"])
def test_family_without_sizes_is_refused(name, capsys):
    # a family with no size names no graph: a check of none would pass and
    # a report of none would print a verdict
    assert main([name, "--family", "cycle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--sizes" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-theorem", "--all-graphs", "2", "--sizes", "9", "--seed", "4", "--degree", "3"], "--sizes"),
        (["verify-theorem", "--all-graphs", "2", "--seed", "0"], "--seed"),
        (["verify-invariance", "--input", "g.json", "--degree", "3"], "--degree"),
        (["verify-augmentation", "--input", "g.json", "--sizes", "4"], "--sizes"),
        (["family-report", "--input", "g.json", "--seed", "1"], "--seed"),
    ],
)
def test_family_flags_beside_another_source_are_refused(argv, flag, capsys):
    # --sizes, --degree and --seed name graphs of a --family source only;
    # the refusal comes before any input is read
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag} applies only to a --family source\n")


def test_seed_defaults_to_zero(capsys):
    for name, size in (("gen", ["--size", "8"]), ("verify-theorem", ["--sizes", "6", "8"])):
        argv = [name, "--family", "random-regular", *size, "--degree", "3"]
        assert main(argv) == 0
        unseeded = capsys.readouterr().out
        assert main([*argv, "--seed", "0"]) == 0
        assert capsys.readouterr().out == unseeded


@pytest.mark.parametrize(
    "kind, flag, value",
    [("graph", "--field", "gf7"), ("graph", "--field", "gf2"), ("graph", "--budget-subspaces", "3"),
     ("graph", "--budget-bases", "3"), ("triple", "--mode", "spectral"), ("triple", "--mode", "exact"),
     ("triple", "--budget-subsets", "3")],
)
def test_family_report_refuses_the_flags_of_the_other_kind(kind, flag, value, capsys):
    argv = ["family-report", "--kind", kind, "--family", "cycle", "--sizes", "4"]
    assert main([*argv, flag, value]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag} does not apply to --kind {kind}\n")
    assert main(argv) == 0


def test_all_graphs_zero_checks_the_graph_on_no_vertices(capsys):
    # N = 0 is a source of one graph, not an absent flag
    assert main(["verify-theorem", "--all-graphs", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["checked"], out["failed"]) == (1, 0)


@pytest.mark.parametrize(
    "argv", [["verify-theorem", "--all-graphs", "-1"], ["verify-invariance", "--all-graphs", "-2"]]
)
def test_negative_all_graphs_is_refused(argv, capsys):
    # a negative vertex count names no graph, not the graph on no vertices
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nonnegative" in err


@pytest.mark.parametrize(
    "argv, count",
    [(["verify-theorem", "--all-graphs", "7"], "2097152"),
     (["verify-invariance", "--all-graphs", "100000"], "at least 2^400")],
)
def test_all_graphs_past_the_cap_is_refused_before_any_graph_is_built(argv, count, monkeypatch, capsys):
    from raagcheeger import cli as cli_module

    monkeypatch.setattr(cli_module, "labeled_graphs", None)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --all-graphs {argv[2]} would build {count} labeled graphs, past the cap "
                   f"of 32768 (every graph on 6 vertices)\n")


def test_all_graphs_at_the_cap_is_admitted():
    from raagcheeger.budgets import ALL_GRAPHS_CAP, check_all_graphs

    assert ALL_GRAPHS_CAP == 2**15
    for n in range(-1, 7):
        check_all_graphs(n)


@pytest.mark.parametrize(
    "argv, message",
    [(["family-report", "--family", "complete", "--sizes", "30000"],
      "--sizes 30000 would build a graph of 30000 vertices and up to 449985000 edges (--family complete)"),
     (["verify-theorem", "--family", "random-regular", "--degree", "3", "--sizes", "2000000"],
      "--sizes 2000000 would build a graph of 2000000 vertices and up to 3000000 edges "
      "(--family random-regular)"),
     (["gen", "--family", "margulis", "--size", "1000"],
      "--size 1000 would build a graph of 1000000 vertices and up to 4000000 edges (--family margulis)"),
     (["gen", "--family", "edgeless", "--size", "3000000"],
      "--size 3000000 would build a graph of 3000000 vertices and up to 0 edges (--family edgeless)")],
)
def test_family_graph_past_its_cap_is_refused_before_it_is_built(argv, message, monkeypatch, capsys):
    from raagcheeger import cli as cli_module

    monkeypatch.setattr(cli_module, "_FAMILIES", {})
    monkeypatch.setattr(cli_module, "random_regular", None)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}, past the cap of 2097152 vertices plus edges\n"


def test_family_counts_bound_the_generated_graphs():
    # each family's count before building gives the graph's vertices and its
    # edges exactly, but for margulis, where 4 m^2 bounds them
    from raagcheeger.budgets import FAMILY_GRAPH_CAP, BudgetError, check_family_graph
    from raagcheeger.cli import _COUNTS, _family_graph

    for name, counts in _COUNTS.items():
        for size in range(3, 12):
            degree = 3 if name == "random-regular" else None
            if degree and size % 2:
                continue
            g = _family_graph(name, size, degree, seed=1)
            vertices, edges = counts(size, degree)
            assert vertices == g.n_vertices, (name, size)
            assert edges >= g.n_edges if name == "margulis" else edges == g.n_edges, (name, size)
    check_family_graph("--size", 1, "path", FAMILY_GRAPH_CAP // 2, FAMILY_GRAPH_CAP // 2)
    with pytest.raises(BudgetError, match="--size 1 would build"):
        check_family_graph("--size", 1, "path", FAMILY_GRAPH_CAP // 2, FAMILY_GRAPH_CAP // 2 + 1)


@pytest.mark.parametrize("mode", [[], ["--mode", "spectral"]])
def test_dense_spectral_route_past_its_cap_is_refused(mode, capsys):
    # --mode exact falls back to the spectral route past the subset budget,
    # and takes the same refusal
    assert main(["family-report", "--family", "path", "--sizes", "4", "30000", *mode]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: dense spectral bounds capped at 2000 vertices (requested 30000;")


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_jobs_outside_one_to_the_cpu_count_is_refused(tmp_path, jobs, capsys):
    # refused before the input is read (it does not exist) and before any
    # pool starts, with nothing on stdout
    for argv in (["verify-theorem", "--all-graphs", "2"], ["triple-h", "--input", str(tmp_path / "none")]):
        assert main([*argv, "--jobs", str(jobs)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: --jobs must be between 1 and {os.cpu_count() or 1}, got {jobs}\n")


@pytest.mark.parametrize("argv, message", [
    (["gen", "--family", "random-regular", "--size", "60", "--degree", "12", "--seed", "1"],
     "--size 60 --degree 12 would take about 3.36e+15 attempts of 720 stub draws each"),
    (["verify-theorem", "--family", "random-regular", "--degree", "7", "--sizes", "8"],
     "--sizes 8 --degree 7 would take about 1.63e+05 attempts of 56 stub draws each"),
    (["family-report", "--family", "random-regular", "--degree", "3", "--sizes", "200000"],
     "--sizes 200000 --degree 3 would take about 7.39 attempts of 600000 stub draws each"),
    (["gen", "--family", "random-regular", "--size", "100", "--degree", "99"],
     "--size 100 --degree 99 would take about more than 1e300 attempts of 9900 stub draws each"),
])
def test_random_regular_past_its_expected_draws_is_refused_before_any_draw(argv, message, monkeypatch, capsys):
    # the pairing model's expected attempts, exp((d^2 - 1)/4), times its n*d
    # stub draws each, past the cap: (60, 12) once ran out of its 100,000
    # attempts after about 25 s, and (200000, 3) took 10 s
    from raagcheeger import cli as cli_module

    monkeypatch.setattr(cli_module, "random_regular", None)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message} (--family random-regular), past the cap of 4194304 expected draws " \
                  f"(lower --degree or {message.split()[0]})\n"


def test_random_regular_cap_admits_the_seeded_graphs():
    # every (n, d) the tests draw stays below the cap, as does the largest n
    # of each degree from 3 to 6 that it admits; a degree outside 1..n - 1
    # is left to the generator
    from raagcheeger.budgets import RANDOM_REGULAR_DRAWS, BudgetError, check_random_regular

    for n, d in ((8, 3), (10, 4), (12, 4), (20, 3), (100, 3), (6, 2), (8, 1), (6, 0), (4, 4), (5, 100),
                 (180_000, 3), (23_000, 4), (2_000, 5), (110, 6)):
        check_random_regular("--size", n, d)
    for n, d in ((190_000, 3), (25_000, 4), (2_100, 5), (112, 6), (8, 7)):
        with pytest.raises(BudgetError, match=f"--size {n} --degree {d} would take"):
            check_random_regular("--size", n, d)
    assert RANDOM_REGULAR_DRAWS == 2**22


def test_seed_controls_random_regular():
    a = run_cli("gen", "--family", "random-regular", "--size", "8", "--degree", "3", "--seed", "5")
    b = run_cli("gen", "--family", "random-regular", "--size", "8", "--degree", "3", "--seed", "5")
    c = run_cli("gen", "--family", "random-regular", "--size", "8", "--degree", "3", "--seed", "6")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_verify_invariance_command():
    res = run_cli("verify-invariance", "--family", "path", "--sizes", "3", "4",
                  "--fields", "gf2", "gf3")
    assert res.returncode == 0
    assert json.loads(res.stdout)["failed"] == 0


def _parsed(command, argv):
    """Exit code, stdout, stderr and namespace of one parse, in this process."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(build_parser(command).parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("name", [name for name, *_ in _COMMANDS])
def test_parser_for_one_command_matches_the_full_parser(name):
    # the parser built for the command argv names reads argv exactly as the
    # parser with every subcommand does: help, errors and parsed values
    corpus = [[name, "--help"], [name, "--no-such-flag"], [name, "--format", "nope"],
              [name, "--seed", "x"], [name]]
    if name == "gen":
        corpus.append([name, "--family", "cycle", "--size", "4"])
    outcomes = set()
    for argv in corpus:
        one, full = _parsed(name, argv), _parsed(None, argv)
        assert one == full, argv
        outcomes.add(one[0])
    assert outcomes == {0, 2, None}


def test_parser_for_one_command_registers_one_subparser():
    def subparsers(parser):
        [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(action.choices)

    assert subparsers(build_parser("triple-h")) == ["triple-h"]
    assert subparsers(build_parser(None)) == [name for name, *_ in _COMMANDS]
    assert subparsers(build_parser("no-such-command")) == [name for name, *_ in _COMMANDS]


def test_cli_import_leaves_multiprocessing_unloaded():
    code = "import sys, raagcheeger.cli; print('multiprocessing' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr


_K150_SUBSPACES = ("subspace enumeration over gf2 in dimension 150 would visit at least 2^400 subspaces, "
                   "past the cap of 308992 (raise with --budget-subspaces)")


@pytest.mark.parametrize("argv, message", [
    (["verify-theorem"], "exact subset enumeration capped at 24 vertices (requested 150; raise with "
                         "--budget-subsets or use spectral bounds)"),
    (["verify-invariance"], _K150_SUBSPACES),
    (["verify-augmentation"], _K150_SUBSPACES),
], ids=["theorem", "invariance", "augmentation"])
def test_a_triple_too_large_to_build_is_refused_before_it_is_built(monkeypatch, capsys, argv, message):
    # K150's triple is a (150, 150, 11175) tensor, 1.87 GiB of int64; the
    # checks its scans would make come first, so none is built
    from raagcheeger import family

    built = []
    monkeypatch.setattr(family, "build_triple", lambda *args: built.append(args))
    assert main([*argv, "--family", "complete", "--sizes", "4", "150"]) == 2
    out, err = capsys.readouterr()
    assert (out, err, built) == ("", f"error: {message}\n", [])


def test_scan_refusals_come_in_input_order(tmp_path, capsys):
    # the first graph whose scans refuse names the refusal, as when every
    # triple was built and scanned in turn; within a graph, the graph scan's
    # budget comes before the subspace scan's, and the pivot before both
    files = {}
    for name, g in (("p2", path(2)), ("c12", cycle(12)), ("c30", cycle(30))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(g.to_json_dict()))
    cases = [
        (["verify-theorem", "--input", files["p2"], files["c30"], files["c12"]],
         "exact subset enumeration capped at 24 vertices (requested 30;"),
        (["verify-theorem", "--input", files["c12"], files["c30"]],
         "subspace enumeration over gf2 in dimension 12 would visit"),
        (["verify-augmentation", "--pivot", "3", "--input", files["p2"], files["c12"]],
         "pivot 3 outside basis range 0..1"),
        (["verify-augmentation", "--pivot", "3", "--input", files["c12"], files["p2"]],
         "subspace enumeration over gf2 in dimension 12 would visit"),
        (["verify-invariance", "--fields", "gf2", "rational", "--input", files["p2"]],
         "non-enumerable field: subspace enumeration needs a prime field"),
    ]
    for argv, message in cases:
        assert main([str(a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}"), (argv, err)


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_triple_reports_build_no_triple_that_no_scan_reads(monkeypatch, capsys, field):
    # K150's Cheeger scan and q-valence min-max both refuse, over GF(2) by
    # budget and over the rationals by field, so its entry is inconclusive
    # without its 1.87 GiB triple, as it was with it; K4's triple is built
    # over GF(2), while over the rationals no scan of it runs either
    from raagcheeger import family

    built = []
    real = family.build_triple
    monkeypatch.setattr(family, "build_triple", lambda g, f: built.append(g.n_vertices) or real(g, f))
    argv = ["family-report", "--kind", "triple", "--field", field, "--family", "complete", "--sizes", "4", "150"]
    assert main(argv) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert built == ([4] if field == "gf2" else [])
    assert entries[1]["method"] == "inconclusive" and entries[1]["valence"] == 149
    assert entries[1]["valence_method"] == "coordinate"
    assert entries[1]["note"] == (_K150_SUBSPACES if field == "gf2" else
                                  "non-enumerable field: subspace enumeration needs a prime field")
