import argparse
import contextlib
import io
import json
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
    # every command parses --field, so an unprovable prime must be refused
    res = subprocess.run(
        [sys.executable, "-m", "raagcheeger", "graph-h", "--input", p3_file,
         "--field", "gf618970019642690137449562111"],
        capture_output=True, text=True, timeout=20,
    )
    assert res.returncode == 2
    assert "3317044064679887385961981" in res.stderr
    assert "Traceback" not in res.stderr


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


@pytest.mark.parametrize("name", [name for name, *_ in _COMMANDS])
def test_bad_field_is_refused_before_any_input_is_read(tmp_path, name, capsys):
    # main parses --field for every command, before a handler opens --input
    argv = [name, "--field", "gf4"]
    if name == "gen":
        argv += ["--family", "cycle", "--size", "4"]
    else:
        argv += ["--input", str(tmp_path / "missing.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: prime field characteristic must be prime, got 4\n")


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
