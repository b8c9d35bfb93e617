"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench -q

A smoke run of each workload, the checkers against mutated output, the
nesting and additivity of traced spans, and exact repeats of per-layer
counts between runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced tiny runs per workload, same seed."""
    return {w: [run.run(w, 3, 0, trace=True, tiny=True) for _ in range(2)] for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result, _ = run.run(workload, 5, 0, trace=False, tiny=True)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_ROUNDS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced_runs, workload):
    result, _ = traced_runs[workload][0]
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_children_never_exceed_their_parent_span(traced_runs, workload):
    _, recorders = traced_runs[workload][0]
    for rec in recorders:
        for s in rec.spans:
            assert s[spans.START] <= s[spans.END]
            if s[spans.PARENT] >= 0:
                parent = rec.spans[s[spans.PARENT]]
                assert parent[spans.START] <= s[spans.START] and s[spans.END] <= parent[spans.END]
                assert parent[spans.OP] == s[spans.OP]
        assert min(spans.self_times(rec.spans)) >= 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall_time(traced_runs, workload):
    _, recorders = traced_runs[workload][0]
    for rec in recorders:
        metrics = spans.round_metrics(rec.spans, 0)
        total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert math.isclose(total, metrics["trace.wall_s"], rel_tol=1e-9)
        assert {s[spans.NAME].split(".")[0] for s in rec.spans} <= set(spans.LAYERS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_counts_repeat_exactly(traced_runs, workload):
    (first, _), (second, _) = traced_runs[workload]
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_instrumentation_is_removed_after_a_traced_round():
    modules = run.load_program()
    before = {m: dict(vars(mod)) for m, mod in modules.items()}
    with spans.Instrumented(modules, spans.Recorder()):
        assert modules["pairing"].enumerate_subspaces is not before["pairing"]["enumerate_subspaces"]
    for m, mod in modules.items():
        assert {k: v for k, v in vars(mod).items() if k in before[m]} == before[m]


# -- the checkers reject wrong output ----------------------------------------


def _outputs(workload, tmp_path):
    """(op, reference results, parsed stdout) for each op of a tiny workload."""
    modules = run.load_program()
    ops = workloads.build(workload, 7, tmp_path, tiny=True)
    out = []
    for op, results in zip(ops, run.solve_references(ops)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert modules["cli"].main(list(op.argv)) == 0
        assert op.check(buf.getvalue(), results) == []
        out.append((op, results, json.loads(buf.getvalue())))
    return out


def _rejected(op, results, data) -> bool:
    return bool(op.check(json.dumps(data), results))


def test_checker_rejects_a_wrong_subspace_h_and_visit_count(tmp_path):
    for op, results, data in _outputs("subspace-scan", tmp_path):
        assert _rejected(op, results, {**data, "value": "1/7"}), op.name
        assert _rejected(op, results, {**data, "subspaces_visited": data["subspaces_visited"] + 1}), op.name
        basis = data["minimizer"]["basis"]
        assert _rejected(op, results, {**data, "minimizer": {**data["minimizer"], "basis": basis[::-1] + basis}})


def test_checker_rejects_a_wrong_graph_h_in_a_verification_record(tmp_path):
    for op, results, data in _outputs("dictionary-sweep", tmp_path):
        items = json.loads(json.dumps(data["items"]))
        items[0]["data"]["h_graph"] = "7/3"
        assert _rejected(op, results, {**data, "items": items})
        assert _rejected(op, results, {**data, "failed": 1})


def test_checker_rejects_unsound_spectral_bounds_and_wrong_exact_h(tmp_path):
    exact, spectral = _outputs("graph-family", tmp_path)
    op, results, data = spectral
    for key, value in (("cheeger_lower", 5.0), ("cheeger_upper", 1e-6), ("cheeger_lower", -1.0)):
        entries = json.loads(json.dumps(data["entries"]))
        entries[0][key] = value
        assert _rejected(op, results, {**data, "entries": entries}), key
    op, results, data = exact
    entries = json.loads(json.dumps(data["entries"]))
    entries[0]["cheeger"] = "0"
    assert _rejected(op, results, {**data, "entries": entries})


def test_checker_ignores_extra_keys(tmp_path):
    for op, results, data in _outputs("subspace-scan", tmp_path)[:2]:
        assert not _rejected(op, results, {**data, "stats": {"pruned": 3}})


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "subspace-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
