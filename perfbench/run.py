"""Benchmark of the raagcheeger CLI, run in-process from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload is a fixed list of ``raagcheeger.cli.main(argv)`` calls on
inputs generated from the seed (see workloads.py).  One round runs every call
once; rounds repeat until ``--seconds`` is used up, and at least three run.
Every call's stdout is checked against reference values and against its own
stdout in the first round, which must match byte for byte.  Each call starts
with the program's lru caches cleared, as a fresh CLI process would.

``--trace 0`` prints the end-to-end metrics.  Times are in reference seconds:
each call's wall time is rescaled by a calibration job timed around it, which
cancels most of the machine-speed drift of a shared machine (calibration.py);
the raw wall times go to stderr.
  wall_s       sum over the calls of each call's median time over the rounds
  setup_s      median over nine set-ups of: import raagcheeger, then generate
               and write the inputs (numpy is imported once, beforehand)
  peak_rss_mb  peak resident memory of this process
  ok_frac      share of calls that passed every check (1 - failed/attempted)
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of spans.py, medians over the traced rounds, in raw seconds except
trace.overhead_frac, which compares reference seconds; the spans of every
traced round are written to .perfbench/trace-<workload>.jsonl.
``--workload all`` runs each workload in its own process and prints a table.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status is 0 when the run completes, even with failed checks,
and 2 when the program cannot be loaded from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  imported before set-up timing starts, see setup_s

import calibration
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 9
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
MODULES = ("cli", "family", "raag", "graphs", "pairing", "linalg")


class ProgramMissing(RuntimeError):
    pass


def load_program() -> dict:
    """Import raagcheeger afresh from this checkout's src/ and return its modules."""
    if not (SRC / "raagcheeger" / "__init__.py").is_file():
        raise ProgramMissing(f"no raagcheeger package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "raagcheeger" or m.startswith("raagcheeger.")]:
        del sys.modules[name]
    importlib.import_module("raagcheeger.cli")
    modules = {m: sys.modules[f"raagcheeger.{m}"] for m in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"raagcheeger was imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def clear_caches(modules: dict) -> None:
    for mod in modules.values():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class Runner:
    """Runs rounds of a workload's calls and keeps their outcomes."""

    def __init__(self, workload: str, modules: dict, ops: list, results: list,
                 clock: calibration.SpeedClock) -> None:
        self.workload = workload
        self.modules = modules
        self.ops = ops
        self.results = results
        self.clock = clock
        self.first_stdout: list[str | None] = [None] * len(ops)
        self.times: list[list[float]] = [[] for _ in ops]
        self.ref_times: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0

    def round(self, rec: spans.Recorder | None = None) -> tuple[float, int]:
        """Run every call once; return the summed call time in reference
        seconds and the stdout bytes."""
        total = 0.0
        stdout_bytes = 0
        for k, op in enumerate(self.ops):
            clear_caches(self.modules)
            out, err = io.StringIO(), io.StringIO()
            if rec is not None:
                rec.op += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.modules["cli"].main(list(op.argv))
                except (Exception, SystemExit) as exc:
                    code = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            self.times[k].append(elapsed)
            self.ref_times[k].append(self.clock.reference_seconds(elapsed))
            total += self.ref_times[k][-1]
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            if code == 0:
                problems = op.check(text, self.results[k])
            else:
                problems = [f"exit code {code!r}, stderr {err.getvalue()!r}"]
            if self.first_stdout[k] is None:
                self.first_stdout[k] = text
            elif text != self.first_stdout[k]:
                problems.append("stdout differs from the first round")
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems[:5]:
                    print(f"FAIL {self.workload} {op.name}: {problem}", file=sys.stderr)
        return total, stdout_bytes


def _setup(workload: str, seed: int, tiny: bool, work: Path):
    start = time.perf_counter()
    modules = load_program()
    ops = workloads.build(workload, seed, work, tiny)
    return time.perf_counter() - start, modules, ops


def solve_references(ops: list) -> list[list]:
    """Reference results for each op's ``needs``, computed in a child process
    so that their memory stays out of this process's peak."""
    jobs = list({json.dumps(job): job for op in ops for job in op.needs}.values())
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=json.dumps(jobs), capture_output=True, text=True, check=True, cwd=ROOT,
    )
    solved = {json.dumps(job): result for job, result in zip(jobs, json.loads(proc.stdout))}
    return [[solved[json.dumps(job)] for job in op.needs] for op in ops]


def _until(seconds: float, step, minimum: int) -> None:
    """Call step() until the next call would end past ``seconds``, with at
    least ``minimum`` calls."""
    start = time.perf_counter()
    count = 0
    while True:
        before = time.perf_counter()
        step()
        count += 1
        now = time.perf_counter()
        if count >= minimum and now - start + (now - before) > seconds:
            return


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns the result object and, when tracing, the
    recorders of the traced rounds."""
    work_root = OUT / f"{workload}-{os.getpid()}"
    try:
        clock = calibration.SpeedClock()
        setup_times, ref_setup_times = [], []
        for i in range(1 if trace else SETUPS):
            elapsed, modules, ops = _setup(workload, seed, tiny, work_root / str(i))
            setup_times.append(elapsed)
            ref_setup_times.append(clock.reference_seconds(elapsed))
        runner = Runner(workload, modules, ops, solve_references(ops), clock)
        recorders: list[spans.Recorder] = []
        if not trace:
            _until(seconds, runner.round, MIN_ROUNDS)
            print(
                f"{workload}: raw wall_s {sum(statistics.median(t) for t in runner.times):.4f}, "
                f"raw setup_s {statistics.median(setup_times):.4f}, calibration median "
                f"{statistics.median(clock.samples):.4f} s against {calibration.REFERENCE_S} s reference",
                file=sys.stderr,
            )
            metrics = {
                "wall_s": sum(statistics.median(t) for t in runner.ref_times),
                "setup_s": statistics.median(ref_setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - runner.failed / runner.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        else:
            plain, traced, per_round = [], [], []

            def pair() -> None:
                plain.append(runner.round()[0])
                rec = spans.Recorder()
                with spans.Instrumented(modules, rec):
                    wall, stdout_bytes = runner.round(rec)
                traced.append(wall)
                per_round.append(spans.round_metrics(rec.spans, stdout_bytes))
                recorders.append(rec)

            _until(seconds, pair, MIN_TRACED_ROUNDS)
            metrics = spans.summarize(per_round, traced, plain)
            _write_spans(workload, seed, recorders)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, recorders


def _write_spans(workload: str, seed: int, recorders: list) -> None:
    path = OUT / f"trace-{workload}.jsonl"
    with path.open("w") as fh:
        for n, rec in enumerate(recorders):
            rec.write(fh, {"workload": workload, "seed": seed, "traced_round": n})


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run each workload in its own process, so that peak memory is its own."""
    ok = True
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "frac"))
        rows.extend((workload, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    for row in rows:
        print("{:<18} {:<52} {:>16.6g} {}".format(*row))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
