"""The three benchmark workloads: seeded inputs, the CLI calls made on them,
and the checks applied to each call's stdout.

Every workload is generated from the benchmark seed and written to files;
the program sees only those files, never the seed.  Each operation is one
``raagcheeger.cli.main(argv)`` call.  Its check returns a list of mismatch
descriptions, empty when the output is correct.  Reference values are
computed by :mod:`reference` in a child process, before any timed region,
so that their memory does not count toward the run's.  Floats are never
compared for equality, only for soundness.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("dictionary-sweep", "subspace-scan", "graph-family")

# Vertex count -> (connected, disconnected) graphs in the sample.  The mix is
# fixed so that the cost of a sample depends little on the seed: a connected
# 6-vertex graph costs ~0.4 s, every other graph a few milliseconds.
SWEEP_PLAN = {4: (9, 3), 5: (9, 3), 6: (10, 2)}
SWEEP_PLAN_TINY = {4: (2, 1), 5: (1, 1)}
# Graphs per verify-theorem call, by vertex count (default: all in one call).
# Splitting the 6-vertex graphs keeps each call near 1.5 s, so the machine
# speed calibrated around a call is the speed it ran at (see calibration.py).
SWEEP_BATCH = {6: 4}

# (name, prime, dim V, dim W, symmetry); dim W = None marks the cup-product
# triple of the cycle C_n.  The random triples have enough W coordinates that
# an h = 0 subspace, which would end the scan early, is vanishingly unlikely.
SCAN_TRIPLES = (
    ("c7_gf2", 2, 7, None, "antisymmetric"),
    ("rand7_gf2", 2, 7, 5, "antisymmetric"),
    ("c6_gf3", 3, 6, None, "antisymmetric"),
    ("rand6_gf3", 3, 6, 4, "symmetric"),
)
SCAN_TRIPLES_TINY = (
    ("c5_gf2", 2, 5, None, "antisymmetric"),
    ("rand5_gf2", 2, 5, 3, "antisymmetric"),
    ("c4_gf3", 3, 4, None, "antisymmetric"),
    ("rand4_gf3", 3, 4, 3, "symmetric"),
)

# Random 3-regular graphs: sizes up to 22 are scanned exactly, sizes past the
# default 24-vertex subset budget fall back to spectral bounds.
FAMILY_EXACT = (12, 14, 16, 18, 20, 26, 30)
FAMILY_SPECTRAL = (("path", 50), ("path", 100), ("path", 200), ("cycle", 60), ("cycle", 120), ("cycle", 240))
FAMILY_EXACT_TINY = (8, 10, 26)
FAMILY_SPECTRAL_TINY = (("path", 10), ("path", 21), ("cycle", 12))
EXACT_LIMIT = 22
DEGREE = 3


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its stdout.

    ``needs`` lists the reference jobs (see :func:`reference.solve`) whose
    results the check takes, in order.
    """

    name: str
    argv: tuple[str, ...]
    needs: tuple[tuple, ...]
    check_json: Callable[[list, dict, list[str]], None]

    def check(self, stdout: str, results: list) -> list[str]:
        """Mismatches between ``stdout`` and the references; empty when correct."""
        errors: list[str] = []
        try:
            self.check_json(results, json.loads(stdout), errors)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
            errors.append(f"malformed output: {type(err).__name__}: {err}")
        return errors


def build(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Op]:
    """Generate the workload's inputs from ``seed`` into ``out_dir`` and
    return its operations, in the order they run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dictionary-sweep":
        return _dictionary_sweep(rng, out_dir, SWEEP_PLAN_TINY if tiny else SWEEP_PLAN)
    if workload == "subspace-scan":
        return _subspace_scan(rng, out_dir, SCAN_TRIPLES_TINY if tiny else SCAN_TRIPLES)
    if workload == "graph-family":
        if tiny:
            return _graph_family(rng, out_dir, FAMILY_EXACT_TINY, FAMILY_SPECTRAL_TINY)
        return _graph_family(rng, out_dir, FAMILY_EXACT, FAMILY_SPECTRAL)
    raise ValueError(f"unknown workload {workload!r}")


# -- writing inputs ------------------------------------------------------------


def _graph_json(n: int, edges) -> dict:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return {"vertices": [f"v{i}" for i in range(n)], "edges": [[f"v{u}", f"v{v}"] for u, v in edges]}


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _cup_product_tensor(n: int, edges, p: int) -> list:
    """q(v_i*, v_j*) = +e* for i < j and -e* for i > j, edges in sorted order."""
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    tensor = [[[0] * len(edges) for _ in range(n)] for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        tensor[i][j][e] = 1
        tensor[j][i][e] = p - 1
    return tensor


def _random_tensor(rng: random.Random, n: int, m: int, p: int, symmetry: str) -> list:
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            w = [rng.randrange(p) for _ in range(m)]
            if i == j and symmetry == "antisymmetric" and p != 2:
                w = [0] * m
            tensor[i][j] = w
            tensor[j][i] = w if symmetry == "symmetric" else [(-x) % p for x in w]
    return tensor


# -- checks --------------------------------------------------------------------


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


# -- dictionary-sweep ----------------------------------------------------------


def _dictionary_sweep(rng: random.Random, out_dir: Path, plan: dict) -> list[Op]:
    ops = []
    for n, (n_conn, n_disc) in plan.items():
        pairs = list(itertools.combinations(range(n), 2))
        wanted = {True: n_conn, False: n_disc}
        seen: set[int] = set()
        graphs = []
        while wanted[True] or wanted[False]:
            mask = rng.getrandbits(len(pairs))
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            connected = ref.is_connected(n, edges)
            if mask in seen or not wanted[connected]:
                continue
            seen.add(mask)
            wanted[connected] -= 1
            graphs.append(edges)
        files = [
            _write(out_dir / f"g{n}_{i:02d}.json", _graph_json(n, edges)) for i, edges in enumerate(graphs)
        ]
        size = SWEEP_BATCH.get(n, len(graphs))
        for start in range(0, len(graphs), size):
            batch = graphs[start:start + size]
            argv = ("verify-theorem", "--field", "gf2", "--jobs", "1", "--verbose", "--input",
                    *files[start:start + size])
            needs = tuple(("graph_cheeger", n, edges) for edges in batch)
            ops.append(Op(f"verify-theorem-n{n}-{start}", argv, needs, functools.partial(_check_sweep, n, batch)))
    return ops


def _check_sweep(n: int, graphs: list, results: list, out: dict, errors: list[str]) -> None:
    """The record passes, and every item agrees with the reference: h of the
    graph and of its triple, valence, and q-valence = valence."""
    _expect(errors, "kind", out["kind"], "main-theorem")
    _expect(errors, "checked", out["checked"], len(graphs))
    _expect(errors, "failed", out["failed"], 0)
    _expect(errors, "failures", out["failures"], [])
    items = out["items"]
    _expect(errors, "items", len(items), len(graphs))
    for item, edges, h in zip(items, graphs, results):
        degree = ref.max_degree(n, edges)
        where = f"item {item['index']}"
        _expect(errors, f"{where} passed", item["passed"], True)
        if not all(c["passed"] for c in item["checks"]):
            errors.append(f"{where}: failing checks {item['checks']}")
        data = item["data"]
        _expect(errors, f"{where} n", data["n"], n)
        _expect(errors, f"{where} dimV", data["dimV"], n)
        _expect(errors, f"{where} valence", data["valence"], degree)
        _expect(errors, f"{where} qvalence", data["qvalence"], degree)
        _expect(errors, f"{where} h_graph", data["h_graph"], h)
        _expect(errors, f"{where} h_triple", data["h_triple"], h)


# -- subspace-scan -------------------------------------------------------------


def _subspace_scan(rng: random.Random, out_dir: Path, triples) -> list[Op]:
    ops = []
    for name, p, n, m, symmetry in triples:
        if m is None:
            edges = _cycle_edges(n)
            tensor = _cup_product_tensor(n, edges, p)
            graph = _graph_json(n, edges)
            data = {
                "field": f"gf{p}", "dimV": n, "dimW": len(edges), "tensor": tensor,
                "symmetry": symmetry, "source_graph": graph,
                "vertex_basis": [f"{v}*" for v in graph["vertices"]],
                "edge_basis": [f"{u}{v}*" for u, v in graph["edges"]],
            }
        else:
            tensor = _random_tensor(rng, n, m, p, symmetry)
            data = {"field": f"gf{p}", "dimV": n, "dimW": m, "tensor": tensor, "symmetry": symmetry}
        path = _write(out_dir / f"{name}.json", data)
        closed_form = ref.cycle_h(n) if m is None else None
        exhaustive = ("subspace_exhaustive", p, tensor)
        for method in ("exhaustive", "coordinate"):
            check = functools.partial(_check_scan, method, p, n, closed_form)
            argv = ("triple-h", "--method", method, "--jobs", "1", "--input", path)
            needs = (exhaustive, (f"subspace_{method}", p, tensor))
            ops.append(Op(f"triple-h-{method}-{name}", argv, needs, check))
    return ops


def _check_scan(method, p, n, closed_form, results: list, out: dict, errors: list[str]) -> None:
    """Value, first minimizer and visit count match the reference scan; the
    cycle's value is 2/floor(n/2); a full exhaustive scan visits every
    subspace; the coordinate value bounds the exhaustive one from above."""
    (minimum, _, _), (value, minimizer, visited) = results
    got = Fraction(out["value"])
    _expect(errors, "value", out["value"], value)
    _expect(errors, "minimizer", out["minimizer"], {"ambient": n, "basis": minimizer})
    _expect(errors, "subspaces_visited", out["subspaces_visited"], visited)
    if closed_form is not None:
        _expect(errors, "value (closed form)", got, closed_form)
    if method == "exhaustive" and got > 0:
        _expect(errors, "subspaces_visited (full scan)", out["subspaces_visited"], ref.subspace_count(n, p))
    if method == "coordinate" and got < Fraction(minimum):
        errors.append(f"coordinate value {got} below the exhaustive minimum {minimum}")


# -- graph-family --------------------------------------------------------------


def _random_regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """A connected simple d-regular graph from the pairing model, by rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges) and ref.is_connected(n, edges):
            return sorted(edges)


def _graph_family(rng: random.Random, out_dir: Path, exact_sizes, spectral_graphs) -> list[Op]:
    exact = [(n, _random_regular(rng, n, DEGREE)) for n in exact_sizes]
    files = [_write(out_dir / f"rr{n}.json", _graph_json(n, edges)) for n, edges in exact]
    sizes = [n for n, _ in exact]
    ops = [Op(
        "family-report-exact",
        ("family-report", "--mode", "exact", "--jobs", "1", "--input", *files),
        tuple(("graph_cheeger", n, edges) for n, edges in exact if n <= EXACT_LIMIT),
        functools.partial(_check_family, sizes, [DEGREE] * len(sizes), None),
    )]
    files, closed_forms, valences = [], [], []
    for kind, n in spectral_graphs:
        edges = _path_edges(n) if kind == "path" else _cycle_edges(n)
        files.append(_write(out_dir / f"{kind}{n}.json", _graph_json(n, edges)))
        closed_forms.append(str(ref.path_h(n) if kind == "path" else ref.cycle_h(n)))
        valences.append(ref.max_degree(n, edges))
    ops.append(Op(
        "family-report-spectral",
        ("family-report", "--mode", "spectral", "--jobs", "1", "--input", *files),
        (),
        functools.partial(_check_family, [n for _, n in spectral_graphs], valences, closed_forms),
    ))
    return ops


def _check_family(sizes, valences, known, results: list, out: dict, errors: list[str]) -> None:
    """Exact entries equal the reference h; bound entries satisfy
    0 <= lower <= upper and, where h is known, lower <= h <= upper.  ``known``
    gives h per entry; when None, h comes from ``results`` for the entries
    within the exact-scan limit."""
    if known is None:
        solved = iter(results)
        known = [next(solved) if n <= EXACT_LIMIT else None for n in sizes]
    entries = out["entries"]
    _expect(errors, "entries", len(entries), len(sizes))
    _expect(errors, "verdict", out["verdict"], "consistent-with-expander")
    for entry, n, valence, h in zip(entries, sizes, valences, known):
        where = f"entry {entry['index']} (n={n})"
        _expect(errors, f"{where} size", entry["size"], n)
        _expect(errors, f"{where} valence", entry["valence"], valence)
        h = None if h is None else Fraction(h)
        if entry.get("cheeger") is not None:
            got = Fraction(entry["cheeger"])
            if h is not None:
                _expect(errors, f"{where} cheeger", got, h)
            elif got <= 0:
                errors.append(f"{where}: connected graph with h = {got}")
            continue
        lower, upper = entry.get("cheeger_lower"), entry.get("cheeger_upper")
        if lower is None and upper is None:
            errors.append(f"{where}: neither a value nor a bound")
        if lower is not None and lower < 0:
            errors.append(f"{where}: negative lower bound {lower}")
        if lower is not None and upper is not None and lower > upper:
            errors.append(f"{where}: lower bound {lower} above upper bound {upper}")
        if h is not None and lower is not None and lower > h:
            errors.append(f"{where}: lower bound {lower} above h = {h}")
        if h is not None and upper is not None and upper < h:
            errors.append(f"{where}: upper bound {upper} below h = {h}")
