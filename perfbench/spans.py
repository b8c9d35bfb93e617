"""Outside-in tracing: spans around the calls into each layer of the program.

The benchmark replaces each traced function at the module attribute where
its caller looks it up, so nothing in the source tree changes.  Each span
records its name, start, end, parent span and operation id; spans stay in
memory and are written out when the run ends.  Generators are wrapped so
that every ``next()`` is its own span, which lets the enumeration stream be
timed apart from the scan that consumes it.

Span names are ``<layer>.<what>``, with the layer one of the program's
modules: cli, family, raag, graphs, pairing, linalg.  A span's self time is
its duration minus its children's, so the self times of all spans add up to
the duration of the root spans, one per operation.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import reference as ref

LAYERS = ("cli", "family", "raag", "graphs", "pairing", "linalg")

# (module, attribute, span name): plain functions.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "verify_main_theorem", "family.verify_main_theorem"),
    ("cli", "graph_family_report", "family.graph_family_report"),
    ("cli", "cheeger_constant_exhaustive", "pairing.cheeger_exhaustive"),
    ("cli", "cheeger_constant_coordinate", "pairing.cheeger_coordinate"),
    ("family", "build_triple", "raag.build_triple"),
    ("family", "cheeger_graph_exact", "graphs.cheeger_exact"),
    ("family", "spectral_cheeger_bounds", "graphs.spectral"),
    ("family", "cheeger_constant_exhaustive", "pairing.cheeger_exhaustive"),
    ("family", "cheeger_constant_coordinate", "pairing.cheeger_coordinate"),
    ("family", "q_valence_exhaustive", "pairing.qvalence_exhaustive"),
    ("family", "is_pairing_connected_exhaustive", "pairing.connectedness"),
)
# (module, attribute, span name): generators, one span per next().
GENERATORS = (
    ("pairing", "enumerate_subspaces", "linalg.enumerate_subspaces"),
    ("pairing", "enumerate_unordered_bases", "linalg.enumerate_unordered_bases"),
)
# (module, class, span name): the ``from_json_dict`` loaders the CLI calls.
LOADERS = (
    ("graphs", "SimplicialGraph", "graphs.parse"),
    ("raag", "RaagTriple", "raag.parse"),
    ("pairing", "PairingTriple", "raag.parse"),
)

NAME, START, END, PARENT, OP, INFO = range(6)
_YIELDED = {"yielded": 1}  # shared by every yield span, which keeps long scans small in memory


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self.stack.append(i)
        return i

    def close(self, i: int, info: dict | None = None) -> None:
        span = self.spans[i]
        span[END] = time.perf_counter_ns()
        span[INFO] = info
        self.stack.pop()

    def write(self, fh, meta: dict) -> None:
        """One header line, then one JSON line per span with the name as an
        index into the header's ``names``."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        fh.write(json.dumps({**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                             "names": names}) + "\n")
        for s in self.spans:
            fh.write(json.dumps([index[s[NAME]], s[START], s[END], s[PARENT], s[OP], s[INFO]]) + "\n")


def _info(name: str, args: tuple, result) -> dict | None:
    """Counts read from a traced call's arguments and result."""
    if name == "pairing.cheeger_exhaustive":
        pt = getattr(args[0], "pairing", args[0])
        p = pt.field.characteristic
        return {"visited": result.subspaces_visited, "total": ref.subspace_count(pt.dim_v, p), "p": p}
    if name == "graphs.cheeger_exact":
        return {"visited": result.subsets_visited}
    if name == "family.verify_main_theorem":
        return {"items": result.checked}
    if name == "family.graph_family_report":
        return {"items": len(result.entries)}
    return None


def _wrap_function(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec.close(i, {"error": type(err).__name__})
            raise
        rec.close(i, _info(name, args, result))
        return result

    return traced


def _traced_stream(rec: Recorder, name: str, it):
    while True:
        i = rec.open(name)
        try:
            item = next(it)
        except StopIteration:
            rec.close(i)
            return
        except BaseException as err:
            rec.close(i, {"error": type(err).__name__})
            raise
        rec.close(i, _YIELDED)
        yield item


def _wrap_generator(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _traced_stream(rec, name, fn(*args, **kwargs))

    return traced


class Instrumented:
    """Context manager that installs the wrappers on the program's modules
    and restores the originals on exit.  Attributes missing from a module
    are skipped, so a later version of the program that drops one still runs."""

    def __init__(self, modules: dict, rec: Recorder) -> None:
        self.modules = modules
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Instrumented":
        for table, wrap in ((FUNCTIONS, _wrap_function), (GENERATORS, _wrap_generator)):
            for module, attr, name in table:
                mod = self.modules[module]
                if attr in mod.__dict__:
                    self._patch(mod, attr, wrap(self.rec, name, mod.__dict__[attr]))
        for module, cls_name, name in LOADERS:
            cls = getattr(self.modules[module], cls_name, None)
            loader = None if cls is None else cls.__dict__.get("from_json_dict")
            if isinstance(loader, staticmethod):
                self._patch(cls, "from_json_dict", staticmethod(_wrap_function(self.rec, name, loader.__func__)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


# -- per-layer metrics ---------------------------------------------------------

# name -> unit, in report order.
LAYER_METRICS = {
    "linalg.enumerate_subspaces.yielded": "count",
    "linalg.enumerate_subspaces.s": "s",
    "linalg.enumerate_subspaces.ns_per_subspace": "ns",
    "linalg.enumerate_unordered_bases.yielded": "count",
    "linalg.enumerate_unordered_bases.s": "s",
    "pairing.cheeger_exhaustive.calls": "count",
    "pairing.cheeger_exhaustive.s": "s",
    "pairing.cheeger_exhaustive.subspaces_visited": "count",
    "pairing.cheeger_exhaustive.visited_frac": "frac",
    "pairing.cheeger_exhaustive.kernel_s": "s",
    "pairing.cheeger_exhaustive.kernel_us_per_subspace.gf2": "us",
    "pairing.cheeger_exhaustive.kernel_us_per_subspace.gf3": "us",
    "pairing.cheeger_coordinate.calls": "count",
    "pairing.cheeger_coordinate.s": "s",
    "pairing.connectedness.calls": "count",
    "pairing.connectedness.s": "s",
    "pairing.qvalence_exhaustive.calls": "count",
    "pairing.qvalence_exhaustive.s": "s",
    "pairing.qvalence_exhaustive.refusals": "count",
    "graphs.cheeger_exact.calls": "count",
    "graphs.cheeger_exact.s": "s",
    "graphs.cheeger_exact.subsets_visited": "count",
    "graphs.cheeger_exact.ns_per_subset": "ns",
    "graphs.cheeger_exact.refusals": "count",
    "graphs.spectral.calls": "count",
    "graphs.spectral.s": "s",
    "graphs.spectral.max_call_s": "s",
    "graphs.parse_s": "s",
    "raag.build_triple.calls": "count",
    "raag.build_triple.s": "s",
    "raag.parse_s": "s",
    "family.items": "count",
    "cli.stdout_bytes": "bytes",
    "cli.self_s": "s",
    "family.self_s": "s",
    "raag.self_s": "s",
    "graphs.self_s": "s",
    "pairing.self_s": "s",
    "linalg.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}

COUNT_METRICS = tuple(k for k, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


def self_times(spans: list[list]) -> list[int]:
    """Duration minus the durations of direct children, per span, in ns."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def round_metrics(spans: list[list], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, without ``trace.overhead_frac``."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    selfs: dict[str, int] = {}
    errors: dict[str, int] = {}
    sums: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    longest: dict[str, int] = {}
    kernel = {2: [0, 0], 3: [0, 0]}
    for s, self_ns in zip(spans, own):
        name, info = s[NAME], s[INFO] or {}
        dur = s[END] - s[START]
        layer_self[name.split(".", 1)[0]] += self_ns
        selfs[name] = selfs.get(name, 0) + self_ns
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
            longest[name] = max(longest.get(name, 0), dur)
        if "error" in info:
            errors[name] = errors.get(name, 0) + 1
        for key in ("visited", "total", "items", "yielded"):
            if key in info:
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + info[key]
        if name == "pairing.cheeger_exhaustive" and info.get("p") in kernel:
            kernel[info["p"]][0] += self_ns
            kernel[info["p"]][1] += info["visited"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ns = 1e-9
    ex, sub = "pairing.cheeger_exhaustive", "linalg.enumerate_subspaces"
    out = {
        f"{sub}.yielded": sums.get(f"{sub}.yielded", 0),
        f"{sub}.s": selfs.get(sub, 0) * ns,
        f"{sub}.ns_per_subspace": ratio(selfs.get(sub, 0), sums.get(f"{sub}.yielded", 0)),
        "linalg.enumerate_unordered_bases.yielded": sums.get("linalg.enumerate_unordered_bases.yielded", 0),
        "linalg.enumerate_unordered_bases.s": selfs.get("linalg.enumerate_unordered_bases", 0) * ns,
        f"{ex}.calls": calls.get(ex, 0),
        f"{ex}.s": incl.get(ex, 0) * ns,
        f"{ex}.subspaces_visited": sums.get(f"{ex}.visited", 0),
        f"{ex}.visited_frac": ratio(sums.get(f"{ex}.visited", 0), sums.get(f"{ex}.total", 0)),
        f"{ex}.kernel_s": selfs.get(ex, 0) * ns,
        f"{ex}.kernel_us_per_subspace.gf2": ratio(kernel[2][0], kernel[2][1]) * 1e-3,
        f"{ex}.kernel_us_per_subspace.gf3": ratio(kernel[3][0], kernel[3][1]) * 1e-3,
        "graphs.cheeger_exact.subsets_visited": sums.get("graphs.cheeger_exact.visited", 0),
        "graphs.cheeger_exact.ns_per_subset": ratio(
            incl.get("graphs.cheeger_exact", 0), sums.get("graphs.cheeger_exact.visited", 0)),
        "graphs.spectral.max_call_s": longest.get("graphs.spectral", 0) * ns,
        "graphs.parse_s": selfs.get("graphs.parse", 0) * ns,
        "raag.parse_s": selfs.get("raag.parse", 0) * ns,
        "family.items": sums.get("family.verify_main_theorem.items", 0)
        + sums.get("family.graph_family_report.items", 0),
        "cli.stdout_bytes": stdout_bytes,
        "trace.wall_s": sum(s[END] - s[START] for s in spans if s[PARENT] < 0) * ns,
        "trace.spans": len(spans),
    }
    for name in ("pairing.cheeger_coordinate", "pairing.connectedness", "pairing.qvalence_exhaustive",
                 "graphs.cheeger_exact", "graphs.spectral", "raag.build_triple"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0) * ns
    for name in ("pairing.qvalence_exhaustive", "graphs.cheeger_exact"):
        out[f"{name}.refusals"] = errors.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * ns
    return out


def summarize(rounds: list[dict[str, float]], traced_wall: list[float], plain_wall: list[float]) -> dict:
    """Median of each per-layer metric over the traced rounds, plus the
    tracing overhead: traced wall time against untraced, medians of each."""
    out = {
        k: (statistics.median_low if k in COUNT_METRICS else statistics.median)([r[k] for r in rounds])
        for k in LAYER_METRICS if k != "trace.overhead_frac"
    }
    out["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(plain_wall) - 1
    return {k: {"value": out[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
