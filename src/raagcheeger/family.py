"""Family-level reports and machine verification of the graph <-> vector
space dictionary.

A finite prefix of a family can disprove expansion (a zero Cheeger value, an
unbounded valence) but never prove it, so report verdicts are limited to
``consistent-with-expander``, ``not-expander`` and ``inconclusive``.

Per-index computations are independent; the verifiers accept a ``jobs``
argument and fold worker results in input order, so output is identical for
any degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from .budgets import DEFAULT_BUDGETS, BudgetError, Budgets
from .fields import Field
from .graphs import (
    CheegerUndefinedError,
    SimplicialGraph,
    cheeger_graph_exact,
    is_connected,
    max_valence,
    spectral_cheeger_bounds,
)
from .pairing import (
    PairingTriple,
    augment_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    is_alternating,
    pairing_connected_from_report,
    q_valence_coordinate,
    q_valence_exhaustive,
)
from .raag import RaagTriple, build_triple, max_centralizer_rank

VERDICT_CONSISTENT = "consistent-with-expander"
VERDICT_NOT_EXPANDER = "not-expander"
VERDICT_INCONCLUSIVE = "inconclusive"


# -- report structures -------------------------------------------------------


_CSV_HEADER = "index,n,dimV,valence,qvalence,h_graph,h_triple,method,checks_passed"


def _format_value(v: Fraction | int | None) -> str:
    return "" if v is None else str(v)


def _csv(rows: Iterable[list[str]]) -> str:
    """The rows under _CSV_HEADER, each led by its position as the index."""
    lines = [_CSV_HEADER, *(",".join([str(i), *row]) for i, row in enumerate(rows))]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FamilyEntry:
    kind: str                      # "graph" or "triple"
    field: str | None
    size: int                      # vertex count or dim V
    valence: int | None
    valence_method: str | None
    cheeger: Fraction | None       # exact value when known
    cheeger_lower: float | None = None
    cheeger_upper: float | None = None
    method: str = "exact"          # exact | spectral | undefined | inconclusive
    note: str = ""

    def to_json_dict(self) -> dict:
        # vars lists the fields in declaration order, uncopied
        return {**vars(self), "cheeger": None if self.cheeger is None else str(self.cheeger)}


@dataclass(frozen=True)
class FamilyReport:
    entries: tuple[FamilyEntry, ...]
    prefix_infimum: Fraction | float | None
    prefix_infimum_kind: str | None    # "exact" or "spectral-lower"
    valence_bound: int | None
    verdict: str

    def to_json_dict(self) -> dict:
        inf = self.prefix_infimum
        return {
            **vars(self),
            "entries": [{"index": i, **e.to_json_dict()} for i, e in enumerate(self.entries)],
            "prefix_infimum": str(inf) if isinstance(inf, Fraction) else inf,
        }

    def to_csv(self) -> str:
        rows = []
        for e in self.entries:
            if e.kind == "graph":
                h = _format_value(e.cheeger)
                if e.cheeger is None and e.cheeger_lower is not None:
                    h = f"[{e.cheeger_lower!r};{e.cheeger_upper!r}]"
                rows.append([str(e.size), "", str(e.valence or 0), "", h, "", e.method, ""])
            else:
                rows.append(["", str(e.size), "", _format_value(e.valence), "",
                             _format_value(e.cheeger), e.method, ""])
        return _csv(rows)


def _assemble_report(entries: list[FamilyEntry], valence_bound: int | None) -> FamilyReport:
    best = None
    best_kind = None
    disproved = False
    inconclusive = False
    observed_valence = 0
    for e in entries:
        if e.valence is not None and e.valence > observed_valence:
            observed_valence = e.valence
        if e.method == "inconclusive":
            inconclusive = True
            continue
        if e.cheeger is not None:
            value, kind = e.cheeger, "exact"
            if value == 0:
                disproved = True
        elif e.cheeger_lower is not None:
            value, kind = e.cheeger_lower, "spectral-lower"
        else:
            continue
        if best is None or value < best:
            best, best_kind = value, kind
    if valence_bound is not None and observed_valence > valence_bound:
        disproved = True
    if disproved:
        verdict = VERDICT_NOT_EXPANDER
    elif inconclusive:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_CONSISTENT
    return FamilyReport(
        tuple(entries), best, best_kind,
        valence_bound if valence_bound is not None else observed_valence,
        verdict,
    )


def graph_family_report(
    graphs: Sequence[SimplicialGraph],
    mode: str = "exact",
    budgets: Budgets = DEFAULT_BUDGETS,
    valence_bound: int | None = None,
    jobs: int = 1,
) -> FamilyReport:
    """Per-graph Cheeger metrics with expander bookkeeping over a finite prefix.

    ``mode="exact"`` brute-forces each graph within budget and falls back to
    spectral bounds past it; ``mode="spectral"`` goes straight to the bounds.
    A disconnected graph is recorded as exact zero in either mode.
    """
    if mode not in ("exact", "spectral"):
        raise ValueError(f"unknown mode {mode!r}")
    worker = partial(_graph_entry, mode=mode, budgets=budgets)
    return _assemble_report(_pmap(worker, list(graphs), jobs), valence_bound)


def _graph_entry(graph: SimplicialGraph, mode: str, budgets: Budgets) -> FamilyEntry:
    n = graph.n_vertices
    val = max_valence(graph)
    if n < 2:
        return FamilyEntry("graph", None, n, val, "graph", None, method="undefined",
                           note="no admissible subset")
    if not is_connected(graph):
        return FamilyEntry("graph", None, n, val, "graph", Fraction(0),
                           method="exact", note="disconnected")
    if mode == "exact":
        try:
            res = cheeger_graph_exact(graph, budgets)
            return FamilyEntry("graph", None, n, val, "graph", res.value, method="exact")
        except BudgetError:
            pass
    lower, upper = spectral_cheeger_bounds(graph)
    note = "budget exceeded; spectral fallback" if mode == "exact" else ""
    return FamilyEntry("graph", None, n, val, "graph", None,
                       cheeger_lower=lower, cheeger_upper=upper, method="spectral", note=note)


def triple_family_report(
    triples: Sequence,
    budgets: Budgets = DEFAULT_BUDGETS,
    valence_bound: int | None = None,
    jobs: int = 1,
) -> FamilyReport:
    """Per-triple dim V, q-valence and Cheeger value over a finite prefix.

    Fields may differ across indices.  A triple past the enumeration budgets
    is recorded as an inconclusive entry rather than failing the report.
    """
    worker = partial(_triple_entry, budgets=budgets)
    return _assemble_report(_pmap(worker, list(triples), jobs), valence_bound)


def _triple_entry(t, budgets: Budgets) -> FamilyEntry:
    pt: PairingTriple = getattr(t, "pairing", t)
    n = pt.dim_v
    qval, qmethod = _q_valence(pt, budgets)
    try:
        report = cheeger_constant_exhaustive(pt, budgets)
    except BudgetError as err:
        return FamilyEntry("triple", pt.field.name, n, qval, qmethod, None,
                           method="inconclusive", note=str(err))
    if report.value is None:
        return FamilyEntry("triple", pt.field.name, n, qval, qmethod, None,
                           method="undefined", note="dim V < 2")
    return FamilyEntry("triple", pt.field.name, n, qval, qmethod, report.value,
                       method="exact")


def _q_valence(t, budgets: Budgets) -> tuple[int, str]:
    """The exhaustive q-valence within budget, else the coordinate value,
    which is exact for cup-product triples; with the method used."""
    try:
        return q_valence_exhaustive(t, budgets), "exhaustive"
    except BudgetError:
        return q_valence_coordinate(t), "coordinate"


# -- verification records ----------------------------------------------------


def _check(name: str, passed: bool, witness: dict) -> dict:
    """A check that carries its witness only when it fails."""
    check = {"name": name, "passed": passed}
    if not passed:
        check["witness"] = witness
    return check


def _item(graph: SimplicialGraph, checks: list[dict], data: dict) -> dict:
    """One graph's verification, as printed but for its index."""
    edges = ";".join(f"{u}-{v}" for u, v in graph.edges)
    return {
        "label": f"n={graph.n_vertices}[{edges}]",
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "data": data,
    }


@dataclass(frozen=True)
class VerificationRecord:
    kind: str
    field: str                     # the field's name, or the fields' joined by "+"
    items: tuple[dict, ...]        # from _item, in input order

    @property
    def checked(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.items if not it["passed"])

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self, verbose: bool = False) -> dict:
        items = [{"index": i, **it} for i, it in enumerate(self.items)]
        out = {
            "kind": self.kind,
            "field": self.field,
            "checked": self.checked,
            "failed": self.failed,
            "failures": [it for it in items if not it["passed"]],
        }
        if verbose:
            out["items"] = items
        return out

    def to_csv(self) -> str:
        rows = []
        for it in self.items:
            d = it["data"]
            passed = sum(1 for c in it["checks"] if c["passed"])
            rows.append([
                *(str(d.get(key, "")) for key in
                  ("n", "dimV", "valence", "qvalence", "h_graph", "h_triple", "method")),
                f"{passed}/{len(it['checks'])}",
            ])
        return _csv(rows)


def _exact_or_none(graph: SimplicialGraph, budgets: Budgets) -> Fraction | None:
    try:
        return cheeger_graph_exact(graph, budgets).value
    except CheegerUndefinedError:
        return None


def _fmt(v) -> str:
    return "undefined" if v is None else str(v)


def verify_main_theorem(
    graphs: Iterable[SimplicialGraph],
    field: Field,
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
) -> VerificationRecord:
    """Machine-check the dictionary on each graph: Cheeger equality between
    the graph and its cohomology triple (exhaustive and coordinate routes),
    dimension = vertex count, centralizer rank = q-valence + 1, and
    pairing-connectedness = connectedness.  This is the primary regression
    gate; failures carry witnesses.
    """
    worker = partial(_verify_one_graph, field=field, budgets=budgets)
    return VerificationRecord("main-theorem", field.name, tuple(_pmap(worker, list(graphs), jobs)))


def _verify_one_graph(graph: SimplicialGraph, field: Field, budgets: Budgets) -> dict:
    triple = build_triple(graph, field)
    n = graph.n_vertices
    h_graph = _exact_or_none(graph, budgets)
    exh = cheeger_constant_exhaustive(triple, budgets)
    coord = cheeger_constant_coordinate(triple, budgets)
    qval, qmethod = _q_valence(triple, budgets)
    connected = is_connected(graph)
    p_connected = pairing_connected_from_report(exh)
    cent = max_centralizer_rank(graph) if n else None
    checks = [
        _check("h-graph-equals-h-triple", h_graph == exh.value,
               {"h_graph": _fmt(h_graph), "h_triple": _fmt(exh.value)}),
        _check("h-coordinate-equals-exhaustive", coord.value == exh.value,
               {"coordinate": _fmt(coord.value), "exhaustive": _fmt(exh.value)}),
        _check("dimV-equals-rank", triple.pairing.dim_v == n,
               {"dimV": triple.pairing.dim_v, "vertices": n}),
        _check("centralizer-rank-equals-qvalence-plus-1", cent is None or cent == qval + 1,
               {"max_centralizer_rank": cent, "q_valence": qval, "q_valence_method": qmethod}),
        _check("pairing-connected-iff-connected", p_connected == connected,
               {"pairing_connected": p_connected, "graph_connected": connected}),
    ]
    data = {
        "n": n,
        "dimV": triple.pairing.dim_v,
        "valence": max_valence(graph),
        "qvalence": qval,
        "h_graph": _fmt(h_graph),
        "h_triple": _fmt(exh.value),
        "method": f"exhaustive+{qmethod}",
    }
    return _item(graph, checks, data)


def verify_augmentation(
    graphs: Iterable[SimplicialGraph],
    field: Field | None = None,
    pivot: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
) -> VerificationRecord:
    """Check the pivot augmentation per graph: the Cheeger value may only go
    up, coordinate q-valence by at most one, and the alternating property
    flips from true to false."""
    if field is None:
        field = Field.gf(2)
    worker = partial(_verify_one_augmentation, field=field, pivot=pivot, budgets=budgets)
    return VerificationRecord("augmentation", field.name, tuple(_pmap(worker, list(graphs), jobs)))


def _verify_one_augmentation(
    graph: SimplicialGraph, field: Field, pivot: int, budgets: Budgets
) -> dict:
    triple = build_triple(graph, field)
    augmented = augment_triple(triple, pivot)
    h_orig = cheeger_constant_exhaustive(triple, budgets).value
    h_aug = cheeger_constant_exhaustive(augmented, budgets).value
    if h_orig is None:
        monotone = h_aug is None
    else:
        monotone = h_aug is not None and h_aug >= h_orig
    d_orig = q_valence_coordinate(triple)
    d_aug = q_valence_coordinate(augmented)
    alt_orig = is_alternating(triple)
    alt_aug = is_alternating(augmented)
    checks = [
        _check("cheeger-monotone-under-augmentation", monotone,
               {"h": _fmt(h_orig), "h_augmented": _fmt(h_aug)}),
        _check("qvalence-grows-at-most-one", d_aug <= d_orig + 1,
               {"d": d_orig, "d_augmented": d_aug}),
        _check("alternating-flips", alt_orig and not alt_aug,
               {"alternating": alt_orig, "alternating_augmented": alt_aug}),
    ]
    data = {
        "n": graph.n_vertices,
        "dimV": triple.pairing.dim_v,
        "qvalence": d_orig,
        "h_graph": _fmt(h_orig),
        "h_triple": _fmt(h_aug),
        "method": "exhaustive",
    }
    return _item(graph, checks, data)


def field_invariance_check(
    graphs: Iterable[SimplicialGraph],
    fields: Sequence[Field],
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
) -> VerificationRecord:
    """Check that Cheeger value, q-valence and pairing-connectedness of the
    cohomology triple agree across every listed field."""
    if not fields:
        raise ValueError("field_invariance_check needs at least one field")
    worker = partial(_verify_one_invariance, fields=tuple(fields), budgets=budgets)
    names = "+".join(f.name for f in fields)
    return VerificationRecord("field-invariance", names, tuple(_pmap(worker, list(graphs), jobs)))


def _verify_one_invariance(
    graph: SimplicialGraph, fields: tuple[Field, ...], budgets: Budgets
) -> dict:
    h_by_field = {}
    d_by_field = {}
    conn_by_field = {}
    for f in fields:
        triple = build_triple(graph, f)
        exh = cheeger_constant_exhaustive(triple, budgets)
        h_by_field[f.name] = exh.value
        d_by_field[f.name] = q_valence_coordinate(triple)
        conn_by_field[f.name] = pairing_connected_from_report(exh)
    def invariant(d: dict) -> bool:
        vals = list(d.values())
        return all(v == vals[0] for v in vals)
    checks = [
        _check("h-field-invariant", invariant(h_by_field),
               {k: _fmt(v) for k, v in h_by_field.items()}),
        _check("qvalence-field-invariant", invariant(d_by_field), dict(d_by_field)),
        _check("pairing-connected-field-invariant", invariant(conn_by_field),
               dict(conn_by_field)),
    ]
    first = fields[0].name
    data = {
        "n": graph.n_vertices,
        "dimV": graph.n_vertices,
        "qvalence": d_by_field[first],
        "h_triple": _fmt(h_by_field[first]),
        "method": "+".join(f.name for f in fields),
    }
    return _item(graph, checks, data)


# -- parallel fold -----------------------------------------------------------


def _pmap(fn: Callable, items: list, jobs: int) -> list:
    """Order-preserving map, optionally across processes.  Results depend only
    on the inputs, never on the worker count."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # here, so that a call that starts no pool never imports it

    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 4)))
