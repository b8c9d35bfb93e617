"""Family-level reports and machine verification of the graph <-> vector
space dictionary.

A finite prefix of a family can disprove expansion (a zero Cheeger value, an
unbounded valence) but never prove it, so report verdicts are limited to
``consistent-with-expander``, ``not-expander`` and ``inconclusive``.

Per-index computations are independent; the verifiers and reports accept
a ``jobs`` argument and fold worker results in input order
(:mod:`raagcheeger.fold`), so output is identical for any degree of
parallelism.  Every caller that scans many triples hands each job one
run of those of one field and dim V, which one call of
:func:`~raagcheeger.pairing.cheeger_constants` cuts into stacks.  The
dictionary and field-invariance checks run once per isomorphism class of
the input graphs, the augmentation check once per graph.  The verifiers
make their scans' refusals before they build any triple, and the triple
report of graphs builds a triple only where a scan of it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

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
from .fold import _label, _per_class, _pmap, _runs
from .linalg import LinalgError
from .pairing import (
    augment_triple,
    check_pivot,
    cheeger_constants,
    is_alternating,
    pairing_connected_from_report,
    q_valence_coordinate,
    q_valence_exhaustive,
    refuse_exhaustive,
)
from .qvalence import refuse_q_valence
from .raag import build_triple, max_centralizer_rank

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

    Fields may differ across indices.  A triple past the enumeration budgets,
    or over the rationals, which the exhaustive scan cannot enumerate, is
    recorded as an inconclusive entry rather than failing the report.  The
    triples of one field and dim V are scanned as stacks, and ``jobs`` maps
    over runs of them (:func:`~raagcheeger.fold._runs`).
    """
    pts = [getattr(t, "pairing", t) for t in triples]
    entries = _runs(partial(_triple_run, budgets=budgets), pts, jobs, lambda pt: (pt.field, pt.dim_v))
    return _assemble_report(entries, valence_bound)


def graph_triple_family_report(
    graphs: Sequence[SimplicialGraph],
    field: Field,
    budgets: Budgets = DEFAULT_BUDGETS,
    valence_bound: int | None = None,
    jobs: int = 1,
) -> FamilyReport:
    """:func:`triple_family_report` of the graphs' cohomology triples over
    ``field``, each built only where a scan of it runs: where the Cheeger
    scan and the q-valence min-max both refuse, the entry is inconclusive,
    as the triple's would be, and its coordinate q-valence is the graph's
    max valence, as for every cup-product triple."""
    worker = partial(_graph_triple_run, field=field, budgets=budgets)
    entries = _runs(worker, list(graphs), jobs, lambda g: g.n_vertices)
    return _assemble_report(entries, valence_bound)


def _graph_triple_run(graphs: list[SimplicialGraph], field: Field, budgets: Budgets) -> list[FamilyEntry]:
    """The entries of a run of graphs of one vertex count, whose triples are
    built where a scan of them runs and go to :func:`_triple_run`."""
    refusals = [_refusal(refuse_exhaustive, field, g.n_vertices, g.n_edges, budgets) for g in graphs]
    built = [err is None or _refusal(refuse_q_valence, field, g.n_vertices, budgets) is None
             for g, err in zip(graphs, refusals)]
    triples = [build_triple(g, field) for g, b in zip(graphs, built) if b]
    done = iter(_triple_run(triples, budgets, [err for err, b in zip(refusals, built) if b]))
    return [next(done) if b else FamilyEntry("triple", field.name, g.n_vertices, max_valence(g), "coordinate",
                                             None, method="inconclusive", note=str(err))
            for g, err, b in zip(graphs, refusals, built)]


def _refusal(refuse, *args) -> Exception | None:
    """What ``refuse(*args)`` raises of a budget or of enumeration, or None."""
    try:
        refuse(*args)
    except (BudgetError, LinalgError) as err:
        return err
    return None


def _triple_run(triples: list, budgets: Budgets, refusals: list | None = None) -> list[FamilyEntry]:
    """The entries of a run of triples of one field and dim V, given their
    exhaustive scans' refusals (by default :func:`refuse_exhaustive`'s, made
    here): a refused triple's entry is inconclusive, and the others are
    scanned in one call, as stacks."""
    pts = [getattr(t, "pairing", t) for t in triples]
    if refusals is None:
        refusals = [_refusal(refuse_exhaustive, pt.field, pt.dim_v, pt.dim_w, budgets) for pt in pts]
    scanned = [pt for pt, err in zip(pts, refusals) if err is None]
    reports = iter(cheeger_constants(scanned, "exhaustive", budgets))
    return [_triple_entry(pt, budgets, next(reports) if err is None else err) for pt, err in zip(pts, refusals)]


def _triple_entry(pt, budgets: Budgets, found) -> FamilyEntry:
    """A triple's entry, from its exhaustive scan's report or refusal."""
    entry = partial(FamilyEntry, "triple", pt.field.name, pt.dim_v, *_q_valence(pt, budgets))
    if isinstance(found, Exception):
        return entry(None, method="inconclusive", note=str(found))
    if found.value is None:
        return entry(None, method="undefined", note="dim V < 2")
    return entry(found.value, method="exact")


def _q_valence(t, budgets: Budgets) -> tuple[int, str]:
    """The exhaustive q-valence within budget and over a prime field, else
    the coordinate value, which is exact for cup-product triples; with the
    method used."""
    try:
        return q_valence_exhaustive(t, budgets), "exhaustive"
    except (BudgetError, LinalgError):
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
    return {
        "label": _label(graph),
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

    Each isomorphism class is checked once, on its first graph: every graph
    after it takes that record under its own label, on trust that the
    record's values are invariant under relabeling, as a relabeling of the
    graph is an isomorphism of its triple.  ``tests/`` checks that trust
    against the per-graph map.  The first graphs of one vertex count are
    scanned as stacks (:func:`~raagcheeger.pairing.cheeger_constants`), and
    the refusals of every scan come before any triple is built.
    """
    def refuse(n: int, m: int) -> None:
        # the graph scan's, the exhaustive scan's and the coordinate scan's,
        # none of which refuses a graph on fewer than 2 vertices
        if n >= 2:
            budgets.check_subsets(n)
            refuse_exhaustive(field, n, m, budgets)
            budgets.check_coordinates(n)

    items = _per_class(partial(_verify_theorem_run, field=field, budgets=budgets), graphs, jobs, refuse)
    return VerificationRecord("main-theorem", field.name, items)


def _verify_theorem_run(graphs: list[SimplicialGraph], field: Field, budgets: Budgets) -> list[dict]:
    """The items of a run of graphs of one vertex count, whose triples are
    scanned in one call per method, as stacks."""
    triples = [build_triple(g, field) for g in graphs]
    exhaustive = cheeger_constants(triples, "exhaustive", budgets)
    coordinate = cheeger_constants(triples, "coordinate", budgets)
    return [_theorem_item(*scanned, budgets) for scanned in zip(graphs, triples, exhaustive, coordinate)]


def _theorem_item(graph: SimplicialGraph, triple, exh, coord, budgets: Budgets) -> dict:
    n = graph.n_vertices
    h_graph = _exact_or_none(graph, budgets)
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
    flips from true to false.  Unlike the other checks this one runs on
    every graph, not once per isomorphism class: the pivot is a fixed vertex
    index, so only the relabelings that fix it preserve the values.  The
    triples of the graphs of one vertex count and their augmentations are
    scanned as stacks, and the refusals come before any triple is built,
    as in :func:`verify_main_theorem`."""
    if field is None:
        field = Field.gf(2)

    def refuse(n: int, m: int) -> None:
        check_pivot(n, pivot)
        refuse_exhaustive(field, n, m, budgets)
        refuse_exhaustive(field, n, 1, budgets)

    worker = partial(_verify_augmentation_run, field=field, pivot=pivot, budgets=budgets)
    items = _per_class(worker, graphs, jobs, refuse, lambda gs: range(len(gs)))
    return VerificationRecord("augmentation", field.name, items)


def _verify_augmentation_run(
    graphs: list[SimplicialGraph], field: Field, pivot: int, budgets: Budgets
) -> list[dict]:
    """The items of a run of graphs of one vertex count, whose triples and
    their augmentations are scanned together, in one call, as stacks."""
    triples = [build_triple(g, field) for g in graphs]
    augmented = [augment_triple(t, pivot) for t in triples]
    h = [r.value for r in cheeger_constants(triples + augmented, "exhaustive", budgets)]
    return [_augmentation_item(*found) for found in zip(graphs, triples, augmented, h, h[len(graphs) :])]


def _augmentation_item(graph: SimplicialGraph, triple, augmented, h_orig, h_aug) -> dict:
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
    cohomology triple agree across every listed field.  Each isomorphism
    class is checked once, on trust of relabeling invariance, and scanned
    in stacks, as in :func:`verify_main_theorem`."""
    if not fields:
        raise ValueError("field_invariance_check needs at least one field")
    fields = tuple(fields)

    def refuse(n: int, m: int) -> None:
        for f in fields:
            refuse_exhaustive(f, n, m, budgets)

    worker = partial(_verify_invariance_run, fields=fields, budgets=budgets)
    names = "+".join(f.name for f in fields)
    return VerificationRecord("field-invariance", names, _per_class(worker, graphs, jobs, refuse))


def _verify_invariance_run(
    graphs: list[SimplicialGraph], fields: tuple[Field, ...], budgets: Budgets
) -> list[dict]:
    """The items of a run of graphs of one vertex count, whose triples over
    each field are scanned in one call, as stacks of that field's size."""
    h_by_field = [{} for _ in graphs]
    d_by_field = [{} for _ in graphs]
    conn_by_field = [{} for _ in graphs]
    for f in fields:
        triples = [build_triple(g, f) for g in graphs]
        for i, (triple, exh) in enumerate(zip(triples, cheeger_constants(triples, "exhaustive", budgets))):
            h_by_field[i][f.name] = exh.value
            d_by_field[i][f.name] = q_valence_coordinate(triple)
            conn_by_field[i][f.name] = pairing_connected_from_report(exh)
    return [_invariance_item(*found, fields) for found in zip(graphs, h_by_field, d_by_field, conn_by_field)]


def _invariance_item(
    graph: SimplicialGraph, h_by_field: dict, d_by_field: dict, conn_by_field: dict, fields: tuple[Field, ...]
) -> dict:
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
