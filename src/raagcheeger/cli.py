"""Command-line front door: parse graphs and triples, run the computations
and verification suites, emit JSON/CSV/human output.

Exit codes: 0 on success with all checks passed, 1 when a verification ran
and failed, 2 on usage, parse, or budget errors.  All output is deterministic
for a fixed invocation, including under --jobs parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .budgets import BudgetError, Budgets
from .fields import Field, FieldError
from .graphs import (
    GraphError,
    SimplicialGraph,
    cheeger_graph_exact,
    cycle,
    complete,
    edgeless,
    labeled_graphs,
    margulis_like,
    path,
    random_regular,
    star,
)
from .linalg import LinalgError
from .pairing import (
    PairingError,
    PairingTriple,
    augment_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    is_pairing_connected_exhaustive,
    q_valence_coordinate,
    q_valence_exhaustive,
)
from .family import (
    field_invariance_check,
    graph_family_report,
    triple_family_report,
    verify_augmentation,
    verify_main_theorem,
)
from .raag import RaagTriple, build_triple

_USAGE_ERRORS = (GraphError, FieldError, PairingError, LinalgError, BudgetError)


# -- I/O helpers ---------------------------------------------------------------


def _one_input(args: argparse.Namespace) -> str:
    if not args.input:
        raise GraphError(f"command {args.command!r} needs exactly one --input file")
    return args.input[0]


def _load_graph(path_str: str) -> SimplicialGraph:
    text = Path(path_str).read_text()
    if text.lstrip().startswith("{"):
        return SimplicialGraph.from_json_dict(json.loads(text))
    return SimplicialGraph.from_edgelist(text)


def _load_triple(path_str: str):
    data = json.loads(Path(path_str).read_text())
    if "source_graph" in data:
        return RaagTriple.from_json_dict(data)
    return PairingTriple.from_json_dict(data)


def _human_lines(payload, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_human_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_human_scalar(v)}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.extend(_human_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_human_scalar(v)}")
    else:
        lines.append(f"{indent}{_human_scalar(payload)}")
    return lines


def _human_scalar(v) -> str:
    if isinstance(v, float):
        return f"{v!r} (bound)"
    return str(v)


def _emit(args: argparse.Namespace, payload: dict, to_csv: Callable[[], str] | None = None) -> None:
    if args.format == "csv":
        sys.stdout.write(to_csv())
    elif args.format == "human":
        print("\n".join(_human_lines(payload)))
    else:
        print(json.dumps(payload, indent=2))


# the keys, in this order, are the --family choices
_FAMILIES = {
    "cycle": cycle,
    "path": path,
    "complete": complete,
    "star": star,
    "edgeless": edgeless,
    "random-regular": random_regular,
    "margulis": margulis_like,
}


def _family_graph(name: str, size: int, degree: int | None, seed: int) -> SimplicialGraph:
    if name != "random-regular":
        return _FAMILIES[name](size)
    if degree is None:
        raise GraphError("--family random-regular needs --degree")
    return random_regular(size, degree, seed)


def _family_graphs(args: argparse.Namespace) -> list[SimplicialGraph]:
    return [
        _family_graph(args.family, size, args.degree, args.seed + pos)
        for pos, size in enumerate(args.sizes)
    ]


def _resolve_graphs(args: argparse.Namespace) -> list[SimplicialGraph]:
    all_graphs = getattr(args, "all_graphs", None)
    if sum(1 for flag in (args.input, all_graphs, args.family) if flag) != 1:
        raise GraphError("give exactly one of --input, --all-graphs, or --family/--sizes")
    if args.input:
        return [_load_graph(p) for p in args.input]
    if all_graphs:
        return list(labeled_graphs(all_graphs))
    return _family_graphs(args)


# -- command handlers ----------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    graph = _family_graph(args.family, args.size, args.degree, args.seed)
    if args.format == "edgelist":
        sys.stdout.write(graph.to_edgelist())
    else:
        print(json.dumps(graph.to_json_dict(), indent=2))
    return 0


def _cmd_graph_h(args: argparse.Namespace) -> int:
    graph = _load_graph(_one_input(args))
    _emit(args, cheeger_graph_exact(graph, args.budgets).to_json_dict())
    return 0


def _cmd_triple_h(args: argparse.Namespace) -> int:
    triple = _load_triple(_one_input(args))
    if args.method == "coordinate":
        report = cheeger_constant_coordinate(triple, args.budgets)
    else:
        report = cheeger_constant_exhaustive(triple, args.budgets)
    _emit(args, report.to_json_dict())
    return 0


def _cmd_qvalence(args: argparse.Namespace) -> int:
    triple = _load_triple(_one_input(args))
    if args.method == "coordinate":
        value = q_valence_coordinate(triple)
    else:
        value = q_valence_exhaustive(triple, args.budgets)
    _emit(args, {"q_valence": value, "method": args.method})
    return 0


def _cmd_connectedness(args: argparse.Namespace) -> int:
    triple = _load_triple(_one_input(args))
    _emit(args, {"pairing_connected": is_pairing_connected_exhaustive(triple, args.budgets)})
    return 0


def _cmd_build_triple(args: argparse.Namespace) -> int:
    graph = _load_graph(_one_input(args))
    _emit(args, build_triple(graph, args.field).to_json_dict())
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    triple = _load_triple(_one_input(args))
    _emit(args, augment_triple(triple, args.pivot).to_json_dict())
    return 0


def _verified(args: argparse.Namespace, record) -> int:
    _emit(args, record.to_json_dict(verbose=args.verbose), record.to_csv)
    return 0 if record.passed else 1


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    graphs = _resolve_graphs(args)
    return _verified(args, verify_main_theorem(graphs, args.field, args.budgets, jobs=args.jobs))


def _cmd_verify_augmentation(args: argparse.Namespace) -> int:
    graphs = _resolve_graphs(args)
    record = verify_augmentation(graphs, args.field, args.pivot, args.budgets, jobs=args.jobs)
    return _verified(args, record)


def _cmd_verify_invariance(args: argparse.Namespace) -> int:
    graphs = _resolve_graphs(args)
    fields = [Field.from_name(name) for name in args.fields]
    return _verified(args, field_invariance_check(graphs, fields, args.budgets, jobs=args.jobs))


def _cmd_family_report(args: argparse.Namespace) -> int:
    graphs = _resolve_graphs(args)
    if args.kind == "triple":
        triples = [build_triple(g, args.field) for g in graphs]
        report = triple_family_report(triples, args.budgets, args.valence_bound, jobs=args.jobs)
    else:
        report = graph_family_report(graphs, args.mode, args.budgets, args.valence_bound, jobs=args.jobs)
    _emit(args, report.to_json_dict(), report.to_csv)
    return 0


# -- parser --------------------------------------------------------------------


def _common_args(p: argparse.ArgumentParser, fmt=("json", "human"), inputs: int | None = 1):
    if inputs == 1:
        p.add_argument("--input", nargs=1, help="input file")
    elif inputs == -1:
        p.add_argument("--input", nargs="+", help="input files")
    p.add_argument("--field", default="gf2", help="gf<p> or rational (default gf2)")
    p.add_argument("--budget-subsets", type=int, default=None, metavar="N")
    p.add_argument("--budget-subspaces", type=int, default=None, metavar="N")
    p.add_argument("--budget-bases", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=fmt, default="json")
    p.add_argument("--jobs", type=int, default=1)


def _family_source_args(p: argparse.ArgumentParser, all_graphs: bool = True):
    if all_graphs:
        p.add_argument("--all-graphs", type=int, metavar="N",
                       help="every labeled graph on N vertices")
    p.add_argument("--family", choices=list(_FAMILIES))
    p.add_argument("--sizes", type=int, nargs="+", default=[])
    p.add_argument("--degree", type=int, default=None)


def _gen_args(p: argparse.ArgumentParser):
    _common_args(p, fmt=("json", "edgelist"), inputs=None)
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)


def _method_args(p: argparse.ArgumentParser):
    _common_args(p)
    p.add_argument("--method", choices=["exhaustive", "coordinate"], default="exhaustive")


def _augment_args(p: argparse.ArgumentParser):
    _common_args(p)
    p.add_argument("--pivot", type=int, default=0)


def _verify_theorem_args(p: argparse.ArgumentParser):
    _common_args(p, fmt=("json", "csv", "human"), inputs=-1)
    _family_source_args(p)
    p.add_argument("--verbose", action="store_true", help="list every item, not just failures")


def _verify_augmentation_args(p: argparse.ArgumentParser):
    _common_args(p, fmt=("json", "csv", "human"), inputs=-1)
    _family_source_args(p, all_graphs=False)
    p.add_argument("--pivot", type=int, default=0)
    p.add_argument("--verbose", action="store_true")


def _verify_invariance_args(p: argparse.ArgumentParser):
    _common_args(p, fmt=("json", "csv", "human"), inputs=-1)
    _family_source_args(p)
    p.add_argument("--fields", nargs="+", default=["gf2", "gf3", "gf5"])
    p.add_argument("--verbose", action="store_true")


def _family_report_args(p: argparse.ArgumentParser):
    _common_args(p, fmt=("json", "csv", "human"), inputs=-1)
    _family_source_args(p, all_graphs=False)
    p.add_argument("--kind", choices=["graph", "triple"], default="graph")
    p.add_argument("--mode", choices=["exact", "spectral"], default="exact")
    p.add_argument("--valence-bound", type=int, default=None)


# (name, help, handler, arguments), in the order --help lists them
_COMMANDS = (
    ("gen", "generate a graph from a named family", _cmd_gen, _gen_args),
    ("graph-h", "exact graph Cheeger constant", _cmd_graph_h, _common_args),
    ("triple-h", "Cheeger constant of a pairing triple", _cmd_triple_h, _method_args),
    ("qvalence", "q-valence of a pairing triple", _cmd_qvalence, _method_args),
    ("connectedness", "pairing-connectedness of a triple", _cmd_connectedness, _common_args),
    ("build-triple", "cup-product triple of a graph", _cmd_build_triple, _common_args),
    ("augment", "pivot augmentation of a triple", _cmd_augment, _augment_args),
    ("verify-theorem", "machine-check the dictionary on graphs",
     _cmd_verify_theorem, _verify_theorem_args),
    ("verify-augmentation", "check the pivot augmentation on graphs",
     _cmd_verify_augmentation, _verify_augmentation_args),
    ("verify-invariance", "check field independence on graphs",
     _cmd_verify_invariance, _verify_invariance_args),
    ("family-report", "per-index expander bookkeeping", _cmd_family_report, _family_report_args),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only its
    subparser is registered, since parsing a command line that starts with it
    reads no other; the metavar keeps the usage line listing every command.
    Otherwise every subparser is registered with its arguments."""
    parser = argparse.ArgumentParser(
        prog="raagcheeger",
        description="Exact Cheeger constants for graphs and cup-product pairing triples, "
                    "with brute-force verification of the dictionary between them.",
    )
    names = [name for name, *_ in _COMMANDS]
    known = command in names
    # on the full path a metavar would reword the errors of an unknown or
    # missing command, so it is set only where one subparser is registered
    metavar = {"metavar": "{" + ",".join(names) + "}"} if known else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name, help_text, handler, arguments in _COMMANDS:
        if not known or name == command:
            p = sub.add_parser(name, help=help_text)
            arguments(p)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # every command parses --field and the budgets, before any input is read
        args.field = Field.from_name(args.field)
        given = {
            "subset_vertices": args.budget_subsets,
            "subspace_work": args.budget_subspaces,
            "basis_work": args.budget_bases,
        }
        args.budgets = Budgets(**{name: cap for name, cap in given.items() if cap is not None})
        return args.handler(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"error: cannot read input ({err})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
