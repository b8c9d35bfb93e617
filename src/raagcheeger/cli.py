"""Command-line front door: parse graphs and triples, run the computations
and verification suites, emit JSON/CSV/human output.

Exit codes: 0 on success with all checks passed, 1 when a verification ran
and failed, 2 on usage, parse, or budget errors, and 141 (128 + SIGPIPE, the
status a shell gives a writer killed by a closed pipe) when stdout is closed
before the output is written, as by ``| head -1``; that case prints nothing
on stderr.  Each command takes only the flags it reads, so any other flag
exits 2, and so does a --jobs below 1 or above the CPU count.  All output
is deterministic for a fixed invocation and a fixed number of BLAS
threads, including under --jobs parallelism: the float spectral bounds of
``family-report`` come from BLAS products, whose last digits change with
the thread count (C240's ``cheeger_lower`` under OPENBLAS_NUM_THREADS=1
and 2).  Every exact value is independent of it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .budgets import BudgetError, Budgets, check_all_graphs, check_family_graph, check_random_regular
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
    graph_triple_family_report,
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


# the vertices of each family's graph of size n, and at most how many edges
# it has; d is the degree of random-regular
_COUNTS = {
    "cycle": lambda n, d: (n, n),
    "path": lambda n, d: (n, n - 1),
    "complete": lambda n, d: (n, n * (n - 1) // 2),
    "star": lambda n, d: (n + 1, n),
    "edgeless": lambda n, d: (n, 0),
    "random-regular": lambda n, d: (n, n * d // 2),
    "margulis": lambda n, d: (n * n, 4 * n * n),
}


def _family_graph(
    name: str, size: int, degree: int | None, seed: int, flag: str = "--size"
) -> SimplicialGraph:
    if name != "random-regular" and degree is not None:
        raise GraphError(f"--degree applies only to --family random-regular, not {name}")
    if name == "random-regular" and degree is None:
        raise GraphError("--family random-regular needs --degree")
    check_family_graph(flag, size, name, *_COUNTS[name](max(size, 0), max(degree or 0, 0)))
    if name == "random-regular":
        check_random_regular(flag, size, degree)
        return random_regular(size, degree, seed)
    return _FAMILIES[name](size)


def _family_graphs(args: argparse.Namespace) -> list[SimplicialGraph]:
    return [
        _family_graph(args.family, size, args.degree, (args.seed or 0) + pos, "--sizes")
        for pos, size in enumerate(args.sizes)
    ]


def _resolve_graphs(args: argparse.Namespace) -> list[SimplicialGraph]:
    all_graphs = getattr(args, "all_graphs", None)
    if sum(source is not None for source in (args.input, all_graphs, args.family)) != 1:
        raise GraphError("give exactly one of --input, --all-graphs, or --family/--sizes")
    if args.family is None:
        for flag in _SOURCES[1:]:
            if getattr(args, flag[2:]) is not None:
                raise GraphError(f"{flag} applies only to a --family source")
    if args.input is not None:
        return [_load_graph(p) for p in args.input]
    if all_graphs is not None:
        check_all_graphs(all_graphs)
        return list(labeled_graphs(all_graphs))
    if not args.sizes:
        raise GraphError(f"--family {args.family} needs at least one size in --sizes")
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
    # each --kind refuses the flags only the other reads
    if args.kind == "graph":
        unread = {"--field": args.field_name, "--budget-subspaces": args.budget_subspaces,
                  "--budget-bases": args.budget_bases}
    else:
        unread = {"--mode": args.mode, "--budget-subsets": args.budget_subsets}
    for flag, value in unread.items():
        if value is not None:
            raise GraphError(f"{flag} does not apply to --kind {args.kind}")
    graphs = _resolve_graphs(args)
    if args.kind == "triple":
        report = graph_triple_family_report(
            graphs, args.field, args.budgets, args.valence_bound, jobs=args.jobs)
    else:
        report = graph_family_report(
            graphs, args.mode or "exact", args.budgets, args.valence_bound, jobs=args.jobs)
    _emit(args, report.to_json_dict(), report.to_csv)
    return 0


# -- parser --------------------------------------------------------------------


# every flag but --input, --format and --jobs, defined once; each command
# takes the ones its handler reads
_FLAGS = {
    "--field": {"dest": "field_name", "metavar": "FIELD", "help": "gf<p> or rational (default gf2)"},
    "--budget-subsets": {"type": int, "metavar": "N"},
    "--budget-subspaces": {"type": int, "metavar": "N"},
    "--budget-bases": {"type": int, "metavar": "N"},
    "--method": {"choices": ["exhaustive", "coordinate"], "default": "exhaustive"},
    "--pivot": {"type": int, "default": 0},
    "--all-graphs": {"type": int, "metavar": "N", "help": "every labeled graph on N vertices"},
    "--family": {"choices": list(_FAMILIES)},
    "--sizes": {"type": int, "nargs": "+"},
    "--degree": {"type": int},
    "--seed": {"type": int},
    "--fields": {"nargs": "+", "default": ["gf2", "gf3", "gf5"]},
    "--kind": {"choices": ["graph", "triple"], "default": "graph"},
    "--mode": {"choices": ["exact", "spectral"]},
    "--valence-bound": {"type": int},
    "--verbose": {"action": "store_true", "help": "list every item, not just failures"},
}
_BUDGETS = ("--budget-subsets", "--budget-subspaces", "--budget-bases")
_SOURCES = ("--family", "--sizes", "--degree", "--seed")
_REPORT = ("json", "csv", "human")


def _args(*flags: str, inputs: int | str | None = 1, fmt=("json", "human")):
    """The arguments of a command: --input with ``inputs`` files (none when
    None), each of ``flags`` as :data:`_FLAGS` defines it, then --format and
    --jobs, which every command takes."""
    def arguments(p: argparse.ArgumentParser):
        if inputs is not None:
            p.add_argument("--input", nargs=inputs, help="input file" if inputs == 1 else "input files")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=fmt, default="json")
        p.add_argument("--jobs", type=int, default=1)
    return arguments


def _gen_args(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, **_FLAGS["--family"])
    p.add_argument("--size", type=int, required=True)
    _args("--degree", "--seed", inputs=None, fmt=("json", "edgelist"))(p)
    p.set_defaults(seed=0)


# (name, help, handler, arguments), in the order --help lists them
_COMMANDS = (
    ("gen", "generate a graph from a named family", _cmd_gen, _gen_args),
    ("graph-h", "exact graph Cheeger constant", _cmd_graph_h, _args("--budget-subsets")),
    ("triple-h", "Cheeger constant of a pairing triple", _cmd_triple_h,
     _args("--method", "--budget-subspaces")),
    ("qvalence", "q-valence of a pairing triple", _cmd_qvalence, _args("--method", "--budget-bases")),
    ("connectedness", "pairing-connectedness of a triple", _cmd_connectedness,
     _args("--budget-subspaces")),
    ("build-triple", "cup-product triple of a graph", _cmd_build_triple, _args("--field")),
    ("augment", "pivot augmentation of a triple", _cmd_augment, _args("--pivot")),
    ("verify-theorem", "machine-check the dictionary on graphs", _cmd_verify_theorem,
     _args("--field", *_BUDGETS, "--all-graphs", *_SOURCES, "--verbose", inputs="+", fmt=_REPORT)),
    ("verify-augmentation", "check the pivot augmentation on graphs", _cmd_verify_augmentation,
     _args("--field", "--budget-subspaces", *_SOURCES, "--pivot", "--verbose", inputs="+", fmt=_REPORT)),
    ("verify-invariance", "check field independence on graphs", _cmd_verify_invariance,
     _args("--budget-subspaces", "--all-graphs", *_SOURCES, "--fields", "--verbose", inputs="+",
           fmt=_REPORT)),
    ("family-report", "per-index expander bookkeeping", _cmd_family_report,
     _args("--field", *_BUDGETS, *_SOURCES, "--kind", "--mode", "--valence-bound", inputs="+",
           fmt=_REPORT)),
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
            # no abbreviations: verify-invariance would read --field as --fields
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            arguments(p)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # one worker per CPU at most, checked before any input is read or any
    # pool starts
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        print(f"error: --jobs must be between 1 and {cpus}, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        # --field and the budget flags are resolved only where a command takes
        # them, before any input is read; their given values stay on args
        if "field_name" in args:
            args.field = Field.from_name(args.field_name or "gf2")
        given = {
            "subset_vertices": getattr(args, "budget_subsets", None),
            "subspace_work": getattr(args, "budget_subspaces", None),
            "basis_work": getattr(args, "budget_bases", None),
        }
        args.budgets = Budgets(**{name: cap for name, cap in given.items() if cap is not None})
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left: stdout goes to devnull, so that the interpreter's
        # last flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"error: cannot read input ({err})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
