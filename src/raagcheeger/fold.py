"""The order-preserving fold of the verifiers and the triple reports.

The inputs of one shape go to ``jobs`` workers, each a run of consecutive
inputs that it scans whole, in stacks that
:func:`~raagcheeger.pairing.cheeger_constants` cuts, and the results come
back in input order, so output is identical for any degree of
parallelism.  The verifiers fold once per key of their graphs, the
isomorphism class by default, and make every scan's refusals before any
work.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .graphs import SimplicialGraph
from .isomorphism import class_keys


def _label(graph: SimplicialGraph) -> str:
    edges = ";".join(f"{u}-{v}" for u, v in graph.edges)
    return f"n={graph.n_vertices}[{edges}]"


def _shapes(graphs: Iterable[SimplicialGraph]) -> list[tuple[int, int]]:
    """Each (vertex count, 1 if there is an edge else 0) of the graphs, once,
    in input order: all a triple's scans read of it before any work."""
    return list(dict.fromkeys((g.n_vertices, min(g.n_edges, 1)) for g in graphs))


def _per_class(
    worker: Callable, graphs: Iterable[SimplicialGraph], jobs: int, refuse: Callable, keys: Callable = class_keys
) -> tuple[dict, ...]:
    """``worker``'s item for each graph, in input order, computed once per
    key of ``keys(graphs)``, by default the isomorphism class, on the key's
    first graph and given to every graph of the key under the graph's own
    label.  ``refuse(n, m)`` makes the refusals of each first graph's scans,
    in input order, before any work.  The first graphs of each vertex count
    n go to ``worker`` in runs (:func:`_runs`)."""
    graphs = list(graphs)
    keyed = keys(graphs)
    first = {}
    for g, key in zip(graphs, keyed):
        first.setdefault(key, g)
    for n, m in _shapes(first.values()):
        refuse(n, m)
    items = dict(zip(first, _runs(worker, list(first.values()), jobs, lambda g: g.n_vertices)))
    return tuple({**items[key], "label": _label(g)} for g, key in zip(graphs, keyed))


def _runs(worker: Callable, inputs: list, jobs: int, shape: Callable) -> list:
    """``worker``'s result for each of the inputs, in input order.  The
    inputs of each ``shape``, in input order, are split into ``jobs`` runs
    of consecutive inputs, one each where there are fewer, and ``jobs``
    maps ``worker`` over the runs, so that every worker gets one whole run."""
    by_shape = {}
    for i, x in enumerate(inputs):
        by_shape.setdefault(shape(x), []).append(i)
    runs = []
    for group in by_shape.values():
        step = -(-len(group) // max(jobs, 1))
        runs += [group[i : i + step] for i in range(0, len(group), step)]
    found = _pmap(worker, [[inputs[i] for i in run] for run in runs], jobs)
    results = [None] * len(inputs)
    for run, done in zip(runs, found):
        for i, result in zip(run, done):
            results[i] = result
    return results


def _pmap(fn: Callable, items: list, jobs: int) -> list:
    """Order-preserving map, optionally across processes.  Results depend only
    on the inputs, never on the worker count."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # here, so that a call that starts no pool never imports it

    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (jobs * 4)))
