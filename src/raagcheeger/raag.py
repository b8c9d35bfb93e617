"""Cup-product cohomology triples of right-angled Artin groups.

The degree-1 cohomology of the group on a graph has a basis dual to the
vertices, degree 2 a basis dual to the edges, and the cup product of two
vertex duals is (up to sign) the dual of the edge joining them, or zero when
there is no edge.  That structure is all a triple needs, so it is assembled
directly from the graph.

Sign convention: q(v_i*, v_j*) = +e* when i < j in vertex order and -e* when
i > j.  Any consistent antisymmetric choice gives an isomorphic pairing, and
none of the computed invariants depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field
from .graphs import GraphError, SimplicialGraph, max_valence
from .pairing import ANTISYMMETRIC, PairingTriple


@dataclass(frozen=True)
class RaagTriple:
    """A pairing triple together with its graph provenance.

    dim V = number of vertices, dim W = number of edges; the distinguished
    bases are labeled by vertex and edge duals.
    """

    pairing: PairingTriple
    graph: SimplicialGraph
    vertex_basis: tuple[str, ...]
    edge_basis: tuple[str, ...]

    @property
    def field(self) -> Field:
        return self.pairing.field

    def to_json_dict(self) -> dict:
        data = self.pairing.to_json_dict()
        data["source_graph"] = self.graph.to_json_dict()
        data["vertex_basis"] = list(self.vertex_basis)
        data["edge_basis"] = list(self.edge_basis)
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "RaagTriple":
        graph = SimplicialGraph.from_json_dict(data["source_graph"])
        field = Field.from_name(data["field"])
        rebuilt = build_triple(graph, field)
        parsed = PairingTriple.from_json_dict({k: data[k] for k in ("field", "dimV", "dimW", "tensor", "symmetry")})
        if parsed != rebuilt.pairing:
            raise GraphError("triple JSON does not match the cup product of its source graph")
        return rebuilt


def build_triple(graph: SimplicialGraph, field: Field) -> RaagTriple:
    """The (H^1, H^2, cup) triple of the right-angled Artin group on the graph."""
    n = graph.n_vertices
    m = graph.n_edges
    # edge e = (i, j), i < j, puts +1 at [i, j, e] and -1 at [j, i, e]
    i, j = np.array(graph.pairs, dtype=np.intp).reshape(m, 2).T
    ints = np.zeros((n, n, m), np.int64)
    ints[i, j, np.arange(m)], ints[j, i, np.arange(m)] = 1, -1
    pairing = PairingTriple(field, n, m, ints, ANTISYMMETRIC)
    vertex_basis = tuple(f"{v}*" for v in graph.vertices)
    edge_basis = tuple(f"{u}{v}*" for u, v in graph.edges)
    return RaagTriple(pairing, graph, vertex_basis, edge_basis)


def max_centralizer_rank(graph: SimplicialGraph) -> int:
    """Largest centralizer rank over nontrivial elements: max valence + 1,
    realized on a vertex generator of maximum degree."""
    if not graph.vertices:
        raise GraphError("centralizer ranks are undefined on the empty graph")
    return max_valence(graph) + 1
