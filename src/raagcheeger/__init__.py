"""Exact Cheeger constants for finite simplicial graphs and for the
cup-product pairing triples of their right-angled Artin groups, with
exhaustive oracles that machine-verify the dictionary between the two."""

from .budgets import DEFAULT_BUDGETS, BudgetError, Budgets, gaussian_binomial
from .fields import GF2, GF3, GF5, QQ, Field, FieldError
from .graphs import (
    CheegerUndefinedError,
    GraphCheegerResult,
    GraphError,
    SimplicialGraph,
    boundary,
    cheeger_graph_exact,
    cheeger_of_subset,
    complete,
    cycle,
    edgeless,
    is_connected,
    labeled_graphs,
    margulis_like,
    max_valence,
    path,
    random_regular,
    spectral_cheeger_bounds,
    star,
)
from .linalg import LinalgError, Subspace, enumerate_subspaces
from .pairing import (
    CheegerReport,
    PairingError,
    PairingTriple,
    augment_triple,
    cheeger_constant_coordinate,
    cheeger_constant_exhaustive,
    cheeger_of_subspace,
    is_alternating,
    is_pairing_connected_exhaustive,
    q_valence_coordinate,
    q_valence_exhaustive,
)
from .raag import RaagTriple, build_triple, max_centralizer_rank
from .family import (
    FamilyEntry,
    FamilyReport,
    VerificationRecord,
    field_invariance_check,
    graph_family_report,
    triple_family_report,
    verify_augmentation,
    verify_main_theorem,
)

__version__ = "0.1.0"
