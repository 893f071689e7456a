"""Steklov spectra of weighted graphs with boundary.

Computes the Dirichlet-to-Neumann (Steklov) operator of a finite weighted
graph with boundary as a Schur complement of the weighted Laplacian, its
spectrum as a mass-weighted symmetric eigenproblem, lower bounds for the
first nonzero eigenvalue, and the exact structural characterization of the
graphs attaining equality (combs over a unique minimum-weight geodesic).
"""

from .bounds import (
    BoundReport,
    bound_report,
    boundary_quantities,
    has_boundary_edge,
)
from .corpus import (
    CorpusSpec,
    ViolationRecord,
    check_instance,
    count_exhaustive_instances,
    iter_violations,
    random_graph,
    verify_corpus,
)
from .graph import (
    DisconnectedGraphError,
    EmptyBoundaryError,
    GeodesicLimitError,
    GraphError,
    WeightedBoundaryGraph,
    all_geodesics,
    boundary_vector,
    graph_from_arrays,
    graph_to_json,
    graph_to_json_dict,
    hop_distance_matrix,
    is_connected,
    make_graph,
    parse_graph,
)
from .rigidity import (
    CombDecomposition,
    PathWitness,
    RigidityReport,
    ToothSet,
    check_rigidity,
    comb_graph,
    is_comb_over,
    random_comb,
    report_json,
)
from .spectral import (
    NumericsError,
    Spectrum,
    SteklovSystem,
    harmonic_extension,
    laplacian,
    steklov_spectrum,
    steklov_system,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CombDecomposition",
    "CorpusSpec",
    "DisconnectedGraphError",
    "EmptyBoundaryError",
    "GeodesicLimitError",
    "GraphError",
    "NumericsError",
    "PathWitness",
    "RigidityReport",
    "Spectrum",
    "SteklovSystem",
    "ToothSet",
    "ViolationRecord",
    "WeightedBoundaryGraph",
    "all_geodesics",
    "bound_report",
    "boundary_quantities",
    "boundary_vector",
    "check_instance",
    "check_rigidity",
    "comb_graph",
    "count_exhaustive_instances",
    "graph_from_arrays",
    "graph_to_json",
    "graph_to_json_dict",
    "harmonic_extension",
    "has_boundary_edge",
    "hop_distance_matrix",
    "is_comb_over",
    "is_connected",
    "iter_violations",
    "laplacian",
    "make_graph",
    "parse_graph",
    "random_comb",
    "random_graph",
    "report_json",
    "steklov_spectrum",
    "steklov_system",
    "verify_corpus",
]
