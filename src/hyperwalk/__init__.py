"""Random walks, stationary distributions, Laplacians, and spectral bounds
for hypergraphs with per-edge (edge-dependent) vertex weights, plus a
rank-aggregation pipeline built on them.
"""

__version__ = "0.1.0"

from .errors import (
    BadBeta,
    ConvergenceFailure,
    DisconnectedHypergraph,
    DuplicateVertex,
    ElementMismatch,
    EmptyEdge,
    HyperwalkError,
    IsolatedVertex,
    MalformedInput,
    NonPositiveWeight,
    NotEdgeIndependent,
    NotStationary,
    NotSymmetric,
    NotTrivialWeights,
    ScoreOverflow,
    SingletonEdge,
    SingularSystem,
    SizeLimit,
    UnknownVertex,
    Unmixed,
)
from .core import (
    Hypergraph,
    WeightedGraph,
    build_hypergraph,
    degrees,
    delta_normalized,
    demo_hypergraph,
    dumps_json,
    edge_independent_gamma,
    from_text,
    has_trivial_weights,
    loads_json,
    read_hypergraph,
    rescale_edges,
    to_json_dict,
    to_text,
)
from .walk import (
    PRNG_ALGORITHM,
    TransitionMatrix,
    nonlazy_transition_matrix,
    restart_matrix,
    simulate,
    transition_matrix,
)
from .stationary import (
    StationaryResult,
    naive_stationary,
    rho_normalized,
    stationary_direct,
    stationary_edge_independent,
    stationary_rho,
    stationary_walk,
)
from .spectral import (
    CheegerCheck,
    CheegerResult,
    HypergraphLaplacian,
    MixingBound,
    SpectralReport,
    check_cheeger,
    cheeger_constant,
    eigenvalues_symmetric,
    eigh_symmetric,
    empirical_mixing_time,
    laplacian,
    laplacian_from_walk,
    mixing_time_bound,
    spectral_report,
)
from .reduction import (
    KolmogorovResult,
    NonlazyEquivalence,
    ReversibilityVerdict,
    SandwichCheck,
    clique_expansion_weights,
    edge_independent_to_graph,
    graph_random_walk,
    kolmogorov_check,
    nonlazy_trivial_equivalence,
    reversibility,
    sandwich_check,
)
from .rankagg import (
    ExperimentResult,
    MatchData,
    RankingResult,
    experiment,
    generate,
    kendall_tau,
    rank_clique,
    rank_hypergraph,
    rank_mc3,
)
