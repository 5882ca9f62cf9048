"""Graph-equivalence machinery.

A random walk on a hypergraph with *edge-independent* vertex weights always
collapses to a walk on a weighted clique graph
(w(u,v) = sum over shared edges of omega(e) gamma(u) gamma(v) / delta(e)),
because such walks are time-reversible. Edge-dependent weights break
reversibility in general -- the built-in demo fixture is the smallest
witness -- so no graph on the same vertices reproduces the walk. This module
provides the collapse and reversibility checks, the non-lazy trivial-weight
analogue, and the weighted clique expansion whose Laplacian eigenvalue
brackets the hypergraph's within a weight-spread factor.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Hypergraph,
    WeightedGraph,
    _block_scatter,
    _Record,
    _vertex_major,
    degrees,
    edge_independent_gamma,
    has_trivial_weights,
)
from .errors import (
    IsolatedVertex,
    NotEdgeIndependent,
    NotStationary,
    NotTrivialWeights,
    SizeLimit,
)
from .spectral import _walk_laplacian, eigenvalues_symmetric
from .stationary import RESIDUAL_TOL, _residual, _rho_scaled, stationary_rho
from .walk import (TransitionMatrix, _check_size, _lazy_factors, nonlazy_transition_matrix,
                   transition_matrix)

__all__ = [
    "NonlazyEquivalence",
    "ReversibilityVerdict",
    "SandwichCheck",
    "clique_expansion_weights",
    "edge_independent_to_graph",
    "graph_random_walk",
    "nonlazy_trivial_equivalence",
    "reversibility",
    "sandwich_check",
]

# Largest |pi_u p_uv - pi_v p_vu| of a reversible chain, and slack of the
# sandwich bracket.
REVERSIBILITY_TOL = 1e-10
SANDWICH_TOL = 1e-9


def graph_random_walk(G: WeightedGraph) -> TransitionMatrix:
    """Row-normalize the weight matrix: from u, move to v with probability
    w(u,v) / sum_z w(u,z)."""
    return TransitionMatrix._over(G, _row_normalized(G.weights, G.vertices))


def _row_normalized(W: np.ndarray, vertices: tuple, out=None) -> np.ndarray:
    """W divided by its row sums, into `out` when given; a row that sums to
    0 is IsolatedVertex, naming its vertex."""
    sums = W.sum(axis=1)
    if not sums.min() > 0.0:
        raise IsolatedVertex(f"vertex {vertices[int(np.argmin(sums))]!r} has zero total weight")
    return np.divide(W, sums[:, None], out=out)


def _clique_weights(H: Hypergraph, gamma: np.ndarray, scale=None) -> WeightedGraph:
    """w(u,v) = sum over shared edges of scale(e) gamma(u) gamma(v), one gamma per
    (edge, member) entry, scale omega(e) / delta(e) by default; self-loops included."""
    _check_size(H.n_vertices)
    if scale is None:
        scale = _clique_scale(H.omega, degrees(H)[1])
    with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0: WeightedGraph names it
        W = _block_scatter(H.indptr, H.indices, gamma, gamma, H.n_vertices, scale)
    return WeightedGraph._over(H, W)


def _clique_scale(omega: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per edge, the scale omega(e) / delta(e) of its clique weight terms."""
    with np.errstate(over="ignore"):  # a subnormal delta: the weights are not finite
        return omega / delta


def edge_independent_to_graph(H: Hypergraph) -> WeightedGraph:
    """Weighted clique graph whose walk equals the hypergraph walk; requires
    edge-independent vertex weights. Self-loops included."""
    gamma = edge_independent_gamma(H)
    if gamma is None:
        raise NotEdgeIndependent("vertex weights differ across incident edges")
    return _clique_weights(H, gamma[H.indices])


def clique_expansion_weights(H: Hypergraph) -> WeightedGraph:
    """Weighted clique expansion on H's current vertex weights:
    w(u,v) = sum over shared edges of omega(e) gamma_e(u) gamma_e(v) / delta(e),
    self-loops included."""
    return _clique_weights(H, H.gamma)


class ReversibilityVerdict(_Record):
    reversible: bool
    worst_pair: tuple[str, str]
    violation: float  # max |pi_u p_uv - pi_v p_vu|
    __slots__ = tuple(__annotations__)


def reversibility(P: TransitionMatrix, pi: np.ndarray) -> ReversibilityVerdict:
    """Check pi_u p(u,v) = pi_v p(v,u) for all pairs. pi must have one entry
    per vertex (else ValueError) and be a stationary distribution of P: finite,
    nonnegative, summing to 1 and with max|pi P - pi| at most RESIDUAL_TOL
    (else NotStationary, naming which)."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (P.n,):
        raise ValueError(f"pi has shape {pi.shape}; the chain has {P.n} vertices")
    if not np.isfinite(pi).all():
        raise NotStationary("supplied distribution is not finite")
    if pi.min() < 0.0:
        raise NotStationary("supplied distribution has a negative entry")
    total = float(pi.sum())
    if not abs(total - 1.0) <= RESIDUAL_TOL:
        raise NotStationary(f"supplied distribution sums to {total!r}, not 1")
    if not _residual(pi, P) <= RESIDUAL_TOL:
        raise NotStationary("supplied distribution is not stationary for the chain")
    flow = pi[:, None] * P.matrix
    gap = np.abs(flow - flow.T)
    # gap is exactly symmetric and argmax takes the first maximum in row-major
    # order, so u <= v
    u, v = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[u, v])
    return ReversibilityVerdict(
        reversible=worst <= REVERSIBILITY_TOL,
        worst_pair=(P.vertices[u], P.vertices[v]),
        violation=worst,
    )


class NonlazyEquivalence(_Record):
    graph: WeightedGraph
    max_dev: float
    __slots__ = tuple(__annotations__)


def nonlazy_trivial_equivalence(H: Hypergraph) -> NonlazyEquivalence:
    """For trivial weights, the non-lazy walk equals a walk on the clique
    graph without self-loops with w(u,v) = sum over shared edges of
    omega(e) / (|e| - 1); returns that graph and the max deviation between
    the two transition matrices."""
    if not has_trivial_weights(H):
        raise NotTrivialWeights("non-lazy equivalence applies to all-ones vertex weights")
    P = nonlazy_transition_matrix(H)  # raises SingletonEdge for one-member edges
    ones = np.ones(len(H.indices))
    W = _block_scatter(H.indptr, H.indices, ones, ones, H.n_vertices,
                       H.omega / (np.diff(H.indptr) - 1))
    np.fill_diagonal(W, 0.0)  # no self-loops
    G = WeightedGraph._over(H, W)
    dev = float(np.abs(P.matrix - graph_random_walk(G).matrix).max())
    return NonlazyEquivalence(graph=G, max_dev=dev)


class SandwichCheck(_Record):
    graph: WeightedGraph  # sum of omega(e) rho_e g_e(u) g_e(v), g = gamma / delta; shares H's pi
    lam_h: float
    lam_g: float
    c: float
    holds: bool
    pi_dev: float  # max |pi(graph walk) - pi(hypergraph walk)|
    __slots__ = tuple(__annotations__)


def sandwich_check(H: Hypergraph) -> SandwichCheck:
    """Bracket check (1/c) lam_H <= lam_G <= c * lam_H for the second-smallest
    Laplacian eigenvalues of H and of its rho-rescaled clique expansion.

    c is the worst per-vertex spread of the rescaled weights
    (``stationary._rho_scaled``) over *incident* edges. The stationary solve
    and the walk matrix of H are each computed once and shared. Fewer than 2
    vertices have no second eigenvalue, and more than DENSE_SIZE_LIMIT no
    dense walk matrix: SizeLimit, before any solve. Only
    the plain Laplacians are formed, so a graph vertex whose stationary mass
    rounds to 0 causes no division by 0.
    """
    if H.n_vertices < 2:
        raise SizeLimit(f"the sandwich check needs at least 2 vertices, got {H.n_vertices}")
    _check_size(H.n_vertices)
    rho = stationary_rho(H)
    P_h = transition_matrix(H)
    lam_h = float(eigenvalues_symmetric(_walk_laplacian(P_h, rho.pi))[1])

    G = _clique_weights(H, _lazy_factors(H)[1], H.omega * rho.rho)
    P_g = graph_random_walk(G)
    degree = G.weights.sum(axis=1)  # a graph walk is reversible: pi is degree / volume
    pi_g = degree / degree.sum()
    lam_g = float(eigenvalues_symmetric(_walk_laplacian(P_g, pi_g))[1])

    vptr, order = _vertex_major(H)
    r = _rho_scaled(H)[order]
    c = float((np.maximum.reduceat(r, vptr[:-1]) / np.minimum.reduceat(r, vptr[:-1])).max())

    pi_dev = float(np.abs(pi_g - rho.pi).max())
    holds = (lam_h / c - SANDWICH_TOL) <= lam_g <= (c * lam_h + SANDWICH_TOL)
    return SandwichCheck(graph=G, lam_h=lam_h, lam_g=lam_g, c=c, holds=holds,
                         pi_dev=pi_dev)
