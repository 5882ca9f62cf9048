"""Graph-equivalence machinery.

A random walk on a hypergraph with *edge-independent* vertex weights always
collapses to a walk on a weighted clique graph
(w(u,v) = sum over shared edges of omega(e) gamma(u) gamma(v) / delta(e)),
because such walks are time-reversible. Edge-dependent weights break
reversibility in general -- the built-in demo fixture is the smallest
witness -- so no graph on the same vertices reproduces the walk. This module
provides the collapse, reversibility and cycle-product (Kolmogorov) checks,
the non-lazy trivial-weight analogue, and the weighted clique expansion whose
Laplacian eigenvalue brackets the hypergraph's within a weight-spread factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Hypergraph,
    WeightedGraph,
    _block_scatter,
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
from .spectral import eigenvalues_symmetric, laplacian_from_walk
from .stationary import rho_normalized, stationary_direct, stationary_rho
from .walk import TransitionMatrix, nonlazy_transition_matrix, transition_matrix

__all__ = [
    "KolmogorovResult",
    "NonlazyEquivalence",
    "ReversibilityVerdict",
    "SandwichCheck",
    "clique_expansion_weights",
    "edge_independent_to_graph",
    "graph_random_walk",
    "kolmogorov_check",
    "nonlazy_trivial_equivalence",
    "reversibility",
    "sandwich_check",
]

KOLMOGOROV_VERTEX_LIMIT = 12
KOLMOGOROV_CYCLE_LIMIT = 6
# Largest |pi_u p_uv - pi_v p_vu| of a reversible chain, largest gap between
# a cycle's forward and backward products, and slack of the sandwich bracket.
REVERSIBILITY_TOL = 1e-10
KOLMOGOROV_TOL = 1e-12
SANDWICH_TOL = 1e-9


def graph_random_walk(G: WeightedGraph) -> TransitionMatrix:
    """Row-normalize the weight matrix: from u, move to v with probability
    w(u,v) / sum_z w(u,z)."""
    sums = G.weights.sum(axis=1)
    if not sums.min() > 0.0:
        raise IsolatedVertex(f"vertex {G.vertices[int(np.argmin(sums))]!r} has zero total weight")
    return TransitionMatrix(G.vertices, G.weights / sums[:, None])


def _clique_weights(H: Hypergraph, gamma: np.ndarray) -> WeightedGraph:
    """w(u,v) = sum over shared edges of omega(e) gamma(u) gamma(v) / delta(e),
    with one gamma value per (edge, member) entry; self-loops included."""
    _, delta = degrees(H)
    return WeightedGraph(H.vertices, _block_scatter(H.indptr, H.indices, gamma, gamma,
                                                    H.n_vertices, H.omega / delta))


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


@dataclass
class ReversibilityVerdict:
    reversible: bool
    worst_pair: tuple[str, str]
    violation: float  # max |pi_u p_uv - pi_v p_vu|


def reversibility(P: TransitionMatrix, pi: np.ndarray) -> ReversibilityVerdict:
    """Check pi_u p(u,v) = pi_v p(v,u) for all pairs; pi must actually be
    stationary for P."""
    pi = np.asarray(pi, dtype=float)
    if np.abs(pi @ P.matrix - pi).max() > 1e-9:
        raise NotStationary("supplied distribution is not stationary for the chain")
    flow = pi[:, None] * P.matrix
    gap = np.abs(flow - flow.T)
    u, v = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[u, v])
    if u > v:
        u, v = v, u
    return ReversibilityVerdict(
        reversible=worst <= REVERSIBILITY_TOL,
        worst_pair=(P.vertices[u], P.vertices[v]),
        violation=worst,
    )


@dataclass
class KolmogorovResult:
    holds: bool
    witness_cycle: tuple[str, ...] | None


def kolmogorov_check(P: TransitionMatrix, max_cycle_len: int = 5) -> KolmogorovResult:
    """Compare transition-probability products around every simple cycle with
    the reversed product; equality for all cycles characterizes reversibility
    without knowing pi.

    Cycles of length 2 are skipped -- both orientations multiply the same two
    factors, so they can never witness anything. The first violating cycle in
    enumeration order is returned.
    """
    n = P.n
    if n > KOLMOGOROV_VERTEX_LIMIT:
        raise SizeLimit(
            f"cycle enumeration supports at most {KOLMOGOROV_VERTEX_LIMIT} vertices, got {n}"
        )
    if max_cycle_len > KOLMOGOROV_CYCLE_LIMIT:
        raise SizeLimit(
            f"cycle length capped at {KOLMOGOROV_CYCLE_LIMIT}, got {max_cycle_len}"
        )
    M = P.matrix
    for k in range(3, max_cycle_len + 1):
        for combo in itertools.combinations(range(n), k):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                if rest[0] > rest[-1]:
                    continue  # each undirected cycle once
                cycle = (first,) + rest
                forward = 1.0
                backward = 1.0
                for i in range(k):
                    forward *= M[cycle[i], cycle[(i + 1) % k]]
                    backward *= M[cycle[i], cycle[(i - 1) % k]]
                if abs(forward - backward) > KOLMOGOROV_TOL:
                    return KolmogorovResult(
                        holds=False,
                        witness_cycle=tuple(P.vertices[i] for i in cycle),
                    )
    return KolmogorovResult(holds=True, witness_cycle=None)


@dataclass
class NonlazyEquivalence:
    graph: WeightedGraph
    max_dev: float


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
    G = WeightedGraph(H.vertices, W)
    dev = float(np.abs(P.matrix - graph_random_walk(G).matrix).max())
    return NonlazyEquivalence(graph=G, max_dev=dev)


@dataclass
class SandwichCheck:
    graph: WeightedGraph  # clique expansion of rho_normalized(H); its walk shares H's pi
    lam_h: float
    lam_g: float
    c: float
    holds: bool
    pi_dev: float  # max |pi(graph walk) - pi(hypergraph walk)|


def sandwich_check(H: Hypergraph) -> SandwichCheck:
    """Bracket check (1/c) lam_H <= lam_G <= c * lam_H for the second-smallest
    Laplacian eigenvalues of H and of its rho-rescaled clique expansion.

    c is the worst per-vertex spread of the rescaled weights over *incident*
    edges (weights of edges not containing v are zero and excluded). The
    rho solve and the walk matrix of H are each computed once and shared.
    """
    rho = stationary_rho(H)
    Hn = rho_normalized(H, rho)
    P_h = transition_matrix(H)
    lam_h = float(eigenvalues_symmetric(laplacian_from_walk(P_h, rho.pi).L)[1])

    G = clique_expansion_weights(Hn)
    P_g = graph_random_walk(G)
    pi_g = stationary_direct(P_g).pi
    lam_g = float(eigenvalues_symmetric(laplacian_from_walk(P_g, pi_g).L)[1])

    vptr, order = _vertex_major(Hn)
    g = Hn.gamma[order]
    c = float((np.maximum.reduceat(g, vptr[:-1]) / np.minimum.reduceat(g, vptr[:-1])).max())

    pi_h = stationary_direct(P_h).pi
    pi_dev = float(np.abs(pi_g - pi_h).max())
    holds = (lam_h / c - SANDWICH_TOL) <= lam_g <= (c * lam_h + SANDWICH_TOL)
    return SandwichCheck(graph=G, lam_h=lam_h, lam_g=lam_g, c=c, holds=holds,
                         pi_dev=pi_dev)
