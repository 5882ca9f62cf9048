"""Graph-equivalence machinery: collapses, reversibility, cycle products,
and the eigenvalue bracket."""

from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    Hypergraph,
    IsolatedVertex,
    NonPositiveWeight,
    NotEdgeIndependent,
    NotStationary,
    NotTrivialWeights,
    SingletonEdge,
    SizeLimit,
    TransitionMatrix,
    WeightedGraph,
    clique_expansion_weights,
    degrees,
    edge_independent_to_graph,
    graph_random_walk,
    nonlazy_trivial_equivalence,
    reversibility,
    sandwich_check,
    stationary_direct,
    stationary_rho,
    transition_matrix,
)
from hyperwalk.core import _block_scatter
from conftest import rebuilt, rho_normalized, sweep
from exact import exact_fixed_point
from oracles import kolmogorov_check, lu_stationary


# -- graph walks ---------------------------------------------------------------

def test_triangle_graph_walk():
    W = np.ones((3, 3)) - np.eye(3)
    P = graph_random_walk(WeightedGraph(("a", "b", "c"), W))
    off = P.matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-15)
    assert np.all(np.diag(P.matrix) == 0.0)


def test_star_graph_walk():
    W = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    P = graph_random_walk(WeightedGraph(("c", "l1", "l2"), W))
    np.testing.assert_allclose(P.matrix[0], [0.0, 0.5, 0.5])
    np.testing.assert_allclose(P.matrix[1], [1.0, 0.0, 0.0])


def test_isolated_vertex():
    W = np.zeros((2, 2))
    W[0, 0] = 1.0
    with pytest.raises(IsolatedVertex, match="'b'"):
        graph_random_walk(WeightedGraph(("a", "b"), W))


# -- edge-independent collapse ------------------------------------------------------

def test_trivial_single_edge_collapse(triangle):
    G = edge_independent_to_graph(triangle)
    np.testing.assert_allclose(G.weights, 1 / 3, atol=1e-15)
    np.testing.assert_allclose(graph_random_walk(G).matrix, 1 / 3, atol=1e-15)


def test_scaled_weights_same_walk(triangle):
    doubled = Hypergraph(
        triangle.vertices,
        [(1.0, {v: 2.0 for v in "abc"})],
    )
    P1 = graph_random_walk(edge_independent_to_graph(triangle)).matrix
    P2 = graph_random_walk(edge_independent_to_graph(doubled)).matrix
    assert np.abs(P1 - P2).max() <= 1e-15


def test_collapse_matches_hypergraph_walk():
    for H in sweep(501, 30, edge_independent=True):
        P_h = transition_matrix(H).matrix
        P_g = graph_random_walk(edge_independent_to_graph(H)).matrix
        assert np.abs(P_h - P_g).max() <= 1e-12


def test_collapse_rejects_edge_dependent(h_demo):
    with pytest.raises(NotEdgeIndependent):
        edge_independent_to_graph(h_demo)


# -- reversibility -------------------------------------------------------------------

def test_edge_independent_walks_reversible():
    for H in sweep(502, 15, edge_independent=True):
        P = transition_matrix(H)
        pi = stationary_direct(P).pi
        assert reversibility(P, pi).reversible


def test_demo_not_reversible(h_demo):
    P = transition_matrix(h_demo)
    pi = lu_stationary(P)
    verdict = reversibility(P, pi)
    assert not verdict.reversible
    # the largest flow asymmetry is 1/102, attained at (v1,v4) and (v3,v4);
    # argmax lands on (v3,v4) in this arithmetic
    assert verdict.violation == pytest.approx(1 / 102, abs=1e-14)
    assert verdict.worst_pair == ("v3", "v4")
    # the classic demonstration pair (v1,v2) violates by 1/136
    gap = abs(pi[1] * P.matrix[1, 0] - pi[0] * P.matrix[0, 1])
    assert gap == pytest.approx(1 / 136, abs=1e-14)


def test_symmetric_two_state_reversible(two_vertex_edge):
    P = transition_matrix(two_vertex_edge)
    pi = stationary_direct(P).pi
    assert reversibility(P, pi).reversible


def test_reversibility_rejects_nonstationary(h_demo):
    P = transition_matrix(h_demo)
    with pytest.raises(NotStationary):
        reversibility(P, np.array([0.25, 0.25, 0.25, 0.25]))


@pytest.mark.parametrize("pi, message", [
    (np.zeros(4), "sums to 0.0"),
    (np.full(4, np.nan), "not finite"),
    (np.array([7.0, 2.0, 5.0, 3.0]) / 17 * 2, "sums to 2.0"),
    (np.array([0.5, 0.5, 0.5, -0.5]), "negative"),
])
def test_reversibility_rejects_a_non_distribution(h_demo, pi, message):
    with pytest.raises(NotStationary, match=message):
        reversibility(transition_matrix(h_demo), pi)


def test_reversibility_rejects_a_pi_of_the_wrong_length(h_demo):
    with pytest.raises(ValueError, match=r"shape \(3,\); the chain has 4 vertices"):
        reversibility(transition_matrix(h_demo), np.full(3, 1 / 3))


# -- Kolmogorov cycle products ----------------------------------------------------------

def test_kolmogorov_demo_witness(h_demo):
    P = transition_matrix(h_demo)
    res = kolmogorov_check(P, 5)
    assert not res.holds
    assert len(res.witness_cycle) == 3


def test_kolmogorov_edge_independent_holds():
    for H in sweep(503, 15, edge_independent=True):
        P = transition_matrix(H)
        assert kolmogorov_check(P, 5).holds


def test_kolmogorov_agrees_with_reversibility():
    for H in sweep(504, 15):
        P = transition_matrix(H)
        pi = stationary_direct(P).pi
        assert kolmogorov_check(P, 5).holds == reversibility(P, pi).reversible


def _cycle_walk(k: int) -> TransitionMatrix:
    """A walk on a k-cycle that steps forward with 0.7 and back with 0.3."""
    M = np.zeros((k, k))
    for i in range(k):
        M[i, (i + 1) % k], M[i, (i - 1) % k] = 0.7, 0.3
    return TransitionMatrix(list("abcde"[:k]), M)


@pytest.mark.parametrize("k", [4, 5])
def test_kolmogorov_finds_a_violation_only_on_a_long_cycle(k):
    # the walk's one cycle of length 3 or more is the whole k-cycle, 0.7^k
    # one way and 0.3^k the other: cycles up to length 5 find it, cycles up
    # to length k - 1 do not
    P = _cycle_walk(k)
    assert kolmogorov_check(P, 5).witness_cycle == tuple("abcde"[:k])
    assert kolmogorov_check(P, k - 1).holds


def test_kolmogorov_two_vertices_trivially_holds(two_vertex_edge):
    # only 2-cycles exist and those are skipped: both orientations multiply
    # the same two factors
    P = transition_matrix(two_vertex_edge)
    res = kolmogorov_check(P, 5)
    assert res.holds and res.witness_cycle is None


def test_kolmogorov_size_limits():
    names = [f"v{i}" for i in range(13)]
    H = Hypergraph(names, [(1.0, {v: 1.0 for v in names})])
    with pytest.raises(SizeLimit):
        kolmogorov_check(transition_matrix(H), 5)
    H2 = Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "b": 1.0})])
    with pytest.raises(SizeLimit):
        kolmogorov_check(transition_matrix(H2), 7)


def test_clique_expansion_size_limit():
    names = [f"v{i}" for i in range(4097)]
    H = Hypergraph(names, [(1.0, {v: 1.0 for v in names})])
    with pytest.raises(SizeLimit, match="at most 4096 vertices, got 4097"):
        clique_expansion_weights(H)


def test_clique_weight_past_the_float_range_is_named_without_a_warning():
    # every weight is finite and the weights are edge-independent, but
    # w(a, a) = 1e300 * 1e300 * 1e300 / (1e300 + 1) is about 1e600: the graph
    # names it, and the scatter's overflow raises no RuntimeWarning first
    H = Hypergraph(("a", "b", "c"), [(1e300, {"a": 1e300, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1e-300})])
    with pytest.raises(NonPositiveWeight, match="^graph weights must be finite$"):
        edge_independent_to_graph(H)


# -- non-lazy trivial equivalence ----------------------------------------------------------

def test_nonlazy_single_edge(triangle):
    eq = nonlazy_trivial_equivalence(triangle)
    off = eq.graph.weights[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-15)
    assert np.all(np.diag(eq.graph.weights) == 0.0)
    assert eq.max_dev <= 1e-12


def test_nonlazy_equivalence_sweep():
    for H in sweep(505, 30, trivial=True, min_edge_size=2):
        assert nonlazy_trivial_equivalence(H).max_dev <= 1e-12


def test_nonlazy_rejects_nontrivial(h_demo):
    with pytest.raises(NotTrivialWeights):
        nonlazy_trivial_equivalence(h_demo)


def test_nonlazy_rejects_singleton_edge():
    H = Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "b": 1.0}),
                                (1.0, {"b": 1.0})])
    with pytest.raises(SingletonEdge, match="#1"):
        nonlazy_trivial_equivalence(H)


# -- weighted clique expansion and the eigenvalue bracket -----------------------------------

def test_expansion_weights_trivial_edge(triangle):
    # raw expansion: omega * gamma_u * gamma_v / delta = 1/3 per pair
    G = clique_expansion_weights(triangle)
    np.testing.assert_allclose(G.weights, 1 / 3, atol=1e-15)


def test_expansion_equals_collapse_for_edge_independent():
    for H in sweep(506, 10, edge_independent=True):
        G1 = clique_expansion_weights(H)
        G2 = edge_independent_to_graph(H)
        assert np.abs(G1.weights - G2.weights).max() <= 1e-12


def test_sandwich_graph_trivial_edge(triangle):
    # after the per-edge-constant rescaling each gamma is 1/3 and the edge
    # degree is 1, so every pair weight is 1/9 and row sums reproduce pi
    G = sandwich_check(triangle).graph
    np.testing.assert_allclose(G.weights, 1 / 9, atol=1e-12)
    np.testing.assert_allclose(G.weights.sum(axis=1), 1 / 3, atol=1e-12)


def test_graphs_compare_by_names_and_weights(h_demo):
    W = [[0.0, 1.0], [1.0, 0.0]]
    G = WeightedGraph(("a", "b"), W)
    assert G == WeightedGraph(("a", "b"), np.array(W))
    assert G != WeightedGraph(("a", "c"), W)
    assert G != WeightedGraph(("a", "b"), [[0.0, 2.0], [2.0, 0.0]])
    assert G != W and G != "G"
    assert sandwich_check(h_demo) == sandwich_check(rebuilt(h_demo))


def test_sandwich_graph_shares_stationary(h_demo):
    G = sandwich_check(h_demo).graph
    pi_g = stationary_direct(graph_random_walk(G)).pi
    pi_h = stationary_rho(h_demo).pi
    assert np.abs(pi_g - pi_h).max() <= 1e-9


def test_sandwich_check_demo(h_demo):
    chk = sandwich_check(h_demo)
    # per-vertex spread of the rescaled weights: v3 sees 2/17 vs 3/17
    assert chk.c == pytest.approx(1.5, abs=1e-9)
    assert chk.holds
    assert chk.pi_dev <= 1e-9


def test_sandwich_check_refuses_one_vertex():
    # a 1 x 1 Laplacian has no second eigenvalue; refused before any solve
    H = Hypergraph(("a",), [(1.0, {"a": 1.0})])
    with pytest.raises(SizeLimit, match="needs at least 2 vertices, got 1"):
        sandwich_check(H)
    assert not H._memo


def test_sandwich_check_with_a_zero_graph_mass():
    # the graph walk's stationary mass of a is 5e-321, subnormal; the check
    # forms no normalized Laplacian, so nothing divides by it (a
    # RuntimeWarning is an error here)
    H = Hypergraph(("a", "b", "c"), [(1e-320, {"a": 1.0, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    chk = sandwich_check(H)
    pi = stationary_direct(graph_random_walk(chk.graph)).pi
    weights = [[Fraction(w) for w in row] for row in chk.graph.weights.tolist()]
    exact = exact_fixed_point([[w / sum(row) for w in row] for row in weights])
    assert pi.tolist() == [float(x) for x in exact] == [5e-321, 0.5, 0.5]  # each rounded
    assert chk.holds and chk.c == 1.0


def test_sandwich_check_edge_independent_collapses_to_equality():
    for H in sweep(507, 10, edge_independent=True):
        chk = sandwich_check(H)
        assert chk.c == pytest.approx(1.0, abs=1e-9)
        assert abs(chk.lam_g - chk.lam_h) <= 1e-9
        assert chk.holds


def test_sandwich_check_sweep():
    for H in sweep(508, 15):
        chk = sandwich_check(H)
        assert chk.holds
        # the graph it checked: one scatter of g = gamma / delta scaled by
        # omega(e) rho_e, bit for bit
        g = H.gamma / np.repeat(degrees(H)[1], np.diff(H.indptr))
        W = _block_scatter(H.indptr, H.indices, g, g, H.n_vertices,
                           H.omega * stationary_rho(H).rho)
        assert chk.graph.weights.tobytes() == W.tobytes()
        # the clique expansion of the rho-rescaled copy, up to rounding: at
        # most 3.2e-16 of the largest weight on this sweep
        copy = clique_expansion_weights(rho_normalized(H)).weights
        assert np.abs(W - copy).max() <= 5e-16 * W.max()
