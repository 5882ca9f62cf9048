"""Transition matrices and trajectory simulation."""

from collections import Counter

import numpy as np
import pytest

from hyperwalk import (
    BadBeta,
    Hypergraph,
    SingletonEdge,
    SizeLimit,
    TransitionMatrix,
    UnknownVertex,
    degrees,
    nonlazy_transition_matrix,
    rescale_edges,
    restart_matrix,
    simulate,
    stationary_direct,
    to_json_dict,
    transition_matrix,
)
from conftest import sweep

DEMO_P = np.array([
    [5 / 12, 1 / 8, 7 / 24, 1 / 6],
    [1 / 2, 1 / 4, 1 / 4, 0.0],
    [5 / 12, 1 / 8, 7 / 24, 1 / 6],
    [1 / 3, 0.0, 1 / 3, 1 / 3],
])


def summation_transition(H):
    """Entrywise evaluation of the walk definition from the member dicts;
    oracle for the scatter-built matrix."""
    n = H.n_vertices
    d, delta = degrees(H)
    P = np.zeros((n, n))
    for k, e in enumerate(to_json_dict(H)["edges"]):
        for v in e["members"]:
            for w, gw in e["members"].items():
                P[H.index(v), H.index(w)] += (e["weight"] / d[H.index(v)]) * (gw / delta[k])
    return P


def test_demo_rows_match_hand_values(h_demo):
    P = transition_matrix(h_demo)
    assert P.matrix[1, 0] == 0.5  # exact
    np.testing.assert_allclose(P.matrix, DEMO_P, atol=1e-15)


def test_triangle_uniform(triangle):
    P = transition_matrix(triangle)
    np.testing.assert_allclose(P.matrix, 1 / 3, atol=1e-15)


def test_factored_equals_summation():
    for H in sweep(201, 30):
        P = transition_matrix(H)
        np.testing.assert_allclose(P.matrix, summation_transition(H), atol=1e-13)


def test_row_stochastic_and_lazy_diagonal():
    for H in sweep(202, 20):
        P = transition_matrix(H).matrix
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert P.min() >= 0.0
        assert np.diag(P).min() > 0.0  # every vertex can stay put


def test_per_edge_rescaling_invariance():
    rng = np.random.default_rng(203)
    for H in sweep(204, 15):
        factors = rng.uniform(0.05, 20.0, size=H.n_edges)
        P1 = transition_matrix(H).matrix
        P2 = transition_matrix(rescale_edges(H, factors)).matrix
        assert np.abs(P1 - P2).max() <= 1e-12


@pytest.mark.parametrize("rows", [slice(None), slice(1, 2)])  # every row, or one
@pytest.mark.parametrize("row", [[np.nan] * 4, [np.nan, 0.0, 0.5, 0.5],
                                 [np.inf, -np.inf, 0.5, 0.5], [np.inf, 0.0, 0.0, 0.0]])
def test_transition_matrix_rejects_non_finite_entries(rows, row):
    # NaN fails every comparison, so an ordered check alone lets it through
    M = DEMO_P.copy()
    M[rows] = row
    with pytest.raises(ValueError, match="transition probabilities must be finite"):
        TransitionMatrix(("v1", "v2", "v3", "v4"), M)


def test_size_limit():
    names = [f"v{i}" for i in range(4097)]
    H = Hypergraph(names, [(1.0, {v: 1.0 for v in names})])
    with pytest.raises(SizeLimit):
        transition_matrix(H)


# -- restart ------------------------------------------------------------------

def test_restart_demo_entry(h_demo):
    P = transition_matrix(h_demo)
    Pr = restart_matrix(P, 0.4)
    assert Pr.matrix[1, 0] == pytest.approx(0.6 * 0.5 + 0.4 * 0.25, abs=1e-15)
    np.testing.assert_allclose(Pr.matrix.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.1, 1.5, True, np.True_, "0.4", None])
def test_restart_rejects_bad_beta(h_demo, beta):
    P = transition_matrix(h_demo)
    with pytest.raises(BadBeta):
        restart_matrix(P, beta)


@pytest.mark.parametrize("beta", [np.float32(0.4), np.float64(0.4)])
def test_restart_accepts_a_numpy_beta(h_demo, beta):
    # mixed in double precision: a float32 1 - beta would throw the row sums
    # off by about 3e-8
    P = transition_matrix(h_demo)
    want = restart_matrix(P, float(beta)).matrix
    assert restart_matrix(P, beta).matrix.tobytes() == want.tobytes()


def test_restart_near_one_is_near_uniform(h_demo):
    P = transition_matrix(h_demo)
    Pr = restart_matrix(P, 1.0 - 1e-9)
    np.testing.assert_allclose(Pr.matrix, 0.25, atol=1e-8)


def test_restart_rejects_bad_distribution(h_demo):
    P = transition_matrix(h_demo)
    with pytest.raises(BadBeta):
        restart_matrix(P, 0.4, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(BadBeta):
        restart_matrix(P, 0.4, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("restart", [[np.nan, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0],
                                     [np.inf, 0.0, 0.0, 0.0]])
def test_restart_rejects_non_finite_distribution(h_demo, restart):
    # NaN fails every comparison, so an ordered check alone lets it through
    with pytest.raises(BadBeta, match="restart distribution must be finite"):
        restart_matrix(transition_matrix(h_demo), 0.5, restart)


def test_restart_custom_distribution(h_demo):
    P = transition_matrix(h_demo)
    r = np.array([1.0, 0.0, 0.0, 0.0])
    Pr = restart_matrix(P, 0.4, r)
    np.testing.assert_allclose(Pr.matrix[:, 0], 0.6 * P.matrix[:, 0] + 0.4)


def test_restart_shares_the_vertex_index(h_demo):
    # A restart mix is over P's own vertices: it shares their tuple and index
    # instead of rebuilding them.
    P = transition_matrix(h_demo)
    Pr = restart_matrix(P, 0.4)
    assert Pr.vertices is P.vertices and Pr._index is P._index
    assert [Pr.index(v) for v in h_demo.vertices] == [0, 1, 2, 3]


@pytest.mark.parametrize("row, message", [([np.nan, 1.0, 0.0, 0.0], "must be finite"),
                                          ([np.inf, 0.0, 0.0, 0.0], "must be finite"),
                                          ([0.5, 0.0, 0.0, 0.0], "rows must sum to 1"),
                                          ([-0.25, 1.25, 0.0, 0.0], "must be nonnegative")])
def test_same_vertices_keeps_every_check(h_demo, row, message):
    P = transition_matrix(h_demo)
    bad = P.matrix.copy()
    bad[0] = row
    with pytest.raises(ValueError, match=message):
        P._same_vertices(bad)


# -- non-lazy -------------------------------------------------------------------

def test_nonlazy_triangle(triangle):
    P = nonlazy_transition_matrix(triangle)
    assert np.all(np.diag(P.matrix) == 0.0)
    off = P.matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-15)


def test_nonlazy_demo_entry(h_demo):
    P = nonlazy_transition_matrix(h_demo)
    assert P.matrix[1, 0] == pytest.approx(2 / 3, abs=1e-15)


def test_nonlazy_singleton_edge():
    H = Hypergraph(("a",), [(1.0, {"a": 1.0})])
    with pytest.raises(SingletonEdge, match="#0"):
        nonlazy_transition_matrix(H)


def test_nonlazy_diagonal_zero_on_sweeps():
    for H in sweep(205, 15, trivial=True, min_edge_size=2):
        P = nonlazy_transition_matrix(H).matrix
        assert np.all(np.diag(P) == 0.0)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


# -- simulation -------------------------------------------------------------------

def test_simulate_zero_steps(h_demo):
    P = transition_matrix(h_demo)
    assert simulate(P, "v2", 0, seed=1) == ["v2"]


def test_simulate_unknown_start(h_demo):
    P = transition_matrix(h_demo)
    with pytest.raises(UnknownVertex):
        simulate(P, "nope", 5, seed=1)


def test_simulate_reproducible(h_demo):
    P = transition_matrix(h_demo)
    assert simulate(P, "v1", 200, seed=9) == simulate(P, "v1", 200, seed=9)
    assert simulate(P, "v1", 200, seed=9) != simulate(P, "v1", 200, seed=10)


def test_simulate_uniform_frequencies(triangle):
    P = transition_matrix(triangle)
    path = simulate(P, "a", 100_000, seed=4)
    counts = Counter(path)
    for v in "abc":
        assert counts[v] / len(path) == pytest.approx(1 / 3, abs=0.02)


def test_simulate_visits_stationary(h_demo):
    P = transition_matrix(h_demo)
    pi = stationary_direct(P).pi
    path = simulate(P, "v2", 100_000, seed=5)
    counts = Counter(path)
    for v, target in zip(P.vertices, pi):
        assert counts[v] / len(path) == pytest.approx(target, abs=0.02)


def test_simulate_transition_frequencies(h_demo):
    P = transition_matrix(h_demo)
    path = simulate(P, "v1", 100_000, seed=6)
    idx = {v: i for i, v in enumerate(P.vertices)}
    moves = np.zeros((4, 4))
    for a, b in zip(path, path[1:]):
        moves[idx[a], idx[b]] += 1
    freq = moves / moves.sum(axis=1, keepdims=True)
    assert np.abs(freq - P.matrix).max() <= 0.02
