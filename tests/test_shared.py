"""Shared objects: one rule makes every hypergraph, graph, walk matrix and
operator, match set and result record immutable once built, and a matrix
derived from a hypergraph or graph shares its vertex names and index."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import hyperwalk.core as core
import hyperwalk.rankagg as rankagg
import hyperwalk.reduction as reduction
import hyperwalk.spectral as spectral
import hyperwalk.stationary as stationary
import hyperwalk.walk as walk
from hyperwalk import (
    WeightedGraph,
    check_cheeger,
    clique_expansion_weights,
    edge_independent_to_graph,
    experiment,
    generate,
    graph_random_walk,
    kolmogorov_check,
    nonlazy_transition_matrix,
    nonlazy_trivial_equivalence,
    rank_hypergraph,
    restart_matrix,
    reversibility,
    sandwich_check,
    spectral_report,
    stationary_rho,
    transition_matrix,
)
from conftest import reachable_arrays


def test_hypergraph_attributes_cannot_be_set(h_demo):
    # P is stored on H: new edge weights would leave it stale
    P = transition_matrix(h_demo)
    for name, value in (("omega", np.array([5.0, 1.0])), ("vertices", ("w", "x", "y", "z"))):
        with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
            setattr(h_demo, name, value)
    assert h_demo.omega.tolist() == [1.0, 1.0] and h_demo.vertices[0] == "v1"
    assert transition_matrix(h_demo) is P


def test_each_attribute_is_set_once(h_demo):
    # through the setter that constructors use too, and not after a deletion
    with pytest.raises(AttributeError, match="cannot set 'omega'"):
        h_demo._set(omega=np.array([5.0, 1.0]))
    with pytest.raises(AttributeError, match="cannot delete 'omega'"):
        del h_demo.omega
    assert h_demo.omega.tolist() == [1.0, 1.0]


def test_shared_objects_survive_pickle_and_copy(h_demo):
    # each attribute of the new object is set once, through the same rule,
    # and each array it holds is read-only, as in the original
    spectral_report(h_demo)  # H's memo holds P, the walk operator and more
    objects = [(h_demo, "omega"), (transition_matrix(h_demo), "matrix"),
               (walk._operator(h_demo), "d"), (clique_expansion_weights(h_demo), "weights"),
               (generate(6, 1.0, 0.5, 1), "scores")]
    for obj, name in objects:
        assert not hasattr(obj, "__dict__")  # slots only: no attribute under a new name
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert type(twin) is type(obj)
            assert np.array_equal(getattr(twin, name), getattr(obj, name))
            with pytest.raises(AttributeError):
                setattr(twin, name, None)
            arrays = list(reachable_arrays(twin, set()))
            assert len(arrays) >= 1 and not [a for a in arrays if a.flags.writeable]
    # the memo is a cache: a twin starts with an empty one, the original keeps its own
    for twin in (pickle.loads(pickle.dumps(h_demo)), copy.copy(h_demo)):
        assert twin == h_demo and twin._memo == {}
    assert "transition_matrix" in h_demo._memo


def test_graph_is_read_only(h_demo, monkeypatch):
    G = clique_expansion_weights(h_demo)
    for graph in (WeightedGraph(["a", "b", "c"], np.ones((3, 3))), G):
        with pytest.raises(ValueError, match="read-only"):
            graph.weights[0, 1] = 5.0
        for name in ("weights", "vertices"):
            with pytest.raises(AttributeError):
                setattr(graph, name, getattr(graph, name))
        assert np.array_equal(graph.weights, graph.weights.T)
    # and so is every walk matrix, from the moment it is made
    chains = []
    real = rankagg.restart_matrix
    monkeypatch.setattr(rankagg, "restart_matrix",
                        lambda P, beta: chains.append(P) or real(P, beta))
    rankagg.rank_mc3(generate(8, 1.0, 0.4, 3))
    P = transition_matrix(h_demo)
    for M in (P, nonlazy_transition_matrix(h_demo), restart_matrix(P, 0.4),
              graph_random_walk(G), chains[0], walk.TransitionMatrix(["a", "b"], np.eye(2))):
        with pytest.raises(ValueError, match="read-only"):
            M.matrix[0, 0] = 5.0


def test_graph_keeps_its_callers_array():
    # a public constructor copies: the caller's array is neither frozen nor shared
    W, M = np.ones((2, 2)), np.eye(2)
    G, P = WeightedGraph(["a", "b"], W), walk.TransitionMatrix(["a", "b"], M)
    assert W.flags.writeable and M.flags.writeable
    assert P.matrix is not M and not np.shares_memory(P.matrix, M)
    assert not np.shares_memory(G.weights, W)


def test_match_data_attributes_cannot_be_set():
    data = generate(6, 1.0, 0.5, 1)
    for name in ("scores", "hypergraph"):
        with pytest.raises(AttributeError):
            setattr(data, name, getattr(data, name))


RECORDS = {
    "CheegerCheck": lambda H, T: check_cheeger(H),
    "SpectralReport": lambda H, T: spectral_report(H),
    "ReversibilityVerdict": lambda H, T: reversibility(transition_matrix(H),
                                                      stationary_rho(H).pi),
    "KolmogorovResult": lambda H, T: kolmogorov_check(transition_matrix(H)),
    "NonlazyEquivalence": lambda H, T: nonlazy_trivial_equivalence(T),
    "SandwichCheck": lambda H, T: sandwich_check(H),
    "RankingResult": lambda H, T: rank_hypergraph(generate(6, 1.0, 0.5, 1)),
    "ExperimentResult": lambda H, T: experiment(6, 1.0, [0.5], 1, 1),
}


@pytest.mark.parametrize("record", RECORDS)
def test_result_records_are_frozen(h_demo, triangle, record):
    result = RECORDS[record](h_demo, triangle)
    assert type(result).__name__ == record
    for field in dataclasses.fields(result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, field.name, getattr(result, field.name))


def _shares_index(derived, source) -> bool:
    return derived.vertices is source.vertices and derived._index is source._index


def test_derived_matrices_share_their_source_index(h_demo, triangle):
    P = transition_matrix(h_demo)
    G = clique_expansion_weights(h_demo)
    ones = edge_independent_to_graph(triangle)
    derived = [(P, h_demo), (restart_matrix(P, 0.4), P), (G, h_demo),
               (graph_random_walk(G), G), (ones, triangle), (graph_random_walk(ones), ones),
               (nonlazy_transition_matrix(triangle), triangle),
               (nonlazy_trivial_equivalence(triangle).graph, triangle)]
    assert all(_shares_index(d, s) for d, s in derived)


def test_mc3_chain_shares_the_match_index(monkeypatch):
    data = generate(8, 1.0, 0.4, 3)
    chains = []
    real = rankagg.restart_matrix
    monkeypatch.setattr(rankagg, "restart_matrix",
                        lambda P, beta: chains.append(P) or real(P, beta))
    rankagg.rank_mc3(data)
    assert len(chains) == 1 and _shares_index(chains[0], data.hypergraph)


def test_one_rankagg_trial_indexes_its_players_once(monkeypatch):
    # the match set's hypergraph checks its player names; every chain and
    # graph of the three rankers shares them
    calls = []
    real = core._vertex_index

    def counted(vertices):
        calls.append(1)
        return real(vertices)

    for module in (core, walk, stationary, spectral, reduction, rankagg):
        if hasattr(module, "_vertex_index"):
            monkeypatch.setattr(module, "_vertex_index", counted)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 1)  # every call counted here
    experiment(20, 1.0, [0.3], 1, 7)
    assert len(calls) == 1
