"""Data model: validation, degrees, incidence, clique graphs, serialization."""

import json

import numpy as np
import pytest

from hyperwalk import (
    DisconnectedHypergraph,
    DuplicateVertex,
    EmptyEdge,
    Hypergraph,
    MalformedInput,
    NonPositiveWeight,
    UnknownVertex,
    build_hypergraph,
    clique_expansion_weights,
    degrees,
    delta_normalized,
    dumps_json,
    edge_independent_gamma,
    from_text,
    has_trivial_weights,
    loads_json,
    rescale_edges,
    to_json_dict,
    to_text,
    transition_matrix,
)
from hyperwalk.core import _block_scatter
from conftest import sweep


def test_demo_fixture_degrees(h_demo):
    d, delta = degrees(h_demo)
    np.testing.assert_array_equal(d, [2.0, 1.0, 2.0, 1.0])
    np.testing.assert_array_equal(delta, [4.0, 3.0])


def test_single_edge_degrees():
    H = Hypergraph(("a", "b"), [(5.0, {"a": 1.0, "b": 2.0})])
    d, delta = degrees(H)
    np.testing.assert_array_equal(d, [5.0, 5.0])
    np.testing.assert_array_equal(delta, [3.0])


def test_trivial_edge_degree_is_size():
    H = Hypergraph("abcde", [(1.0, {v: 1.0 for v in "abcde"})])
    _, delta = degrees(H)
    assert delta[0] == 5.0


def test_incidence_layout(h_demo):
    # the CSR layout holds the dense incidence data R(e,v) = gamma_e(v) and
    # W(v,e) = omega(e) for v in e
    edge = np.repeat(np.arange(h_demo.n_edges), np.diff(h_demo.indptr))
    R = np.zeros((h_demo.n_edges, h_demo.n_vertices))
    R[edge, h_demo.indices] = h_demo.gamma
    W = np.zeros((h_demo.n_vertices, h_demo.n_edges))
    W[h_demo.indices, edge] = h_demo.omega[edge]
    np.testing.assert_array_equal(R, [[2, 1, 1, 0], [1, 0, 1, 1]])
    np.testing.assert_array_equal(W, [[1, 1], [1, 0], [1, 1], [0, 1]])


def _clique_graph(H):
    """Unweighted clique skeleton: (u,v) is 1 iff some edge contains both,
    self-loops included; the support of the weighted clique expansion."""
    return (clique_expansion_weights(H).weights > 0.0).astype(float)


def test_clique_graph_with_loops(h_demo):
    expected = np.array([
        [1, 1, 1, 1],
        [1, 1, 1, 0],
        [1, 1, 1, 1],
        [1, 0, 1, 1],
    ], dtype=float)
    np.testing.assert_array_equal(_clique_graph(h_demo), expected)


def test_clique_graph_without_loops(h_demo):
    # 5 undirected edges besides the loops: 12, 13, 23, 14, 34
    assert np.all(np.diag(_clique_graph(h_demo)) == 1.0)
    assert int(np.triu(_clique_graph(h_demo), k=1).sum()) == 5


def test_clique_graph_triangle(triangle):
    np.testing.assert_array_equal(_clique_graph(triangle), np.ones((3, 3)))


# -- validation -----------------------------------------------------------------

def test_duplicate_vertex_declaration():
    with pytest.raises(DuplicateVertex, match="'a'"):
        Hypergraph(("a", "a"), [(1.0, {"a": 1.0})])


def test_empty_edge():
    with pytest.raises(EmptyEdge, match="edge #1"):
        Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "b": 1.0}), (1.0, {})])


def test_nonpositive_weights():
    # The message names the edge, and for a vertex weight also the vertex;
    # non-numbers are rejected the same way, never as a bare ValueError.
    first = (1.0, {"a": 1.0, "b": 1.0})
    for bad in (-1.0, 0.0, float("nan"), float("inf"), "x", None):
        with pytest.raises(NonPositiveWeight, match="edge #1: edge weight"):
            Hypergraph(("a", "b"), [first, (bad, {"a": 1.0})])
        with pytest.raises(NonPositiveWeight, match="edge #1: .* of vertex 'b'"):
            Hypergraph(("a", "b"), [first, (1.0, {"a": 1.0, "b": bad})])


@pytest.mark.parametrize("bad", [True, "2", np.True_, 10**400, -10**400])
def test_weight_must_be_a_real_number(bad):
    # float() would read True as 1.0 and "2" as 2.0, and refuse 10**400
    first = (1.0, {"a": 1.0, "b": 1.0})
    with pytest.raises(NonPositiveWeight, match=rf"^edge #1: edge weight {bad!r} must be"):
        Hypergraph(("a", "b"), [first, (bad, {"a": 1.0})])
    with pytest.raises(NonPositiveWeight,
                       match=rf"^edge #1: weight {bad!r} of vertex 'b' must be a finite"):
        Hypergraph(("a", "b"), [first, (1.0, {"a": 1.0, "b": bad})])


def test_numpy_and_python_numbers_are_weights():
    plain = Hypergraph(("a", "b"), [(2.0, {"a": 1.0, "b": 3.0})])
    for w, g in ((2, 3), (np.float64(2.0), np.float32(3.0)), (np.int64(2), np.uint8(3))):
        assert Hypergraph(("a", "b"), [(w, {"a": 1, "b": g})]) == plain


def test_first_fault_in_edge_order_is_named():
    # the first fault in edge order is named, whatever the kind of a later one
    later = (True, {"a": 1.0})
    with pytest.raises(UnknownVertex, match="edge #0"):
        Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "c": 1.0}), later])
    with pytest.raises(EmptyEdge, match="edge #0"):
        Hypergraph(("a", "b"), [(1.0, {}), later])
    with pytest.raises(NonPositiveWeight, match="edge #0: edge weight -1.0"):
        Hypergraph(("a", "b"), [(-1.0, {"a": 1.0}), later])
    # within an edge: its weight, then emptiness, then each member in turn
    with pytest.raises(NonPositiveWeight, match="edge weight None"):
        Hypergraph(("a",), [(None, {})])
    with pytest.raises(UnknownVertex, match="'c'"):
        Hypergraph(("a", "b"), [(1.0, {"c": 1.0, "a": "x"})])
    with pytest.raises(NonPositiveWeight, match="weight 'x' of vertex 'a'"):
        Hypergraph(("a", "b"), [(1.0, {"a": "x", "c": 1.0})])


def test_build_hypergraph_names_the_first_fault_in_file_order():
    # each entry is checked as the hypergraph reads it, so a malformed later
    # entry is not reached before an earlier fault
    data = {"vertices": ["a", "b"],
            "edges": [{"weight": 1.0, "members": {"a": 1.0, "c": 1.0}}, "not an edge"]}
    with pytest.raises(UnknownVertex, match="edge #0"):
        build_hypergraph(data)
    data["edges"][0] = {"members": {}}  # no weight and no members: a bad weight
    with pytest.raises(NonPositiveWeight, match="edge #0: edge weight None"):
        build_hypergraph(data)
    data["edges"][0] = {"weight": 1.0, "members": {"a": 1.0, "b": 1.0}}
    with pytest.raises(MalformedInput, match="edge #1 must be an object"):
        build_hypergraph(data)


def test_degree_overflow_is_named():
    edge = Hypergraph(("a", "b"), [(1.0, {"a": 1e308, "b": 1e308})])
    with pytest.raises(NonPositiveWeight, match=r"^edge #0: degree delta\(e\) overflows"):
        degrees(edge)
    vertex = Hypergraph(("a", "b"), [(1e308, {"a": 1.0, "b": 1.0})] * 2)
    with pytest.raises(NonPositiveWeight, match=r"^vertex 'a': degree d\(v\) overflows"):
        degrees(vertex)


def test_unknown_member():
    with pytest.raises(UnknownVertex, match="'c'"):
        Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "c": 1.0})])


def test_disconnected_two_edges():
    with pytest.raises(DisconnectedHypergraph):
        Hypergraph(
            ("a", "b", "c", "d"),
            [(1.0, {"a": 1.0, "b": 1.0}), (1.0, {"c": 1.0, "d": 1.0})],
        )


def test_isolated_vertex_is_disconnected():
    with pytest.raises(DisconnectedHypergraph, match="'c'"):
        Hypergraph(("a", "b", "c"), [(1.0, {"a": 1.0, "b": 1.0})])


def test_single_vertex_single_edge_is_valid():
    H = Hypergraph(("a",), [(2.0, {"a": 3.0})])
    assert H.n_vertices == 1


# -- weight helpers ---------------------------------------------------------------

def test_edge_independent_detection(h_demo, triangle):
    assert edge_independent_gamma(h_demo) is None  # gamma(v1) is 2 in one edge, 1 in the other
    np.testing.assert_array_equal(edge_independent_gamma(triangle), [1.0, 1.0, 1.0])


def test_trivial_weights(h_demo, triangle):
    assert has_trivial_weights(triangle)
    assert not has_trivial_weights(h_demo)


def test_rescale_leaves_degrees_and_clique(h_demo):
    H2 = rescale_edges(h_demo, [7.3, 0.2])
    d1, _ = degrees(h_demo)
    d2, delta2 = degrees(H2)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(_clique_graph(h_demo), _clique_graph(H2))
    assert delta2[0] == pytest.approx(4 * 7.3)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e308])
def test_rescale_rejects_bad_factor(h_demo, bad):
    # 1e308 is finite but overflows against the vertex weight 2 in edge #0
    with pytest.raises(NonPositiveWeight, match="edge #0"):
        rescale_edges(h_demo, [bad, 1.0])


def test_block_scatter_matches_per_group_outer_products():
    # Reference: one outer product per group, added in group order. The
    # scatter adds groups in size order, so sums of the (positive) terms may
    # differ in the last bits.
    rng = np.random.default_rng(104)
    for H in sweep(104, 20, max_vertices=10, max_edges=8):
        left, right = rng.uniform(0.1, 10.0, size=(2, len(H.indices)))
        scale = rng.uniform(0.1, 10.0, size=H.n_edges)
        want = np.zeros((H.n_vertices, H.n_vertices))
        for k in range(H.n_edges):
            g = slice(H.indptr[k], H.indptr[k + 1])
            idx = H.indices[g]
            want[np.ix_(idx, idx)] += np.outer(left[g], right[g]) * scale[k]
        got = _block_scatter(H.indptr, H.indices, left, right, H.n_vertices, scale)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_block_scatter_chunks_leave_results_unchanged(monkeypatch):
    for H in sweep(103, 10, max_vertices=12, max_edges=10):
        P = transition_matrix(H).matrix
        G = clique_expansion_weights(H).weights
        monkeypatch.setattr("hyperwalk.core._SCATTER_CHUNK", 1)
        assert np.array_equal(transition_matrix(H).matrix, P)
        assert np.array_equal(clique_expansion_weights(H).weights, G)
        monkeypatch.undo()


def test_delta_normalized(h_demo):
    Hn = delta_normalized(h_demo)
    _, delta = degrees(Hn)
    np.testing.assert_allclose(delta, 1.0, atol=1e-15)


def test_degree_double_counting():
    for H in sweep(101, 25):
        d, _ = degrees(H)
        total = sum(e["weight"] * len(e["members"]) for e in to_json_dict(H)["edges"])
        assert d.sum() == pytest.approx(total, rel=1e-13)


# -- serialization ----------------------------------------------------------------

def test_json_round_trip(h_demo):
    assert loads_json(dumps_json(h_demo)) == h_demo


def test_text_round_trip(h_demo):
    assert from_text(to_text(h_demo)) == h_demo


def test_round_trip_random():
    for H in sweep(102, 10):
        assert loads_json(dumps_json(H)) == H
        assert from_text(to_text(H)) == H


def test_build_hypergraph_names_bad_edge():
    data = {"vertices": ["a", "b"],
            "edges": [{"weight": -1.0, "members": {"a": 1.0, "b": 1.0}}]}
    with pytest.raises(NonPositiveWeight, match="edge #0"):
        build_hypergraph(data)


def test_json_duplicate_member_key_rejected():
    text = json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"weight": 1.0, "members": {"a": 1.0, "b": 1.0}}],
    }).replace('"a": 1.0, "b": 1.0', '"a": 1.0, "a": 2.0, "b": 1.0')
    with pytest.raises(DuplicateVertex):
        loads_json(text)


def test_text_duplicate_member_rejected():
    with pytest.raises(DuplicateVertex):
        from_text("1.0 a:1.0 a:2.0\n")


def test_text_declaration_order_preserved():
    text = "# vertices: z y x\n1.0 x:1.0 y:2.0\n2.0 y:1.0 z:1.0\n"
    H = from_text(text)
    assert H.vertices == ("z", "y", "x")


def test_text_without_header_uses_appearance_order():
    H = from_text("1.0 b:1.0 c:1.0\n1.0 a:1.0 b:1.0\n")
    assert H.vertices == ("b", "c", "a")
