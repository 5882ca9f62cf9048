"""Data model: validation, degrees, incidence, clique graphs, serialization."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from hyperwalk import (
    DisconnectedHypergraph,
    DuplicateVertex,
    EmptyEdge,
    Hypergraph,
    HyperwalkError,
    MalformedInput,
    NonPositiveWeight,
    NotSymmetric,
    UnknownVertex,
    WeightedGraph,
    build_hypergraph,
    clique_expansion_weights,
    degrees,
    delta_normalized,
    dumps_json,
    edge_independent_gamma,
    has_trivial_weights,
    loads_json,
    rescale_edges,
    to_json_dict,
    transition_matrix,
)
from hyperwalk import core
from hyperwalk.core import _block_scatter, _vertex_major
from conftest import rebuilt, sweep
from oracles import first_edge_fault


def test_equal_hypergraphs_hash_equal(h_demo):
    for H in [h_demo] + sweep(101, 5):
        twin = rebuilt(H)
        assert twin == H and twin is not H and hash(twin) == hash(H)


def test_a_hypergraph_is_unequal_to_another_type_and_each_record_names_its_size(h_demo):
    assert h_demo.__eq__("x") is NotImplemented
    assert h_demo != "x"
    assert repr(h_demo) == "Hypergraph(|V|=4, |E|=2)"
    assert repr(clique_expansion_weights(h_demo)) == "WeightedGraph(|V|=4)"
    assert repr(transition_matrix(h_demo)) == "TransitionMatrix(n=4)"


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


def test_graph_names_its_first_repeated_vertex():
    # its JSON text would repeat the name, which loads_json rejects
    for vertices, repeat in ((["a", "a"], "a"), (["b", "c", "c", "b"], "c")):
        n = len(vertices)
        with pytest.raises(DuplicateVertex) as info:
            WeightedGraph(vertices, np.ones((n, n)) - np.eye(n))
        assert str(info.value) == f"vertex {repeat!r} declared more than once"
    with pytest.raises(DuplicateVertex, match="vertex 'c' declared more than once"):
        Hypergraph(["b", "c", "c", "b"], [(1.0, {"b": 1.0, "c": 1.0})])


@pytest.mark.parametrize("W, error, message", [
    (np.ones((2, 3)), ValueError, "weight matrix shape does not match the vertex list"),
    (np.ones((3, 3)), ValueError, "weight matrix shape does not match the vertex list"),
    ([[0.0, -1.0], [-1.0, 0.0]], NonPositiveWeight, "graph weights must be nonnegative"),
    ([[0.0, 2.0], [1.0, 0.0]], NotSymmetric, "graph weight matrix asymmetric by 1.000e+00"),
], ids=["not-square", "not-the-vertex-count", "negative", "asymmetric"])
def test_graph_refuses_a_malformed_weight_matrix(W, error, message):
    with pytest.raises(error) as info:
        WeightedGraph(("a", "b"), W)
    assert type(info.value) is error and str(info.value) == message


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


NOT_REAL = [True, "2", np.True_, 10**400, -10**400, np.float32("inf"), np.float16("inf"),
            np.longdouble("1e-400"), int(core._FLOAT_MAX) + 1, -int(core._FLOAT_MAX) - 1]


@pytest.mark.parametrize("bad", NOT_REAL)
def test_weight_must_be_a_real_number(bad):
    # float() would read True as 1.0 and "2" as 2.0, and refuse 10**400; a
    # numpy float is checked as the float64 it is stored as, where float32
    # and float16 inf stay inf and 1e-400 rounds to 0.0; an int just past
    # the largest float, which a float64 array rounds to it, is too large
    first = (1.0, {"a": 1.0, "b": 1.0})
    with pytest.raises(NonPositiveWeight,
                       match=rf"^edge #1: edge weight {re.escape(repr(bad))} must be"):
        Hypergraph(("a", "b"), [first, (bad, {"a": 1.0})])
    with pytest.raises(NonPositiveWeight, match=rf"^edge #1: weight {re.escape(repr(bad))} "
                                                "of vertex 'b' must be a finite"):
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
    # "members" present but not an object is malformed, however falsy;
    # only a missing or empty object is an empty edge
    for members in (["a", "b"], [], 0, False, "", None):
        data["edges"][1] = {"weight": 1.0, "members": members}
        with pytest.raises(MalformedInput,
                           match='^edge #1: "members" must map vertex names to weights$'):
            build_hypergraph(data)
    for edge in ({"weight": 1.0}, {"weight": 1.0, "members": {}}):
        data["edges"][1] = edge
        with pytest.raises(EmptyEdge, match="^edge #1 "):
            build_hypergraph(data)


MEMBERS_TEXT = 'edge #1: "members" must map vertex names to weights'


@pytest.mark.parametrize("pair, message", [
    ((1.0, ["a", "b"]), MEMBERS_TEXT),
    ((1.0, None), MEMBERS_TEXT),
    ((1.0, "ab"), MEMBERS_TEXT),
    ((1.0,), "edge #1 must be an object, got (1.0,)"),
    ([1.0, {"a": 1.0}], "edge #1 must be an object, got [1.0, {'a': 1.0}]"),
], ids=["members-list", "members-none", "members-str", "one-tuple", "list-pair"])
def test_hypergraph_names_a_malformed_pair_in_edge_order(pair, message):
    # a pair from Python is named as a JSON entry is: after a fault in an
    # earlier edge, and before one in a later edge or a disconnected vertex
    good = (1.0, {"a": 1.0, "b": 1.0})
    for edges in ([good, pair], [good, pair, (True, {"z": 1.0})]):
        with pytest.raises(MalformedInput) as info:
            Hypergraph(("a", "b", "c"), edges)
        assert str(info.value) == message
    with pytest.raises(NonPositiveWeight, match=r"^edge #0: edge weight -1\.0 must be"):
        Hypergraph(("a", "b"), [(-1.0, {"a": 1.0}), pair])


def test_an_edges_iterable_that_raises_propagates_its_error():
    def edges():
        yield -1.0, {"a": 1.0}  # a fault read before the error does not hold it back
        raise LookupError("no more edges")

    with pytest.raises(LookupError, match="^no more edges$"):
        Hypergraph(("a",), edges())


def test_build_hypergraph_takes_a_tuple_entry_as_its_pair():
    # JSON has no tuple; from Python, a (weight, members) entry is the pair it spells
    data = {"vertices": ["a", "b"], "edges": [(1.0, {"a": 2.0, "b": 1.0})]}
    assert build_hypergraph(data) == Hypergraph(("a", "b"), data["edges"])
    data["edges"].append((1.0, ["a"]))
    with pytest.raises(MalformedInput, match=f"^{re.escape(MEMBERS_TEXT)}$"):
        build_hypergraph(data)


def _plant(rng: random.Random, data: dict) -> None:
    """One fault in a random edge of the document `data` that still has
    members, if one does."""
    intact = [k for k, entry in enumerate(data["edges"])
              if isinstance(entry, dict) and isinstance(entry.get("members"), dict)
              and entry["members"]]
    if not intact:
        return
    k = rng.choice(intact)
    entry = data["edges"][k]
    kind = rng.choice(["weight", "gamma", "no members", "empty members", "undeclared",
                       "entry", "members"])
    if kind == "weight":
        entry["weight"] = rng.choice(NOT_REAL)
    elif kind == "gamma":
        entry["members"][rng.choice(list(entry["members"]))] = rng.choice(NOT_REAL)
    elif kind == "no members":
        del entry["members"]
    elif kind == "empty members":
        entry["members"] = {}
    elif kind == "undeclared":  # at a random place among the members
        items = list(entry["members"].items())
        items.insert(rng.randrange(len(items) + 1), ("z", 1.0))
        entry["members"] = dict(items)
    elif kind == "entry":
        data["edges"][k] = rng.choice([["a", "b"], "edge", 1.0, None])
    else:
        entry["members"] = rng.choice([["a", "b"], [], 0, None, "a"])


def test_build_hypergraph_names_the_fault_the_per_entry_loop_names():
    # 1-3 faults planted in small documents: the array checks name the one
    # the per-entry loop in reading order meets first, by type and text
    rng = random.Random(48)
    for _ in range(400):
        data = {"vertices": ["a", "b", "c", "d"], "edges": []}
        for _ in range(rng.randint(1, 5)):
            members = rng.sample(data["vertices"], rng.randint(1, 3))
            data["edges"].append({"weight": rng.choice([1.0, 2.5, 3]),
                                  "members": {v: rng.choice([1.0, 0.5, 2]) for v in members}})
        for _ in range(rng.randint(1, 3)):
            _plant(rng, data)
        with pytest.raises(HyperwalkError) as expected:
            first_edge_fault(data)
        with pytest.raises(HyperwalkError) as raised:
            build_hypergraph(data)
        assert (type(raised.value), str(raised.value)) == \
            (type(expected.value), str(expected.value)), data


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


def test_disconnected_error_names_two_components_by_their_smallest_vertices():
    # {a, b} and {c, d, e}: vertex 0's component and the one of the smallest
    # vertex outside it
    with pytest.raises(DisconnectedHypergraph, match="^vertices 'a' and 'c' are in different"):
        Hypergraph(("a", "b", "c", "d", "e"),
                   [(1.0, {"b": 1.0, "a": 1.0}), (1.0, {"c": 1.0, "e": 1.0}),
                    (1.0, {"d": 1.0, "e": 1.0})])


def _find(parent, x):
    """Root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, members):
    """Join the sets of all `members` (at least one)."""
    root = _find(parent, members[0])
    for j in members[1:]:
        r = _find(parent, j)
        if r != root:
            parent[r] = root


def test_single_component_agrees_with_union_find():
    # random edge lists, most of them disconnected, some long chains
    rng = np.random.default_rng(177)
    verdicts = set()
    for trial in range(3000):
        n = int(rng.integers(1, 40))
        sizes = rng.integers(1, min(n, 5) + 1, size=int(rng.integers(1, 40)))
        members = [np.sort(rng.choice(n, size=s, replace=False)) for s in sizes]
        if trial % 10 == 0:  # a path through a random order of the vertices
            order = rng.permutation(n)
            members = [np.sort(order[i:i + 2]) for i in range(n - 1)] or members
        parent = list(range(n))
        for m in members:
            _union(parent, m.tolist())
        roots = [_find(parent, v) for v in range(n)]
        smallest = {}  # per union-find root, the smallest vertex of its set
        for v in range(n):
            smallest.setdefault(roots[v], v)
        indptr = np.concatenate(([0], np.cumsum([len(m) for m in members])))
        labels = core._component_labels(indptr, np.concatenate(members), n)
        assert labels.tolist() == [smallest[r] for r in roots]
        verdicts.add(not labels.any())
    assert verdicts == {True, False}


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


def test_rescale_needs_one_factor_per_edge(h_demo):
    with pytest.raises(ValueError, match="^need exactly one factor per edge$"):
        rescale_edges(h_demo, [1.0])


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
        monkeypatch.setattr("hyperwalk.core._PAIR_CHUNK", 1)
        assert np.array_equal(transition_matrix(rebuilt(H)).matrix, P)
        assert np.array_equal(clique_expansion_weights(H).weights, G)
        monkeypatch.undo()


def per_size_block_scatter(indptr, indices, left, right, n, scale=None):
    """The reference for _block_scatter: one np.add.at call per size, or per
    _PAIR_CHUNK-sized part of a size, sizes ascending."""
    out = np.zeros(n * n)
    sizes = np.diff(indptr)
    for s in np.flatnonzero(np.bincount(sizes)):
        groups = np.flatnonzero(sizes == s)
        for part in np.array_split(groups, -(-len(groups) * s * s // core._PAIR_CHUNK)):
            pos = indptr[part][:, None] + np.arange(s)
            values = left[pos][:, :, None] * right[pos][:, None, :]
            if scale is not None:
                values *= scale[part][:, None, None]
            idx = indices[pos]
            np.add.at(out, (idx[:, :, None] * n + idx[:, None, :]).ravel(), values.ravel())
    return out.reshape(n, n)


def scatter_inputs():
    """(indptr, indices, n, left, right, scale) cases: the edge-major and the
    vertex-major layouts of sweep hypergraphs, 4095 groups of 2 to 4 of 2048
    vertices, shaped as the benchmark's n=2048 stationary input, a group of
    300 of 320 vertices among small ones, and no group at all."""
    rng = np.random.default_rng(105)
    layouts = []
    for H in sweep(105, 12, max_vertices=10, max_edges=8):
        layouts.append((H.indptr, H.indices, H.n_vertices))
        vptr, order = _vertex_major(H)
        edge = np.repeat(np.arange(H.n_edges), np.diff(H.indptr))
        layouts.append((vptr, edge[order], H.n_edges))
    sizes = rng.integers(2, 5, size=4095)
    layouts.append((np.concatenate(([0], np.cumsum(sizes))),
                    np.concatenate([rng.choice(2048, s, replace=False) for s in sizes]), 2048))
    # a group of 300, its rows longer than the chunks the tests set, among small ones
    sizes = np.array([3, 2, 300, 5, 2, 3])
    layouts.append((np.concatenate(([0], np.cumsum(sizes))),
                    np.concatenate([rng.choice(320, s, replace=False) for s in sizes]), 320))
    layouts.append((np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), 3))  # no group
    for indptr, indices, n in layouts:
        left, right = rng.uniform(0.25, 4.0, size=(2, len(indices)))
        yield indptr, indices, n, left, right, rng.uniform(0.5, 2.0, size=len(indptr) - 1)


@pytest.mark.parametrize("chunk", [None, 1, 7, 100])
def test_block_scatter_equals_per_size_reference(monkeypatch, chunk):
    # One np.add.at per chunk of terms adds each entry's terms in the order
    # the per-size calls did, so the sums are equal bit for bit.
    if chunk is not None:
        monkeypatch.setattr(core, "_PAIR_CHUNK", chunk)
    for indptr, indices, n, left, right, scale in scatter_inputs():
        for s in (None, scale):
            got = _block_scatter(indptr, indices, left, right, n, s)
            assert np.array_equal(got, per_size_block_scatter(indptr, indices, left, right, n, s))
        sym = _block_scatter(indptr, indices, left, left, n, scale)
        assert np.array_equal(sym, sym.T)


def test_block_scatter_temporaries_are_bounded_by_chunk(monkeypatch):
    # 1,000 groups of 40: 1.6 million terms, 13 MB per term array if held at once
    indptr = np.arange(0, 40_001, 40)
    indices = np.random.default_rng(106).integers(0, 100, size=40_000)
    values = np.ones(len(indices))
    monkeypatch.setattr(core, "_PAIR_CHUNK", 1 << 14)
    tracemalloc.start()
    try:
        _block_scatter(indptr, indices, values, values, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # the held terms, their concatenation and their products


def test_block_scatter_temporaries_are_bounded_for_a_big_group(monkeypatch):
    # one group of 2048: 4.2 million terms, 32 MB per term array if held at once
    indptr = np.array([0, 2048])
    indices = np.random.default_rng(107).permutation(2048)
    values = np.ones(2048)
    monkeypatch.setattr(core, "_PAIR_CHUNK", 1 << 14)
    tracemalloc.start()
    try:
        _block_scatter(indptr, indices, values, values, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2048**2 + 2 * 2**20  # the output and whole rows of terms


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


def test_round_trip_random():
    for H in sweep(102, 10):
        assert loads_json(dumps_json(H)) == H


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

