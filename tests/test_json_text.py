"""The one JSON writer: ``core._json_text`` writes json.dumps(indent=2)'s
bytes, with the hypergraph JSON format rendered from arrays and spliced in."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk import (
    Hypergraph,
    NonPositiveWeight,
    WeightedGraph,
    demo_hypergraph,
    dumps_json,
    graph_to_json_dict,
    loads_json,
    sandwich_check,
    stationary_walk,
    to_json_dict,
)
from hyperwalk.cli import dispatch
from hyperwalk.core import _float_texts, _graph_edges, _hypergraph_json, _json_text
from hyperwalk.stationary import _stationary_direct_of
from conftest import sweep
from test_cli import MATCHES
from test_properties import hypergraphs


def reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


SCALARS = (st.text() | st.integers() | st.floats() | st.booleans() | st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(VALUES)
def test_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) == reference(value)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308,
    10**30, -10**30, True, False, None, "",
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 5e-324, 10**30],
    {"nan": float("nan"), "inf": "inf", "True": "None", "null": None, "t": True},
])
def test_scalars(value):
    assert _json_text(value) == reference(value)


STRINGS = ["grüße π 漢字 \U0001f600", "\x00\x01\x1f\x7f\b\f\n\r\t",
           'say "hi"', "back\\slash", "</script>", "  "]


@pytest.mark.parametrize("text", STRINGS)
def test_strings_in_values_and_keys(text):
    value = {text: [text, {text: text}]}
    assert _json_text(value) == reference(value)
    assert _json_text(text) == reference(text)


def test_non_str_keys():
    value = {1: "int", 2.5: "float", float("nan"): "nan", -float("inf"): "-inf", True: "bool",
             None: "null", 10**30: [1, {False: 0.5, 3: []}], "s": {}}
    assert _json_text(value) == reference(value)


def test_empty_containers_at_depth():
    value = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {"e": []}}], "f": ()}
    assert _json_text(value) == reference(value)
    for empty in ([], {}, ()):
        assert _json_text(empty) == reference(empty)


def test_subclass_leaves_and_containers():
    class Mapping(dict):
        pass

    class Text(str):
        pass

    value = {"pi": [np.float64(0.1), np.float64("nan"), np.float64("-inf")],
             "x": np.float64(1e16), Text("key"): Text("text"),
             "nested": Mapping(a=[1, 2], b=Mapping()), "n": [np.float64(-0.0)]}
    assert _json_text(value) == reference(value)
    assert _json_text(np.float64(2 / 3)) == reference(np.float64(2 / 3))


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object(), [1, {"a": {2}}],
                                   {"k": np.int64(3)}, {(1, 2): "tuple key"}])
def test_unsupported_values_raise_as_json_does(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        _json_text(value)
    assert str(raised.value) == str(expected.value)


def test_dumps_json_renders_to_json_dict():
    H = demo_hypergraph()
    assert dumps_json(H) == reference(to_json_dict(H))


# -- the hypergraph JSON format, rendered from arrays --------------------------

AWKWARD = ['"', "\\", "%", "%s", "%(x)s", "{", "}", "{0}", "{}", "\x00\n\t\x7f", "π漢\U0001f600"]
NAMES = st.sampled_from(AWKWARD) | st.text(max_size=6)
WEIGHTS = (st.sampled_from([5e-324, 1 / 3, 1e308, 1.7976931348623157e308, 1.0, 0.1, 1e16])
           | st.floats(min_value=5e-324, max_value=1e308))


@st.composite
def weighted_graphs(draw):
    """Symmetric weights with zeros and loops, on 0 to 6 vertices."""
    n = draw(st.integers(0, 6))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    W = np.zeros((n, n))
    for u in range(n):
        for v in range(u, n):
            W[u, v] = W[v, u] = draw(st.just(0.0) | WEIGHTS)
    return WeightedGraph(names, W)


def spliced(rendered, form) -> None:
    """The rendered text at column 0 and spliced at two depths equals
    json.dumps of the dict form."""
    assert _json_text(rendered) == reference(form)
    assert _json_text({"graph": rendered, "at": [rendered], "n": 1.0}) == \
        reference({"graph": form, "at": [form], "n": 1.0})


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(hypergraphs(weights=WEIGHTS, names=NAMES))
def test_hypergraph_rendered_from_arrays(H):
    spliced(_hypergraph_json(H.vertices, H.indptr, H.indices, H.gamma, H.omega),
            to_json_dict(H))
    assert dumps_json(H) == reference(to_json_dict(H))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_graphs())
def test_graph_rendered_from_its_pairs(G):
    spliced(_hypergraph_json(G.vertices, *_graph_edges(G)), graph_to_json_dict(G))


def edvw_64():
    """A seeded 64-vertex, 128-edge hypergraph with edge-dependent weights:
    edges of 2 to 5 random members, the first 64 joined in a ring by the
    pairs (i, i + 1)."""
    rng = np.random.default_rng(64)
    names = [f"v{i:02d}" for i in range(64)]
    members = [set(rng.choice(64, size=int(rng.integers(2, 6)), replace=False).tolist())
               for _ in range(128)]
    for i in range(64):
        members[i] |= {i, (i + 1) % 64}
    return Hypergraph(names, [(float(rng.uniform(0.5, 2.0)),
                               {names[j]: float(rng.uniform(0.25, 4.0)) for j in edge})
                              for edge in members])


def test_sandwich_graph_rendered_at_block_scale():
    # hundreds of pairs beside the loops, every gamma 1.0 (one run of equal gammas)
    G = sandwich_check(edvw_64()).graph
    indptr, indices, gamma, omega = _graph_edges(G)
    sizes = np.diff(indptr)
    assert (sizes == 1).sum() > 0 and (sizes == 2).sum() > 500 and set(gamma) == {1.0}
    rendered = _hypergraph_json(G.vertices, indptr, indices, gamma, omega)
    spliced(rendered, graph_to_json_dict(G))
    # the graph read back as a hypergraph renders the same text
    assert dumps_json(loads_json(_json_text(rendered))) == reference(graph_to_json_dict(G))


def mixed_sizes(names):
    """Edges of sizes 1, 2, 3 and 5 in turn, each sharing a vertex with the
    last, around 320 vertices, and one 300-member edge among them; the
    gammas, in reading order, run equal, break and resume, across edges too,
    and the weights repeat."""
    n, at, edges = len(names), 0, []
    gammas = iter([1.0, 1.0, 0.5, 0.5, 0.5, 1.0, 2.0, 1 / 3, 1 / 3, 1.0] * 150)
    weights = [1.0, 0.25, 1.0, 3.0, 0.1]
    while at < n:
        for size in (1, 2, 3, 5):
            edge = sorted({(at + j) % n for j in range(size)})
            edges.append((weights[len(edges) % 5], {names[v]: next(gammas) for v in edge}))
            at += size - 1
        if len(edges) == 92:
            edges.append((1.0, {names[v]: next(gammas) for v in range(7, 307)}))
    return Hypergraph(names, edges)


@pytest.mark.parametrize("names", [
    [f"v{i:03d}" for i in range(320)],
    AWKWARD + [AWKWARD[i % len(AWKWARD)] + str(i) for i in range(len(AWKWARD), 320)],
], ids=["plain", "awkward"])
def test_hypergraph_of_mixed_sizes_rendered(names):
    H = mixed_sizes(names)
    sizes = np.diff(H.indptr).tolist()
    assert set(sizes) == {1, 2, 3, 5, 300} and sizes[:8] == [1, 2, 3, 5] * 2
    spliced(_hypergraph_json(H.vertices, H.indptr, H.indices, H.gamma, H.omega),
            to_json_dict(H))
    assert dumps_json(H) == reference(to_json_dict(H))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_no_non_finite_weight_reaches_the_renderer(bad):
    # repr is json's text only for finite floats: both forms refuse the rest
    with pytest.raises(NonPositiveWeight):
        Hypergraph(("a", "b"), [(bad, {"a": 1.0, "b": 1.0})])
    with pytest.raises(NonPositiveWeight):
        Hypergraph(("a", "b"), [(1.0, {"a": bad, "b": 1.0})])
    with pytest.raises(NonPositiveWeight):
        WeightedGraph(("a", "b"), [[0.0, bad], [bad, 0.0]])
    # and the symmetric mean of the largest finite weights stays finite
    big = float(np.finfo(float).max)
    G = WeightedGraph(("a", "b"), [[big, 1e308], [1e308, 0.0]])
    assert G.weights.tolist() == [[big, 1e308], [1e308, 0.0]]


def test_all_float_containers_written_as_json_does():
    # a container whose values are all exactly float is written from one
    # repr of them: checked as a dict and as a list, at column 0 and spliced
    keys, values = ['"', "\\", "\x00\n", "π漢", "", "x"], [float("nan"), float("inf"),
                                                          -float("inf"), -0.0, 5e-324, 1e16]
    for value in (dict(zip(keys, values)), values, tuple(values), {}, [],
                  [values, values[::-1], [0.5]], dict(enumerate(values)),
                  {1: 0.5, "1": 2.0, 2.5: -1.0, None: 3.0, False: 4.0}):
        spliced(value, value)
    assert _float_texts(values) and _float_texts(dict(enumerate(values)).values())
    # floats beside other values, and np.float64 (a float subclass), take
    # json's own path
    mixed = [0.5, 1, "2.0", None, True, [1.5], np.float64(0.25), float("nan")]
    for value in (mixed, dict(zip(map(str, range(8)), mixed)), [np.float64(0.1)] * 3,
                  {"a": np.float64(-0.0), "b": np.float64("inf")}):
        assert _float_texts(value if isinstance(value, list) else value.values()) is None
        spliced(value, value)


# The stationary routes of the CLI by --method, and the inputs each payload
# is checked on besides the demo: names json escapes, and a walk whose
# per-edge constants leave the float range (rho None, so "rho": {}).
STATIONARY_ROUTES = {"auto": stationary_walk, "direct": _stationary_direct_of}
AWKWARD_NAMES = ['say "hi"', "back\\slash", "\x07\x1f", "grüße π 漢字", ""]
STATIONARY_INPUTS = sweep(48, 4) + [
    Hypergraph(AWKWARD_NAMES, [(1.0, {"": 2.0, 'say "hi"': 1.0, "back\\slash": 0.5}),
                               (2.0, {"": 1.0, "\x07\x1f": 3.0, "grüße π 漢字": 1.0})]),
    Hypergraph(("a", "b", "c"), [(1e-320, {"a": 1.0, "b": 1.0}), (1e-320, {"b": 1.0, "c": 2.0})]),
]


@pytest.mark.parametrize("command", [
    "stationary --method auto --input {h}",
    "stationary --method direct --input {h}",
    "spectral --check-cheeger --input {h}",
    "reduce --mode sandwich --input {h}",
    "transition --json --input {h}",
    "rankagg --n 8 --p 0.3 --trials 2 --json",
    "rankagg --matches {m}",
])
def test_cli_outputs_and_manifests_are_json_indent_2(tmp_path, command):
    # Floats round-trip exactly, so json re-encodes the parsed text to the
    # same bytes exactly when the writer wrote what json writes.
    h, m = tmp_path / "h.json", tmp_path / "m.json"
    h.write_text(dumps_json(demo_hypergraph()))
    m.write_text(json.dumps(MATCHES))
    out = tmp_path / "out.json"
    assert dispatch(command.format(h=h, m=m).split() + ["--out", str(out)]) == 0
    for path in (out, tmp_path / "out.json.manifest.json"):
        text = path.read_text()
        assert text == reference(json.loads(text))
    if command.startswith("stationary"):
        # the payload, rendered from the result's arrays, is json.dumps of its
        # as_dict()
        route = STATIONARY_ROUTES[command.split()[2]]
        for H in [demo_hypergraph()] + STATIONARY_INPUTS:
            h.write_text(dumps_json(H))
            assert dispatch(command.format(h=h, m=m).split() + ["--out", str(out)]) == 0
            result = route(H)
            assert out.read_text() == reference(result.as_dict())
            assert result.rho is not None or H is STATIONARY_INPUTS[-1]  # the last: "rho": {}
        assert result.rho is None


@pytest.mark.parametrize("command", [
    "transition --json", "stationary --method auto", "stationary --method direct"])
def test_cli_outputs_at_benchmark_scale_are_json_indent_2(tmp_path, command):
    # 64 rows of P, and pi and rho, each one all-float container
    H = edvw_64()
    h, out = tmp_path / "h.json", tmp_path / "out.json"
    h.write_text(dumps_json(H))
    assert dispatch(command.split() + ["--input", str(h), "--out", str(out)]) == 0
    text = out.read_text()
    assert text == reference(json.loads(text))
    if command.startswith("stationary"):
        result = STATIONARY_ROUTES[command.split()[2]](H)
        assert len(result.pi) == 64 and result.rho is not None
        assert text == reference(result.as_dict())


def test_demo_json_is_json_indent_2(capsys):
    assert dispatch(["demo", "--json"]) == 0
    text = capsys.readouterr().out
    assert text == reference(json.loads(text))
