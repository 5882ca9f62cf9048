"""Property tests of the invariants the paper depends on.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import json
import os
import string
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwalk import (
    Hypergraph,
    clique_expansion_weights,
    dumps_json,
    eigenvalues_symmetric,
    laplacian,
    loads_json,
    rescale_edges,
    stationary_direct,
    stationary_rho,
    stationary_walk,
    transition_matrix,
)
from hyperwalk.cli import dispatch

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

MODERATE = st.floats(0.1, 10.0)
ANY_POSITIVE = st.floats(min_value=5e-324, max_value=1e308)
# Wide enough that one ulp of asymmetry in a clique expansion exceeds
# WeightedGraph's 1e-12 absolute check, narrow enough not to overflow.
WIDE = st.floats(1e-60, 1e60)


@st.composite
def hypergraphs(draw, weights=MODERATE, names=None, max_vertices=7, max_edges=5):
    """Connected hypergraphs: each edge also holds a member of the previous
    edge, and the last edge takes every vertex no edge holds yet."""
    n = draw(st.integers(1, max_vertices))
    if names is None:
        labels = [f"v{i}" for i in range(n)]
    else:
        labels = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                         min_size=1, max_size=max_edges))
    for j in range(1, len(sets)):
        sets[j] = sets[j] | {min(sets[j - 1])}
    sets[-1] = sets[-1] | (set(range(n)) - set().union(*sets))
    edges = [(draw(weights), {labels[v]: draw(weights) for v in sorted(s)})
             for s in sets]
    return Hypergraph(labels, edges)


@SETTINGS
@given(hypergraphs(), st.data())
def test_walk_row_stochastic_and_rescaling_invariant(H, data):
    P = transition_matrix(H).matrix
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
    assert P.min() >= 0.0
    factors = data.draw(st.lists(st.floats(0.05, 20.0), min_size=H.n_edges,
                                 max_size=H.n_edges))
    assert np.abs(transition_matrix(rescale_edges(H, factors)).matrix - P).max() <= 1e-12


@SETTINGS
@given(hypergraphs())
def test_rho_route_matches_direct_solve(H):
    res = stationary_rho(H)
    assert res.rho.min() > 0.0
    direct = stationary_direct(transition_matrix(H))
    assert np.abs(res.pi - direct.pi).max() <= 1e-8


@SETTINGS
@given(hypergraphs())
def test_walk_iteration_matches_dense_routes(H):
    res = stationary_walk(H)
    direct = stationary_direct(transition_matrix(H))
    rho = stationary_rho(H)
    # normwise relative; 1,000 examples of this strategy stayed below 1e-11
    assert np.abs(res.pi - direct.pi).max() <= 1e-10 * direct.pi.max()
    assert np.abs(res.rho - rho.rho).max() <= 1e-10 * rho.rho.max()


@SETTINGS
@given(hypergraphs())
def test_laplacian_symmetric_psd_with_ones_in_kernel(H):
    L = laplacian(H).L
    assert np.array_equal(L, L.T)
    assert np.abs(L @ np.ones(H.n_vertices)).max() <= 1e-10
    assert eigenvalues_symmetric(L)[0] >= -1e-10


@SETTINGS
@given(hypergraphs(weights=WIDE))
def test_clique_expansion_exactly_symmetric(H):
    W = clique_expansion_weights(H).weights
    assert np.array_equal(W, W.T)


@SETTINGS
@given(hypergraphs(weights=ANY_POSITIVE, names=st.text(max_size=6)))
def test_json_round_trip_is_lossless(H):
    assert loads_json(dumps_json(H)) == H


# -- fuzzed files: validate exits 0, 1 or 2, never with a traceback -----------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                               inner, max_size=3),
    max_leaves=8,
)
VERTEX = st.sampled_from(["a", "b", "c"])
WEIGHT = st.floats() | st.integers() | JSON_VALUES
EDGE = st.fixed_dictionaries({
    "weight": WEIGHT,
    "members": st.dictionaries(VERTEX, WEIGHT, max_size=3) | JSON_VALUES,
}) | JSON_VALUES
HYPERGRAPH_DOC = st.fixed_dictionaries({
    "vertices": st.lists(VERTEX | JSON_VALUES, max_size=4) | JSON_VALUES,
    "edges": st.lists(EDGE, max_size=3) | JSON_VALUES,
}) | JSON_VALUES
# Whitespace text (`weight v:g ...`): its alphabet has no "{", so no such file
# spells a hypergraph's JSON object, and each is refused (exit 1).
TEXT_FILE = st.text(string.ascii_letters[:4] + string.digits + ".:-# \n\t", max_size=40)


def _validate(name: str, content: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(content)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return dispatch(["validate", "--input", path])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(
    HYPERGRAPH_DOC.map(lambda doc: ("h.json", json.dumps(doc).encode(), (0, 1, 2))),
    TEXT_FILE.map(lambda text: ("h.txt", text.encode(), (1,))),
    st.tuples(st.sampled_from(["h.json", "h.txt"]), st.binary(max_size=24), st.just((0, 1, 2))),
))
def test_validate_exit_code_on_fuzzed_files(case):
    name, content, allowed = case
    assert _validate(name, content) in allowed
