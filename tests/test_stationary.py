"""Stationary distributions: walk iteration, direct solve, the per-edge
constants, closed forms, and the degree-fraction counterexample."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hyperwalk.stationary as stationary
import hyperwalk.walk as walk

from hyperwalk import (
    Hypergraph,
    NonPositiveWeight,
    NotEdgeIndependent,
    MassUnderflow,
    SingularSystem,
    SizeLimit,
    TransitionMatrix,
    degrees,
    dumps_json,
    rescale_edges,
    restart_matrix,
    stationary_direct,
    stationary_edge_independent,
    stationary_rho,
    stationary_walk,
    to_json_dict,
    transition_matrix,
)
from hyperwalk.cli import dispatch
from hyperwalk.core import _block_scatter, delta_normalized
from hyperwalk.rankagg import _fixed_point
from hyperwalk.stationary import (
    RESIDUAL_TOL,
    WALK_RTOL,
    _rho_scaled,
    _stationary_direct_of,
    _walk_product,
)
from hyperwalk.walk import DENSE_SIZE_LIMIT
from conftest import rebuilt, rho_normalized, round_sizes, sweep
from exact import exact_stationary
from oracles import edge_coupling_matrix, lu_stationary, naive_stationary

DEMO_PI = np.array([7, 2, 5, 3]) / 17


def test_demo_direct(h_demo):
    res = stationary_direct(transition_matrix(h_demo))
    np.testing.assert_allclose(res.pi, DEMO_PI, atol=1e-12)
    assert res.residual <= 1e-12
    assert res.rho is None
    assert res.method == "direct-solve"


def _chain_hypergraph(seed: int, n: int) -> Hypergraph:
    """Connected: edges of three consecutive vertices of a random order,
    plus random extra edges, with random weights."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    order = rng.permutation(n)
    groups = [order[i:i + 3] for i in range(0, n - 1, 2)]
    groups += [rng.choice(n, size=int(rng.integers(2, 6)), replace=False) for _ in range(n // 2)]
    return Hypergraph(names, [
        (float(rng.uniform(0.5, 2.0)), {names[j]: float(rng.uniform(0.25, 4.0)) for j in g})
        for g in groups
    ])


def test_direct_solve_is_bit_identical_in_both_entry_points(h_demo):
    # the n=301 chain takes three blocks of the solve, and each block's
    # inverse splits in halves; LU agrees where the chain is well conditioned
    for H in (h_demo, _chain_hypergraph(11, 301)):
        P = transition_matrix(H)
        before = P.matrix.copy()
        pi = stationary_direct(P).pi
        assert _stationary_direct_of(H).pi.tobytes() == pi.tobytes()
        assert P.matrix.tobytes() == before.tobytes()
        np.testing.assert_allclose(pi, lu_stationary(P), rtol=1e-12, atol=0.0)


def test_round_gives_the_same_bits_in_every_entry_point(monkeypatch):
    # above GTH_BLOCK states each entry point picks the states its first
    # round removes from the same pattern of P's nonzero entries: read from
    # P, or from H's co-member pairs with a nonzero term, where an edge too
    # big for any member to be removed is not read pair by pair
    chain = _chain_hypergraph(11, 301)
    names = chain.vertices[:200]
    big = Hypergraph(chain.vertices, [(1.0, dict.fromkeys(names, 1.0))]
                     + [(e["weight"], e["members"]) for e in to_json_dict(chain)["edges"]])
    for H in (chain, big):
        sizes = round_sizes(monkeypatch)
        pi = _stationary_direct_of(H).pi
        assert stationary_direct(transition_matrix(H)).pi.tobytes() == pi.tobytes()
        assert stationary_rho(H).pi.tobytes() == pi.tobytes()
        assert len(sizes) == 3 and len(set(sizes)) == 1 and sizes[0] > 0


def _round_inputs():
    """The n=301 chain, and the same chain with one edge of its first 200
    vertices, too big for any member to be removed."""
    chain = _chain_hypergraph(11, 301)
    big = Hypergraph(chain.vertices, [(1.0, dict.fromkeys(chain.vertices[:200], 1.0))]
                     + [(e["weight"], e["members"]) for e in to_json_dict(chain)["edges"]])
    return chain, big


def _split(H):
    """The state order, kept count and links of H's first round, and the
    parts the direct route builds for them."""
    order, m, links = stationary._round_order(stationary._term_pattern(H),
                                              np.arange(H.n_vertices))
    return order, m, links, stationary._walk_parts(H, order, m, links)


def test_split_build_equals_p_in_every_entry():
    # the kept states' block and each removed state's link entries receive
    # the terms P's own build gives them, in its order: the entries of P
    for H in _round_inputs():
        order, m, (indptr, places), (B, C, R) = _split(H)
        P = walk._lazy_walk(H, order)
        v = np.repeat(np.arange(m, H.n_vertices), np.diff(indptr))
        assert 0 < m < H.n_vertices and B.shape == (m, m)
        assert B.tobytes() == P[:m, :m].tobytes()
        assert C.tobytes() == P[places, v].tobytes()
        assert R.tobytes() == P[v, places].tobytes()
        # and nothing else in the removed states' rows and columns
        assert np.count_nonzero(P[m:]) == len(R) + np.count_nonzero(P[m:, m:])
        assert np.count_nonzero(P[:, m:]) == len(C) + np.count_nonzero(P[m:, m:])
        assert np.count_nonzero(P[m:, m:]) == np.count_nonzero(np.diag(P)[m:])


@pytest.mark.parametrize("term, message", [
    (np.nan, "transition probabilities must be finite"),
    (2.0, "rows must sum to 1"),
])
def test_split_build_checks_a_removed_state_row(monkeypatch, term, message):
    # a term planted in one factor of a removed state's entry lands in that
    # state's row only (its links and its diagonal), which the solve never
    # holds densely: the build still checks it, with P's own check's words
    H = _round_inputs()[0]
    order, m, _, _ = _split(H)
    entry = np.flatnonzero(H.indices == order[-1])[0]
    real = stationary._lazy_factors

    def planted(H):
        left, right = real(H)
        left = left.copy()
        left[entry] *= term
        return left, right

    monkeypatch.setattr(stationary, "_lazy_factors", planted)
    base = np.arange(H.n_vertices)
    assert stationary._round_order(stationary._term_pattern(H), base)[0].tolist() == order.tolist()
    P = _block_scatter(H.indptr, np.argsort(order)[H.indices], *planted(H), H.n_vertices)
    assert (P[:m] == walk._lazy_walk(H, order)[:m]).all()
    with pytest.raises(ValueError) as whole:
        walk._check_stochastic(P)
    assert str(whole.value).startswith(message)
    with pytest.raises(ValueError) as parts:
        _stationary_direct_of(H)
    assert str(parts.value) == str(whole.value)


def test_round_removes_nothing_from_one_edge_holding_every_vertex(monkeypatch):
    # the shape of CI's big-edge input at n=300: one edge holds every
    # vertex, so every state has 299 neighbours, none has d^2 <= n, and pi
    # is _gth of P in the states' own order, bit for bit
    n, rng = 300, np.random.default_rng(1)
    names = [f"v{i}" for i in range(n)]
    H = Hypergraph(names, [(1.0, dict(zip(names, rng.uniform(0.25, 4.0, n).tolist())))]
                   + [(1.5, {names[i]: 1.0, names[i + 1]: 2.0}) for i in range(0, n - 1, 7)])
    sizes = round_sizes(monkeypatch)
    want = stationary._gth(walk._lazy_walk(H))
    want /= want.sum()
    assert _stationary_direct_of(H).pi.tobytes() == want.tobytes()
    assert sizes == [0]


def test_demo_rho(h_demo):
    res = stationary_rho(h_demo)
    np.testing.assert_allclose(res.pi, DEMO_PI, atol=1e-10)
    # hand solve of the 2x2 coupling system for the demo fixture
    np.testing.assert_allclose(res.rho, [8 / 17, 9 / 17], atol=1e-10)
    omega = np.array([e["weight"] for e in to_json_dict(h_demo)["edges"]])
    assert res.rho @ omega == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-9
    assert res.method == "direct-solve"


def test_rho_fixed_point_identity():
    # the coupling matrix reads gamma / delta, so H need not be normalized first
    for H in sweep(301, 40):
        res = stationary_rho(H)
        for A in (edge_coupling_matrix(delta_normalized(H)), edge_coupling_matrix(H)):
            assert np.abs(A @ res.rho - res.rho).max() <= 1e-10


def test_rho_matches_direct_on_sweep():
    # stationary_rho is the direct solve of the memoized P, bit for bit
    for H in sweep(302, 50):
        pi_rho = stationary_rho(H).pi
        pi_direct = stationary_direct(transition_matrix(H)).pi
        assert pi_rho.tobytes() == pi_direct.tobytes()


def test_demo_walk_iteration(h_demo):
    res = stationary_walk(h_demo)
    np.testing.assert_allclose(res.pi, DEMO_PI, atol=1e-12)
    np.testing.assert_allclose(res.rho, [8 / 17, 9 / 17], atol=1e-12)
    assert res.residual <= WALK_RTOL * res.pi.max()
    assert res.method == "walk-iteration"


def test_walk_iteration_converges_on_a_dominated_member():
    """b holds 1e-20 of edge {a, b} and half of {b, c}, so pi is proportional
    to (1, 2e-20, 1e-20). Long before b and c get there the largest change
    is below WALK_RTOL * max(pi), while theirs is still a quarter of their
    mass per step; the iteration runs on until it is not."""
    H = Hypergraph(("a", "b", "c"), [(1.0, {"a": 1.0, "b": 1e-20}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    res = stationary_walk(H)
    assert res.method == "walk-iteration"
    np.testing.assert_allclose(res.pi, [1.0, 2e-20, 1e-20], rtol=1e-6, atol=0.0)
    nxt = res.pi @ transition_matrix(H).matrix
    assert (np.abs(nxt - res.pi) <= RESIDUAL_TOL * res.pi).all()


def test_subnormal_edge_weight_stops_both_rho_routes():
    """d = omega = 1e-320: the walk converges, and its per-edge constant
    sum of pi / d overflows, so it answers pi with no rho; stationary_rho,
    whose callers read rho, refuses."""
    H = Hypergraph(("a", "b"), [(1e-320, {"a": 1.0, "b": 1.0})])
    walked = stationary_walk(H)
    assert (walked.pi.tolist(), walked.rho, walked.method) == ([0.5, 0.5], None,
                                                               "walk-iteration")
    assert walked.as_dict()["rho"] == {}
    with pytest.raises(NonPositiveWeight, match=r"edge #0: per-edge constant rho_e overflows"):
        stationary_rho(H)
    np.testing.assert_array_equal(stationary_direct(transition_matrix(H)).pi, [0.5, 0.5])


def test_a_rescaled_weight_that_rounds_to_zero_after_a_rho_solve():
    # gamma / delta of a in the first edge, 5e-324 / 10, rounds to 0.0; the
    # stationary solve answers, and the rescaled weight rho_e * 0.0 is named
    H = Hypergraph(("a", "b", "c"), [(1.0, {"a": 5e-324, "b": 10.0}),
                                     (1.0, {"a": 1.0, "b": 1.0}), (1.0, {"b": 1.0, "c": 1.0})])
    assert stationary_rho(H).residual <= RESIDUAL_TOL
    with pytest.raises(NonPositiveWeight) as info:
        _rho_scaled(H)
    assert str(info.value) == "vertex 'a': a weight rescaled so rho_e = 1 rounds to 0.0"


def test_walk_iteration_above_the_dense_limit():
    """A well-mixing n=16,384 walk, checked against a residual recomputed
    here from the test's own incidence arrays in O(nnz)."""
    n = 4 * DENSE_SIZE_LIMIT
    rng = np.random.default_rng(307)
    # a path through a random order keeps it connected; random triples mix it
    order = rng.permutation(n)
    members = [order[i:i + 2] for i in range(n - 1)]
    members += [rng.choice(n, size=3, replace=False) for _ in range(n)]
    edge = np.repeat(np.arange(len(members)), [len(m) for m in members])
    vert = np.concatenate(members)
    gamma = rng.uniform(0.25, 4.0, size=len(vert))
    omega = rng.uniform(0.5, 2.0, size=len(members))
    names = [f"v{i}" for i in range(n)]
    g = iter(gamma.tolist())
    H = Hypergraph(names, [(w, {names[v]: next(g) for v in m})
                           for w, m in zip(omega.tolist(), members)])

    res = stationary_walk(H)
    assert res.method == "walk-iteration"
    assert res.vertices == tuple(names)
    pi = res.pi
    d = np.bincount(vert, weights=omega[edge], minlength=n)
    delta = np.bincount(edge, weights=gamma)
    rho = np.bincount(edge, weights=(pi / d)[vert])
    pi_p = np.bincount(vert, weights=(omega * rho / delta)[edge] * gamma, minlength=n)
    # WALK_RTOL plus room for this sum's own rounding order
    assert np.abs(pi_p - pi).max() <= 10 * WALK_RTOL * pi.max()
    assert pi.min() > 0.0
    assert abs(pi.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(res.rho, rho, rtol=1e-12)
    assert abs(res.rho @ omega - 1.0) <= 1e-12
    with pytest.raises(SizeLimit):
        stationary_rho(H)


def test_uniform_chain(triangle):
    res = stationary_direct(transition_matrix(triangle))
    np.testing.assert_allclose(res.pi, 1 / 3, atol=1e-14)


def test_restart_stationary_positive(h_demo):
    P = restart_matrix(transition_matrix(h_demo), 0.4)
    res = stationary_direct(P)
    assert res.residual <= 1e-12
    assert res.pi.min() > 0.0


def test_singular_system():
    P = TransitionMatrix(("a", "b"), np.eye(2))
    with pytest.raises(SingularSystem):
        stationary_direct(P)


# b's weight is 1e-20 of a's in their edge: the walk's mass sits on a. LU
# left -0.0 and -2e-20 for b and c; GTH subtracts nothing.
DOMINATED = {"vertices": ["a", "b", "c"], "edges": [
    {"weight": 1.0, "members": {"a": 1.0, "b": 1e-20}},
    {"weight": 1.0, "members": {"b": 1.0, "c": 1.0}},
]}


def test_direct_writes_no_negative_probability(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(DOMINATED))
    assert dispatch(["stationary", "--input", str(path), "--method", "direct"]) == 0
    out = capsys.readouterr().out
    H = Hypergraph(DOMINATED["vertices"],
                   [(e["weight"], e["members"]) for e in DOMINATED["edges"]])
    # the exact masses (1, 2e-20, 1e-20) / (1 + 3e-20), each rounded
    exact = [float(x) for x in exact_stationary(H)]
    assert json.loads(out)["pi"] == dict(zip("abc", exact)) == {"a": 1.0, "b": 2e-20, "c": 1e-20}
    assert "-" not in out[:out.index('"rho"')].replace("e-", "e")  # no -0.0, no negative
    res = _stationary_direct_of(H)
    assert res.pi.tolist() == exact and not np.signbit(res.pi).any()
    assert res.residual == float(np.abs(_walk_product(H)(res.pi) - res.pi).max())


def test_direct_of_a_subnormal_delta_builds_without_a_warning():
    # delta = 1e-323: omega / delta = inf, but the dense build never forms it
    H = Hypergraph(("a", "b"), [(1.0, {"a": 5e-324, "b": 5e-324})])
    assert _stationary_direct_of(H).pi.tolist() == [0.5, 0.5]


def test_direct_retries_in_reversed_order_where_the_float_range_ends(monkeypatch):
    # exact pi rounds to (5e-321, 0.5, 0.5): eliminated last, a takes mass 1
    # and b's is 2e320, past the float range; reversed, c is last and a's
    # mass is 5e-321 of it
    runs = []
    real = stationary._gth
    monkeypatch.setattr(stationary, "_gth", lambda M: runs.append(1) or real(M))
    H = Hypergraph(("a", "b", "c"), [(1e-320, {"a": 1.0, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    assert _stationary_direct_of(H).pi.tolist() == [5e-321, 0.5, 0.5]
    assert len(runs) == 2
    # b's mass is 2e320 of a's and of c's, and both orders eliminate a or c
    # last, so neither answers; keeping b last would answer (5e-321, 1, 5e-321)
    H = Hypergraph(("a", "b", "c"), [(1.0, {"a": 1e-320, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1e-320})])
    for solve in (_stationary_direct_of, lambda H: stationary_direct(transition_matrix(H))):
        with pytest.raises(MassUnderflow, match="^stationary probabilities span more than the "
                                                "float range in both state orders"):
            solve(H)


def test_direct_reads_a_slightly_negative_entry_as_zero():
    # the row check lets an entry lie down to -1e-15; the solve reads 0.0
    P = TransitionMatrix(("a", "b"), np.array([[0.5, 0.5], [1.0 + 1e-16, -1e-16]]))
    pi = stationary_direct(P).pi
    assert pi.tolist() == [2 / 3, 1 / 3] and not np.signbit(pi).any()


def test_fixed_point_names_a_singular_system():
    with pytest.raises(SingularSystem, match="^stationary solve failed: "):
        _fixed_point(np.eye(2).T)


def test_direct_in_the_walk_matrix_buffer_equals_the_public_solve(h_demo):
    # a fresh hypergraph, and one that already holds P: either way P's array
    # is built afresh and solved in its own buffer, and a held P is left as
    # it was; the residual is the walk product's, not P's, and rho is
    # stationary_rho's
    for H in [h_demo, _chain_hypergraph(13, 64)] + sweep(304, 15):
        want = stationary_direct(transition_matrix(rebuilt(H)))
        rho = stationary_rho(rebuilt(H)).rho
        residual = float(np.abs(_walk_product(H)(want.pi) - want.pi).max())
        P = transition_matrix(H)
        before = P.matrix.tobytes()
        for got in (_stationary_direct_of(rebuilt(H)), _stationary_direct_of(H)):
            assert got.pi.tobytes() == want.pi.tobytes()
            assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()
            assert (got.vertices, got.method) == (want.vertices, "direct-solve")
            assert got.rho.tobytes() == rho.tobytes()
        assert transition_matrix(H) is P and P.matrix.tobytes() == before


def test_direct_stores_nothing_on_the_hypergraph(h_demo, monkeypatch):
    # each call builds P's array once, solves in it and drops it: H's memo
    # keeps only the degrees the build reads
    builds = []
    real = stationary._walk_parts
    monkeypatch.setattr(stationary, "_walk_parts",
                        lambda H, *states: builds.append(1) or real(H, *states))
    want = stationary_direct(transition_matrix(rebuilt(h_demo))).pi
    residual = float(np.abs(_walk_product(h_demo)(want) - want).max())
    H = rebuilt(h_demo)
    for calls in (1, 2):
        got = _stationary_direct_of(H)
        assert H._memo.keys() == {"degrees"} and len(builds) == calls
        assert got.pi.tobytes() == want.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(residual).tobytes()


def test_direct_command_holds_one_walk_matrix(tmp_path, monkeypatch):
    # P is solved in its own buffer, so the traced peak is P plus the input's
    # parse and the solve's O(GTH_BLOCK^2) workspace, not P and a copy of it;
    # the kept states' block lives in a mapping, which tracemalloc does not
    # see (test_direct_command_grows_by_the_kept_block measures it)
    n = 1024
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(dumps_json(_chain_hypergraph(14, n)))
    builds = []
    for module, name in ((walk, "_lazy_walk"), (stationary, "_walk_parts")):
        monkeypatch.setattr(module, name, lambda H, *states, _real=getattr(module, name):
                            builds.append(1) or _real(H, *states))
    tracemalloc.start()
    try:
        assert dispatch(["stationary", "--input", str(path), "--method", "direct",
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n
    assert len(builds) == 1


_RESIDENT = """
import json, sys
import hyperwalk.stationary as stationary
from hyperwalk.cli import dispatch

def status(key):  # bytes
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1]) for line in fh if line.startswith(key + ":"))

stationary.GTH_BLOCK = 32  # the solve's O(GTH_BLOCK^2) workspace out of the way
kept, starts, real = [], [], (stationary._round_order, stationary._dense_pi)

def round_order(A, base):
    found = real[0](A, base)
    kept.append(found[1])
    return found

def dense_pi(*args):
    starts.append(status("VmRSS"))
    return real[1](*args)

stationary._round_order, stationary._dense_pi = round_order, dense_pi
peaks = []
for path in sys.argv[1:]:
    assert dispatch(["stationary", "--input", path, "--method", "direct",
                     "--out", path + ".out"]) == 0
    peaks.append(status("VmHWM"))
print(json.dumps({"kept": kept, "starts": starts, "peaks": peaks}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_direct_command_grows_by_the_kept_block(tmp_path):
    # tracemalloc does not see a mapping, so a fresh process reads its own
    # resident high-water mark. After a small command has paid every first
    # use, the solve's peak grows over its start by the block of the m
    # states the round keeps, not by all of P: measured 1.01 x 8 m^2 at
    # m = 693 (2.18 with the n x n buffer). A second command reaches the
    # same mark, within a quarter of the block (measured 20 KB).
    paths = [tmp_path / "small.json", tmp_path / "in.json"]
    paths[0].write_text(dumps_json(_chain_hypergraph(14, 300)))
    paths[1].write_text(dumps_json(_chain_hypergraph(14, 1024)))
    env = dict(os.environ, PYTHONPATH=str(Path(stationary.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _RESIDENT, *map(str, paths + paths[1:])],
                         env=env, capture_output=True, text=True, check=True)
    found = json.loads(run.stdout)
    m = found["kept"][1]
    assert m < 1024 and found["kept"][1:] == [m, m]
    for start, peak in zip(found["starts"][1:], found["peaks"][1:]):
        assert peak - start <= 1.25 * 8 * m * m
    assert found["peaks"][2] - found["peaks"][1] <= 0.25 * 8 * m * m


@pytest.mark.parametrize("n", [256, 1024])
def test_dense_solve_workspace_does_not_grow_with_n(monkeypatch, n):
    # Every panel product goes through one GTH_BLOCK x GTH_BLOCK workspace,
    # so beside M the solve's traced peak is a few GTH_BLOCK^2 arrays (the
    # workspace, the block inverse and its halves) and pi. Measured with
    # GTH_BLOCK = 32: 39.0 KB at n=256 and 40.4 KB at n=1024, 4.8 and 4.9 x
    # 8 GTH_BLOCK^2 bytes; with an n-wide temporary per panel product it was
    # 174 KB and 385 KB.
    monkeypatch.setattr(stationary, "GTH_BLOCK", 32)
    rng = np.random.default_rng(n)
    M = rng.random((n, n))
    M /= M.sum(axis=1, keepdims=True)
    stationary._gth(M.copy())
    tracemalloc.start()
    try:
        assert stationary._gth(M) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * stationary.GTH_BLOCK ** 2


# -- closed forms ------------------------------------------------------------------

def test_edge_independent_trivial_is_degree_fraction():
    for H in sweep(303, 10, trivial=True):
        res = stationary_edge_independent(H)
        d, _ = degrees(H)
        np.testing.assert_allclose(res.pi, d / d.sum(), atol=1e-15)
        assert res.method == "closed-form-trivial"


def test_edge_independent_scaling_cancels(triangle):
    doubled = Hypergraph(
        triangle.vertices,
        [(e["weight"], {v: 2.0 for v in e["members"]})
         for e in to_json_dict(triangle)["edges"]],
    )
    r1 = stationary_edge_independent(triangle)
    r2 = stationary_edge_independent(doubled)
    np.testing.assert_allclose(r1.pi, r2.pi, atol=1e-15)
    assert r2.method == "closed-form-edge-independent"


def test_edge_independent_matches_direct():
    for H in sweep(304, 25, edge_independent=True):
        res = stationary_edge_independent(H)
        direct = stationary_direct(transition_matrix(H))
        assert np.abs(res.pi - direct.pi).max() <= 1e-10


def test_closed_form_builds_no_walk_matrix(monkeypatch):
    # its residual is the walk product's, so it does not build P, and it
    # answers past the dense limit
    def unreachable(*args, **kwargs):
        raise AssertionError("P was built")

    n = DENSE_SIZE_LIMIT + 1
    names = [f"v{i}" for i in range(n)]
    H = Hypergraph(names, [(1.0 + i % 3, {names[i]: 1.0 + i % 5, names[i + 1]: 1.0 + (i + 1) % 5})
                           for i in range(n - 1)])
    monkeypatch.setattr(walk, "_block_scatter", unreachable)
    res = stationary_edge_independent(H)
    assert res.residual <= 1e-15 and abs(res.pi.sum() - 1.0) <= 1e-12


def test_edge_independent_rejects_demo(h_demo):
    with pytest.raises(NotEdgeIndependent):
        stationary_edge_independent(h_demo)


# -- naive formula -----------------------------------------------------------------

def test_naive_demo_value_and_mismatch(h_demo):
    naive = naive_stationary(h_demo)
    np.testing.assert_allclose(naive, [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-15)
    true_pi = stationary_direct(transition_matrix(h_demo)).pi
    assert np.abs(naive - true_pi).max() > 0.05


def test_naive_ignores_vertex_weights(h_demo):
    rng = np.random.default_rng(305)
    base = naive_stationary(h_demo)
    for _ in range(5):
        scaled = rescale_edges(h_demo, rng.uniform(0.1, 10.0, size=2))
        assert np.array_equal(naive_stationary(scaled), base)


def test_naive_equals_true_for_trivial_weights():
    for H in sweep(306, 10, trivial=True):
        naive = naive_stationary(H)
        true_pi = stationary_direct(transition_matrix(H)).pi
        np.testing.assert_allclose(naive, true_pi, atol=1e-10)


def test_naive_uniform_on_single_edge(triangle):
    np.testing.assert_allclose(naive_stationary(triangle), 1 / 3, atol=1e-15)


# -- rho normalization ---------------------------------------------------------------

def test_rho_normalized_fixed_point(h_demo):
    Hn = rho_normalized(h_demo)
    # after rescaling, pi_v is literally the sum of omega * gamma over
    # incident edges and the per-edge constants are all 1
    weights = np.repeat(Hn.omega, np.diff(Hn.indptr)) * Hn.gamma
    pi = np.bincount(Hn.indices, weights=weights, minlength=Hn.n_vertices)
    np.testing.assert_allclose(pi, DEMO_PI, atol=1e-10)
    res = stationary_rho(Hn)
    _, delta = degrees(Hn)
    np.testing.assert_allclose(res.rho, delta, atol=1e-10)  # rho_e == delta'_e <=> raw constants are 1


def test_rho_normalization_keeps_walk(h_demo):
    P1 = transition_matrix(h_demo).matrix
    P2 = transition_matrix(rho_normalized(h_demo)).matrix
    assert np.abs(P1 - P2).max() <= 1e-12
