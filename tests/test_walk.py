"""Transition matrices and trajectory simulation."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from hyperwalk import (
    BadBeta,
    ConvergenceFailure,
    DuplicateVertex,
    Hypergraph,
    SingletonEdge,
    SizeLimit,
    TransitionMatrix,
    UnknownVertex,
    degrees,
    mixing_time_bound,
    nonlazy_transition_matrix,
    rescale_edges,
    restart_matrix,
    stationary_direct,
    stationary_rho,
    stationary_walk,
    to_json_dict,
    transition_matrix,
)
from hyperwalk.core import _block_scatter, _vertex_major
from hyperwalk.stationary import RESIDUAL_TOL, WALK_MAX_ITER, WALK_RTOL
from conftest import rho_normalized, sweep
from oracles import edge_coupling_matrix, simulate

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


def test_subnormal_delta_builds_without_a_warning():
    # delta = 1e-323: omega / delta overflows, but only the walk step reads it
    H = Hypergraph(("a", "b"), [(1.0, {"a": 5e-324, "b": 5e-324})])
    assert transition_matrix(H).matrix.tolist() == [[0.5, 0.5], [0.5, 0.5]]


def factored_walk(H):
    """The lazy walk's factors, formed here as the reference: d and delta,
    each CSR entry's edge id, and (omega(e) / d(v), gamma_e(w) / delta(e)),
    which both the dense build and the walk product read."""
    d, delta = degrees(H)
    sizes = np.diff(H.indptr)
    return SimpleNamespace(d=d, edge=np.repeat(np.arange(H.n_edges), sizes),
                           left=np.repeat(H.omega, sizes) / d[H.indices],
                           right=H.gamma / np.repeat(delta, sizes))


def factored_iteration(H):
    """stationary_walk's (pi, rho, residual) by the reference factors, or
    None where it must raise ConvergenceFailure."""
    f = factored_walk(H)

    def step(pi):  # per edge the flow of pi * (omega / d), per member times gamma / delta
        flow = np.bincount(f.edge, weights=pi[H.indices] * f.left, minlength=H.n_edges)
        return np.bincount(H.indices, weights=flow[f.edge] * f.right, minlength=H.n_vertices)

    pi = np.full(H.n_vertices, 1.0 / H.n_vertices)
    for _ in range(WALK_MAX_ITER):
        nxt = step(pi)
        change = np.abs(nxt - pi)
        if change.max() <= WALK_RTOL * pi.max() and (change <= RESIDUAL_TOL * pi).all():
            break
        pi = nxt
    else:
        return None
    pi = pi / pi.sum()
    with np.errstate(over="ignore"):  # pi / d past the float range: refused
        rho = np.bincount(f.edge, weights=(pi / f.d)[H.indices], minlength=H.n_edges)
    if not np.isfinite(rho).all():
        return None
    return pi, rho, float(np.abs(step(pi) - pi).max())


@pytest.mark.parametrize("H", sweep(205, 20, max_vertices=10) + [
    Hypergraph(("a", "b"), [(1.0, {"a": 5e-324, "b": 5e-324})])],
    ids=[f"sweep-{k}" for k in range(20)] + ["subnormal-delta"])
def test_each_walk_keeps_the_bits_of_its_factors(H):
    # every reader reads the lazy walk's own factors, each in its own product order
    f = factored_walk(H)
    P = _block_scatter(H.indptr, H.indices, f.left, f.right, H.n_vertices)
    assert transition_matrix(H).matrix.tobytes() == P.tobytes()
    want = factored_iteration(H)
    if want is None:
        with pytest.raises(ConvergenceFailure):
            stationary_walk(H)
    else:
        got = stationary_walk(H)
        assert (got.pi.tobytes(), got.rho.tobytes(), got.residual) == \
            (want[0].tobytes(), want[1].tobytes(), want[2])
    # the coupling-matrix oracle and the mixing bound's beta1 read H's own
    # gamma / delta, so no delta(e) = 1 copy is built; rho is one sum of
    # pi / d per edge
    sizes = np.diff(H.indptr)
    vptr, order = _vertex_major(H)
    contrib = np.repeat(H.omega, sizes) * f.right / f.d[H.indices]
    A = _block_scatter(vptr, f.edge[order], np.ones(len(order)), contrib[order], H.n_edges)
    assert edge_coupling_matrix(H).tobytes() == A.tobytes()
    res = stationary_rho(H)
    rho = np.bincount(f.edge, weights=(res.pi / f.d)[H.indices], minlength=H.n_edges)
    assert res.rho.tobytes() == rho.tobytes()
    # beta2 reads the rho-rescaled weights per entry, rho_e * (gamma / delta),
    # so no rescaled copy is built and a subnormal delta leaves it in range
    bound = mixing_time_bound(H, 0.25)
    assert (bound.beta1, bound.beta2, bound.d_min) == \
        (float(f.right.min()), float(np.min(np.repeat(res.rho, sizes) * f.right)),
         float(f.d.min()))
    if H.vertices == ("a", "b"):  # the subnormal delta: rho = 1 and gamma / delta = 0.5
        assert bound.beta2 == 0.5
    else:  # the paper's beta2, the least weight of the rho-rescaled copy: 1 ulp apart at most here
        want = rho_normalized(H).gamma.min()
        assert abs(bound.beta2 - want) <= 2 * np.spacing(want)


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


def test_transition_matrix_rejects_a_wrong_shape():
    # not square, square but not one row per vertex, and one row alone
    for M in (np.full((4, 2), 0.5), np.full((2, 2), 0.5), np.full(4, 0.25)):
        with pytest.raises(ValueError, match="^transition matrix shape does not match"):
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


@pytest.mark.parametrize("beta", [np.longdouble("1e-400"),
                                  np.longdouble(1.0) - np.longdouble("1e-19")],
                         ids=["rounds-to-0", "rounds-to-1"])
def test_restart_checks_beta_as_the_float_it_mixes_in(h_demo, beta):
    # both lie inside (0, 1) as longdouble, but the restart mix would take
    # beta as 0.0 or 1.0
    P = transition_matrix(h_demo)
    with pytest.raises(BadBeta, match=r"^restart probability must lie in \(0, 1\), got "):
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


@pytest.mark.parametrize("vertices, name", [(["a", "a"], "a"), ([1, "1"], "1")])
def test_transition_matrix_rejects_a_repeated_vertex(vertices, name):
    # names are compared as str, as Hypergraph and WeightedGraph compare them
    with pytest.raises(DuplicateVertex, match=f"vertex '{name}' declared more than once"):
        TransitionMatrix(vertices, np.full((2, 2), 0.5))


@pytest.mark.parametrize("row, message", [([np.nan, 1.0, 0.0, 0.0], "must be finite"),
                                          ([np.inf, 0.0, 0.0, 0.0], "must be finite"),
                                          ([0.5, 0.0, 0.0, 0.0], "rows must sum to 1"),
                                          ([-0.25, 1.25, 0.0, 0.0], "must be nonnegative")])
def test_same_vertices_keeps_every_check(h_demo, row, message):
    # the shared constructor skips only the names' check
    P = transition_matrix(h_demo)
    bad = P.matrix.copy()
    bad[0] = row
    with pytest.raises(ValueError, match=message):
        TransitionMatrix._over(P, bad)


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


def nonlazy_summation(H):
    """Entrywise evaluation of the non-lazy walk from the member dicts, each
    member's normalizer the plain sum of the other members' weights; oracle
    for the scatter-built matrix."""
    n = H.n_vertices
    d, _ = degrees(H)
    P = np.zeros((n, n))
    for e in to_json_dict(H)["edges"]:
        members = e["members"]
        for v in members:
            others = sum(g for w, g in members.items() if w != v)
            for w, gw in members.items():
                if w != v:
                    P[H.index(v), H.index(w)] += (e["weight"] / d[H.index(v)]) * (gw / others)
    return P


@pytest.mark.parametrize("weight_range", [(0.1, 10.0), (1e-20, 1.0), (1e-60, 1e60)])
def test_nonlazy_equals_summation(weight_range):
    # wide weight ranges make some member dominate its edge, where
    # delta(e) - gamma_e(v) would lose every bit of the other members' sum
    for H in sweep(206, 40, weight_range=weight_range, min_edge_size=2):
        P = nonlazy_transition_matrix(H).matrix
        ref = nonlazy_summation(H)
        assert np.array_equal(P == 0.0, ref == 0.0)
        assert np.all(np.abs(P - ref) <= 1e-15 * ref)


def test_nonlazy_dominated_member_is_exact():
    # delta - gamma(a) = (1 + 1e-20) - 1 = 0: the walk from a still moves to b
    H = Hypergraph(("a", "b", "c"), [(1.0, {"a": 1.0, "b": 1e-20}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    P = nonlazy_transition_matrix(H).matrix
    assert P[0].tolist() == [0.0, 1.0, 0.0]
    assert P[1].tolist() == [0.5, 0.0, 0.5]


def test_nonlazy_walk_with_huge_weights():
    # d(b) * (sum of b's other members' gamma) = 1e300 * 1e300 overflows;
    # the lazy walk's omega / d(b) = 1e-300 divided by 1e-300 does not
    H = Hypergraph(("a", "b", "c"), [(1e300, {"a": 1e300, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1e-300})])
    assert nonlazy_transition_matrix(H).matrix.tolist() == [[0.0, 1.0, 0.0],
                                                            [1.0, 0.0, 1e-300],
                                                            [0.0, 1.0, 0.0]]


def test_nonlazy_trivial_weights_keep_their_bits():
    # with all-ones weights each normalizer is |e| - 1 exactly, as delta -
    # gamma gave it: the matrices behind criterion 8 are (omega / d) / (|e| - 1)
    # times gamma, with the lazy walk's omega / d, bit for bit
    for H in sweep(8, 100, trivial=True, min_edge_size=2):
        d, _ = degrees(H)
        sizes = np.diff(H.indptr)
        coeff = np.repeat(H.omega, sizes) / d[H.indices] / np.repeat(sizes - 1.0, sizes)
        P = _block_scatter(H.indptr, H.indices, coeff, H.gamma, H.n_vertices)
        np.fill_diagonal(P, 0.0)
        assert np.array_equal(nonlazy_transition_matrix(H).matrix, P)


# -- simulation -------------------------------------------------------------------

def test_simulate_zero_steps(h_demo):
    P = transition_matrix(h_demo)
    assert simulate(P, "v2", 0, seed=1) == ["v2"]


def test_simulate_refuses_negative_steps(h_demo):
    with pytest.raises(ValueError, match="^steps must be nonnegative$"):
        simulate(transition_matrix(h_demo), "v1", -1, 0)


def test_simulate_unknown_start(h_demo):
    P = transition_matrix(h_demo)
    with pytest.raises(UnknownVertex):
        simulate(P, "nope", 5, seed=1)


def test_simulate_never_steps_where_the_row_has_no_probability(monkeypatch):
    # row 0's cdf ends at 0.9999999999999999 < 1, and P[0, 10] = 0: a draw in
    # that gap steps to the row's last reachable column, 9, not onto 10
    row = [0.1] * 10 + [0.0]
    assert np.cumsum(row)[-1] == 1.0 - 2.0 ** -53
    P = TransitionMatrix([str(v) for v in range(11)], [row] * 11)
    draws = iter([1.0 - 2.0 ** -53, 0.95, 0.05])
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: SimpleNamespace(random=lambda: next(draws)))
    assert simulate(P, "0", 3, seed=1) == ["0", "9", "9", "0"]


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
