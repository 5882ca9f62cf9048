"""Laplacian, eigensolver, Cheeger constant, and mixing-time machinery."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from hyperwalk import (
    ConvergenceFailure,
    Hypergraph,
    HyperwalkError,
    MassUnderflow,
    NoFeasibleSubset,
    NotSymmetric,
    SizeLimit,
    TransitionMatrix,
    check_cheeger,
    cheeger_constant,
    dumps_json,
    eigenvalues_symmetric,
    eigh_symmetric,
    laplacian,
    loads_json,
    mixing_time_bound,
    spectral_report,
    stationary_direct,
    stationary_rho,
    transition_matrix,
)
import hyperwalk.spectral as spectral
import hyperwalk.stationary as stationary
from hyperwalk.spectral import _bound_from_components
from hyperwalk.cli import dispatch
from conftest import rebuilt, rho_normalized, sweep
from oracles import Unmixed, empirical_mixing_time


# -- eigensolver -------------------------------------------------------------------

def test_eigenvalues_diagonal():
    np.testing.assert_allclose(eigenvalues_symmetric(np.diag([3.0, 1.0, 2.0])),
                               [1.0, 2.0, 3.0], atol=1e-14)


def test_eigenvalues_uniform_chain_laplacian(triangle):
    L = laplacian(triangle).L
    np.testing.assert_allclose(L, np.eye(3) / 3 - np.ones((3, 3)) / 9, atol=1e-12)
    np.testing.assert_allclose(eigenvalues_symmetric(L), [0.0, 1 / 3, 1 / 3], atol=1e-12)


def test_eigensolver_matches_lapack():
    rng = np.random.default_rng(401)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        mine = eigenvalues_symmetric(A)
        ref = np.linalg.eigvalsh(A)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(mine - ref).max() <= 1e-10 * scale


def test_eigensolver_residuals():
    rng = np.random.default_rng(402)
    A = rng.normal(size=(9, 9))
    A = (A + A.T) / 2
    evals, vecs = eigh_symmetric(A)
    norm = np.linalg.norm(A, 2)
    for lam, x in zip(evals, vecs.T):
        assert np.linalg.norm(A @ x - lam * x) <= 1e-8 * norm


def _perturbing_eigh(monkeypatch):
    real = np.linalg.eigh

    def perturbed(M):
        evals, vecs = real(M)
        vecs = vecs.copy()
        vecs[0, 0] += 1e-6  # one entry of one vector
        return evals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


def test_eigensolver_checks_its_residual(monkeypatch):
    _perturbing_eigh(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="eigendecomposition residual"):
        eigh_symmetric(np.diag([3.0, 1.0, 2.0]))


def test_spectral_command_names_a_bad_eigensolve(h_demo, tmp_path, monkeypatch, capsys):
    path = tmp_path / "demo.json"
    path.write_text(dumps_json(h_demo))
    _perturbing_eigh(monkeypatch)
    assert dispatch(["spectral", "--input", str(path), "--check-cheeger"]) == 1
    captured = capsys.readouterr()
    assert "ConvergenceFailure" in captured.err
    assert "eigendecomposition residual" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_failed_eigensolve_is_a_domain_error(h_demo, tmp_path, monkeypatch, capsys):
    def failing(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceFailure, match="eigendecomposition failed: Eigenvalues did"):
        eigh_symmetric(np.diag([3.0, 1.0, 2.0]))
    path = tmp_path / "demo.json"
    path.write_text(dumps_json(h_demo))
    assert dispatch(["spectral", "--input", str(path)]) == 1  # not a usage error (2)
    captured = capsys.readouterr()
    assert captured.err == ("error: ConvergenceFailure: eigendecomposition failed: "
                            "Eigenvalues did not converge\n")
    assert captured.out == ""


def test_eigensolver_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eigenvalues_symmetric(np.zeros((2, 3)))


# -- Laplacian ------------------------------------------------------------------------

SUBNORMAL_EDGE = ('{"vertices": ["v1", "v2", "v3", "v4"], "edges": ['
                  '{"weight": 5e-324, "members": {"v1": 2.0, "v2": 1.0, "v3": 1.0}}, '
                  '{"weight": 1.0, "members": {"v1": 1.0, "v3": 1.0, "v4": 1.0}}]}')


@pytest.mark.parametrize("flags", [[], ["--check-cheeger"]])
def test_zero_stationary_mass_is_named(tmp_path, capsys, flags):
    # v2 lies only in the edge of weight 5e-324, so its mass is 0.0: the
    # normalized Laplacian's 1/sqrt(pi) cannot be formed (no numpy warning,
    # which tier-1 turns into an error, may come first)
    path = tmp_path / "subnormal_edge.json"
    path.write_text(SUBNORMAL_EDGE)
    H = loads_json(SUBNORMAL_EDGE)
    assert stationary_rho(H).pi[1] == 0.0
    with pytest.raises(MassUnderflow, match="vertex 'v2' is 0.0"):
        laplacian(H)
    assert dispatch(["spectral", "--input", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: MassUnderflow: stationary probability of vertex 'v2' is "
                            "0.0, below the float range: the normalized Laplacian divides by "
                            "its square root\n")
    assert captured.out == ""


def test_demo_laplacian_entry(h_demo):
    lap = laplacian(h_demo)
    assert lap.L[1, 0] == pytest.approx(-15 / 272, abs=1e-12)
    np.testing.assert_allclose(lap.L, lap.L.T, atol=1e-15)
    assert np.abs(lap.L.sum(axis=1)).max() <= 1e-10
    assert eigenvalues_symmetric(lap.L)[0] >= -1e-10


def test_laplacian_properties_on_sweep():
    for H in sweep(403, 15):
        lap = laplacian(H)
        assert np.abs(lap.L - lap.L.T).max() <= 1e-12
        assert np.abs(lap.L.sum(axis=1)).max() <= 1e-10
        assert eigenvalues_symmetric(lap.L)[0] >= -1e-10


def test_reversibilization_identity():
    # L is the combinatorial Laplacian of the graph with weights
    # (pi_u p_uv + pi_v p_vu) / 2
    for H in sweep(404, 10):
        P = transition_matrix(H)
        pi = stationary_rho(H).pi
        lap = laplacian(H)
        S = (pi[:, None] * P.matrix + (pi[:, None] * P.matrix).T) / 2
        L2 = np.diag(S.sum(axis=1)) - S
        assert np.abs(lap.L - L2).max() <= 1e-10


# -- Cheeger ------------------------------------------------------------------------

def brute_force_cheeger(P, pi):
    """Independent enumeration (by subset size, via itertools.combinations)
    with the same fixed accumulation order as the library's bitmask walk, so
    the two must agree exactly."""
    n = len(pi)
    best_ratio = None
    best_subset = None
    for k in range(1, n):
        for S in itertools.combinations(range(n), k):
            in_s = set(S)
            pi_s = 0.0
            for x in S:
                pi_s += float(pi[x])
            if pi_s > 0.5:
                continue
            flow = 0.0
            for x in S:
                for y in range(n):
                    if y not in in_s:
                        flow += float(pi[x] * P[x, y])
            ratio = flow / pi_s
            if (best_ratio is None or ratio < best_ratio
                    or (ratio == best_ratio and S < best_subset)):
                best_ratio = ratio
                best_subset = S
    return best_ratio, best_subset


def test_two_vertex_cheeger(two_vertex_edge):
    res = cheeger_constant(two_vertex_edge)
    assert res.phi == pytest.approx(0.5, abs=1e-14)
    assert res.argmin == ("a",)  # lexicographic tie-break between {a} and {b}


def test_cheeger_of_parallel_copies_of_one_edge():
    # pi is (0.5, 0.5) exactly, so {v0} has pi(S) <= 1/2; an edge-coupling
    # LU gave both vertices 0.5000000000000001, which left no subset to
    # score, and the enumeration crashed
    H = Hypergraph(("v0", "v1"), [(1.0, {"v0": 1.0, "v1": 1.0})] * 5)
    assert stationary_rho(H).pi.tolist() == [0.5, 0.5]
    result = cheeger_constant(H)
    assert (result.phi, result.argmin) == (0.5, ("v0",))


def test_demo_cheeger_value_and_cross_check(h_demo):
    res = cheeger_constant(h_demo)
    assert res.phi == pytest.approx(89 / 192, abs=1e-12)
    assert res.argmin == ("v3", "v4")
    P = transition_matrix(h_demo)
    pi = stationary_rho(h_demo).pi
    phi2, subset2 = brute_force_cheeger(P.matrix, pi)
    assert res.phi == phi2  # bit-for-bit
    assert res.argmin == tuple(h_demo.vertices[i] for i in subset2)


def test_cheeger_cross_check_on_sweep():
    for H in sweep(405, 15):
        res = cheeger_constant(H)
        P = transition_matrix(H)
        pi = stationary_rho(H).pi
        phi2, subset2 = brute_force_cheeger(P.matrix, pi)
        assert res.phi == phi2
        assert res.argmin == tuple(H.vertices[i] for i in subset2)


def _assert_matches_brute_force(H, res):
    phi2, subset2 = brute_force_cheeger(transition_matrix(H).matrix, stationary_rho(H).pi)
    assert res.phi == phi2
    assert res.argmin == tuple(H.vertices[i] for i in subset2)


def _uniform_complete(n):
    names = [f"v{i}" for i in range(n)]
    return Hypergraph(names, [(1.0, {v: 1.0 for v in names})])


def test_cheeger_near_ties_match_brute_force():
    # In a uniform complete hypergraph every subset of one size ties, and for
    # even n half of the vertices carry pi(S) = 1/2 exactly. With all weights
    # 1 many subsets tie up to the last bit or have pi(S) within an ulp of
    # 1/2, so block sums and fixed-order sums order them differently and the
    # rescoring must undo that.
    instances = ([_uniform_complete(n) for n in range(2, 11)]
                 + sweep(1000, 25, trivial=True) + sweep(1001, 25, trivial=True))
    for H in instances:
        _assert_matches_brute_force(H, cheeger_constant(H))


def test_cheeger_block_size_does_not_matter(monkeypatch):
    instances = sweep(405, 15)
    results = {}
    monkeypatch.setattr(spectral, "ROWS_FLOOR", 1)  # blocks of single rows too
    for block in (1, 3, spectral.CHEEGER_BLOCK):
        monkeypatch.setattr(spectral, "CHEEGER_BLOCK", block)
        # a fresh copy per block size enumerates anew
        results[block] = [cheeger_constant(rebuilt(H)) for H in instances]
    assert results[1] == results[3] == results[spectral.CHEEGER_BLOCK]
    for H, res in zip(instances, results[1]):
        _assert_matches_brute_force(H, res)


def _numpy_cheeger_ratios(P, pi):
    """Every mask's pi(S) and flow/pi(S), with the flow taken as total
    outflow minus the flow inside S (a different formula from the library's),
    over chunks of 2^14 masks."""
    n = len(pi)
    F = pi[:, None] * P
    masks = np.arange(1 << n)
    pi_s = np.empty(len(masks))
    flow = np.empty(len(masks))
    for start in range(0, len(masks), 1 << 14):
        chunk = slice(start, start + (1 << 14))
        inside = ((masks[chunk, None] >> np.arange(n)) & 1).astype(float)
        pi_s[chunk] = inside @ pi
        flow[chunk] = inside @ F.sum(axis=1) - np.einsum("ki,ij,kj->k", inside, F, inside)
    with np.errstate(invalid="ignore", divide="ignore"):
        return masks, pi_s, flow / pi_s


def test_cheeger_n18_against_numpy_oracle():
    rng = np.random.default_rng(18)
    n = 18
    names = [f"v{i}" for i in range(n)]
    edges = [(float(rng.uniform(0.1, 10.0)),
                       {names[i]: float(rng.uniform(0.1, 10.0)),
                        names[(i + 1) % n]: float(rng.uniform(0.1, 10.0))})
             for i in range(n)]
    for _ in range(6):
        members = rng.choice(n, size=4, replace=False)
        edges.append((float(rng.uniform(0.1, 10.0)),
                               {names[j]: float(rng.uniform(0.1, 10.0)) for j in members}))
    H = Hypergraph(names, edges)
    res = cheeger_constant(H)
    masks, pi_s, ratio = _numpy_cheeger_ratios(transition_matrix(H).matrix,
                                                stationary_rho(H).pi)
    feasible = (masks > 0) & (masks < (1 << n) - 1) & (pi_s <= 0.5)
    phi = ratio[feasible].min()
    assert abs(res.phi - phi) <= 1e-12
    argmin = sum(1 << H.index(v) for v in res.argmin)
    assert pi_s[argmin] <= 0.5 + 1e-12
    assert abs(ratio[argmin] - phi) <= 1e-12


def _ring_hypergraph(rng, n, extra):
    """n vertices on a ring of 2-member edges plus ``extra`` random 4-member
    edges (fewer members when n < 4), all weights drawn from [0.1, 10]."""
    names = [f"v{i}" for i in range(n)]

    def draw():
        return float(rng.uniform(0.1, 10.0))

    edges = [(draw(), {names[i]: draw(), names[(i + 1) % n]: draw()}) for i in range(n)]
    for _ in range(extra):
        members = rng.choice(n, size=min(4, n), replace=False)
        edges.append((draw(), {names[j]: draw() for j in members}))
    return Hypergraph(names, edges)


def _blocks(n):
    """CHEEGER_BLOCK values giving 1 and 3 rows of A per block (once the
    ROWS_FLOOR is patched to 1), and the default."""
    u = n - n // 2
    return (1 << u, 3 << u, spectral.CHEEGER_BLOCK)


@pytest.mark.parametrize("n", range(2, 14))
def test_cheeger_split_halves_match_brute_force(monkeypatch, n):
    # Odd n gives halves of different sizes; n = 2, 3 have a one-vertex half.
    # For even n the uniform complete hypergraph puts the subsets of n/2
    # vertices at pi(S) = 1/2 (exactly when n is a power of 2), the last
    # column of a feasible prefix. The star has pi(v0) > 1/2, so no A holding
    # v0 (the heavier half of the rows, taken first) has a feasible column.
    rng = np.random.default_rng(1000 + n)
    H = _ring_hypergraph(rng, n, 3)
    names = [f"v{i}" for i in range(n)]
    star = Hypergraph(names, [(1.0, {names[0]: 50.0, v: 1.0}) for v in names[1:]])
    assert stationary_rho(star).pi[0] > 0.5
    monkeypatch.setattr(spectral, "ROWS_FLOOR", 1)
    for G in (H, rho_normalized(H), _uniform_complete(n), star):
        results = []
        for block in _blocks(n):
            monkeypatch.setattr(spectral, "CHEEGER_BLOCK", block)
            results.append(cheeger_constant(rebuilt(G)))
        assert all(res == results[0] for res in results)
        _assert_matches_brute_force(G, results[0])


def test_cheeger_partial_last_block(monkeypatch):
    # CHEEGER_BLOCK >> u rows of A per block (u = n - n // 2); an odd count
    # never divides the 2^(n // 2) rows of A, so the last block is cut short.
    rng = np.random.default_rng(77)
    monkeypatch.setattr(spectral, "ROWS_FLOOR", 1)
    for n in (5, 8, 9, 12):
        H = _ring_hypergraph(rng, n, 2)
        u = n - n // 2
        results = []
        for rows in (1, 3, 5, 7):
            monkeypatch.setattr(spectral, "CHEEGER_BLOCK", rows << u)
            results.append(cheeger_constant(rebuilt(H)))
        assert all(res == results[0] for res in results)
        _assert_matches_brute_force(H, results[0])


def test_cheeger_never_scores_the_empty_or_full_set(monkeypatch):
    # With pi scaled to sum to 1/4 every subset passes pi(S) <= 1/2, the full
    # set included, and the full set's flow is 0: scored, it would win. The
    # empty set's ratio is 0/0, which raises under errstate(all="raise").
    rng = np.random.default_rng(31)
    monkeypatch.setattr(spectral, "ROWS_FLOOR", 1)
    for n in (2, 3, 6, 9):
        H = _ring_hypergraph(rng, n, 2)
        P, pi = transition_matrix(H).matrix, stationary_rho(H).pi / 4.0
        want = brute_force_cheeger(P, pi)
        for block in _blocks(n):
            monkeypatch.setattr(spectral, "CHEEGER_BLOCK", block)
            with np.errstate(all="raise"):
                assert spectral._cheeger_enumerate(P, pi) == want


def test_cheeger_with_no_subset_of_mass_at_most_half_is_named(monkeypatch, tmp_path, capsys):
    # Two masses each rounded just above 1/2 (as an LU solve once gave five
    # parallel copies of one edge) leave no subset with pi(S) <= 1/2: a typed
    # error, stored nowhere, and from the command no traceback.
    heavy = np.full(2, np.nextafter(0.5, 1.0))
    monkeypatch.setattr(stationary, "_dense_pi", lambda *build: heavy.copy())
    H = Hypergraph(["v0", "v1"], [(1.0, {"v0": 1.0, "v1": 1.0})] * 5)
    message = ("Cheeger enumeration: every vertex has float mass pi_v > 1/2 (the rounded pi "
               "sums past 1), so no subset has pi(S) <= 1/2")
    for _ in range(2):
        with pytest.raises(NoFeasibleSubset) as caught:
            cheeger_constant(H)
        assert str(caught.value) == message
        assert "cheeger" not in H._memo
    path = tmp_path / "in.json"
    path.write_text(dumps_json(H))
    assert dispatch(["spectral", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: NoFeasibleSubset: {message}\n")


def test_cheeger_blocks_keep_a_floor_of_rows(monkeypatch):
    # n = 12: 64 rows of A. A CHEEGER_BLOCK of one subset still gives blocks
    # of ROWS_FLOOR rows, so four block products, and the same result.
    H = _ring_hypergraph(np.random.default_rng(12), 12, 3)
    P, pi = transition_matrix(H).matrix, stationary_rho(H).pi
    want = spectral._cheeger_enumerate(P, pi)
    products = []
    real = np.matmul
    monkeypatch.setattr(spectral, "CHEEGER_BLOCK", 1)
    monkeypatch.setattr(np, "matmul", lambda *a, **k: products.append(1) or real(*a, **k))
    assert spectral._cheeger_enumerate(P, pi) == want
    monkeypatch.undo()
    assert len(products) == 64 // spectral.ROWS_FLOOR


def test_cheeger_working_set_is_bounded():
    # One block of buffers, allocated once per enumeration, and tables over
    # each half: at n=16 well under the 2^16 subsets' 512 KiB per array.
    H = _ring_hypergraph(np.random.default_rng(16), 16, 4)
    P, pi = transition_matrix(H).matrix, stationary_rho(H).pi
    spectral._cheeger_enumerate(P, pi)
    tracemalloc.start()
    try:
        spectral._cheeger_enumerate(P, pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_cheeger_n19_against_numpy_oracle():
    rng = np.random.default_rng(19)
    n = 19
    H = _ring_hypergraph(rng, n, 6)
    res = cheeger_constant(H)
    masks, pi_s, ratio = _numpy_cheeger_ratios(transition_matrix(H).matrix,
                                                stationary_rho(H).pi)
    feasible = (masks > 0) & (masks < (1 << n) - 1) & (pi_s <= 0.5)
    phi = ratio[feasible].min()
    assert abs(res.phi - phi) <= 1e-12
    argmin = sum(1 << H.index(v) for v in res.argmin)
    assert pi_s[argmin] <= 0.5 + 1e-12
    assert abs(ratio[argmin] - phi) <= 1e-12


def test_cheeger_size_limit():
    names = [f"v{i}" for i in range(25)]
    H = Hypergraph(names, [(1.0, {v: 1.0 for v in names})])
    with pytest.raises(SizeLimit):
        cheeger_constant(H)


def test_check_cheeger_two_vertex(two_vertex_edge):
    chk = check_cheeger(two_vertex_edge)
    assert chk.lam == pytest.approx(1.0, abs=1e-10)
    assert chk.phi == pytest.approx(0.5, abs=1e-14)
    assert chk.holds


def test_check_cheeger_sweep():
    for H in sweep(406, 15):
        assert check_cheeger(H).holds


def test_check_cheeger_triangle(triangle):
    assert check_cheeger(triangle).holds


# -- mixing time -----------------------------------------------------------------------

def test_demo_mixing_components(h_demo):
    mb = mixing_time_bound(h_demo, 0.25)
    assert mb.beta1 == pytest.approx(0.25, abs=1e-12)  # min gamma/delta, rescale-invariant
    assert mb.beta2 == pytest.approx(2 / 17, abs=1e-10)
    assert mb.d_min == 1.0
    assert mb.phi == pytest.approx(89 / 192, abs=1e-12)
    assert mb.bound == 263
    assert not mb.vacuous


@pytest.fixture(scope="module")
def criterion_6_sweep():
    """The 50 instances of acceptance criteria 4-7."""
    return sweep(42, 50)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_mixing_bound_takes_phi_of_the_hypergraph(criterion_6_sweep):
    for H in criterion_6_sweep:
        assert _bits(mixing_time_bound(H, 0.25).phi) == _bits(cheeger_constant(H).phi)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.25, 0.4, 0.49])
def test_mixing_bound_equals_the_bound_from_phi_of_the_rescaled_copy(criterion_6_sweep, eps):
    # Phi is invariant under per-edge rescaling; the two floats may differ in
    # their last bits, but not the integer bound they give
    for H in criterion_6_sweep:
        mb = mixing_time_bound(H, eps)
        phi_rescaled = cheeger_constant(rho_normalized(H)).phi
        assert phi_rescaled == pytest.approx(mb.phi, rel=1e-12)
        assert _bound_from_components(mb.beta1, mb.beta2, mb.d_min, phi_rescaled, eps) == (
            mb.bound, mb.vacuous)


def test_bound_clamps_to_zero_when_log_nonpositive():
    bound, vacuous = _bound_from_components(0.5, 4.0, 4.0, 0.5, 0.25)
    assert bound == 0 and vacuous
    bound, vacuous = _bound_from_components(0.5, 0.01, 1.0, 0.5, 0.25)
    assert bound > 0 and not vacuous


@pytest.mark.parametrize("omega, g_a, g_c", itertools.product(
    [1e-300, 1e-200, 1e-150], [1.0, 1e-100, 1e-200], [1.0, 1e-100, 1e-200]))
def test_tiny_weights_get_a_bound_or_a_named_refusal(omega, g_a, g_c):
    # d_min * beta2 underflows to 0.0 on some of these (1e-200 * 1e-200),
    # but the bound takes their logarithms one by one; a mass that rounds
    # to 0.0 is refused by name, never as a ValueError or a numpy warning
    H = Hypergraph(("a", "b", "c"), [(omega, {"a": g_a, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": g_c})])
    try:
        bound = mixing_time_bound(H, 0.25)
    except HyperwalkError as exc:
        assert not isinstance(exc, ValueError)
    else:
        assert bound.bound > 0 and not bound.vacuous


def test_cheeger_names_a_zero_mass_before_it_divides():
    # pi = (0, 0.5, 0.5): a's mass rounds to 0.0, so a subset of a alone
    # would score 0/0
    H = Hypergraph(("a", "b", "c"), [(1e-300, {"a": 1e-100, "b": 1.0}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    assert stationary_rho(H).pi.tolist() == [0.0, 0.5, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MassUnderflow, match=r"^stationary probability of vertex 'a' is 0\.0, "
                           r"below the float range: the Cheeger ratio divides"):
            cheeger_constant(H)


def test_mixing_bound_rejects_bad_eps(h_demo):
    with pytest.raises(ValueError):
        mixing_time_bound(h_demo, 0.5)
    with pytest.raises(ValueError):
        mixing_time_bound(h_demo, 0.0)


def test_mixing_bound_checks_eps_as_its_float(h_demo):
    # 1e-400 lies in (0, 1/2) as longdouble, but log(2 eps) would take it as 0.0
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1/2\), got "):
        mixing_time_bound(h_demo, np.longdouble("1e-400"))
    assert mixing_time_bound(h_demo, np.longdouble(0.1)) == mixing_time_bound(h_demo, 0.1)


def test_empirical_uniform_chain(triangle):
    P = transition_matrix(triangle)
    pi = stationary_direct(P).pi
    # one step lands exactly on pi; the delta starts are 2/3 away
    assert empirical_mixing_time(P, pi, 0.25, cap=10) == 1


def test_empirical_identity_never_mixes():
    P = TransitionMatrix(("a", "b"), np.eye(2))
    with pytest.raises(Unmixed):
        empirical_mixing_time(P, np.array([0.5, 0.5]), 0.25, cap=50)


def test_demo_empirical_below_bound(h_demo):
    P = transition_matrix(h_demo)
    pi = stationary_rho(h_demo).pi
    for eps in (0.25, 0.1):
        mb = mixing_time_bound(h_demo, eps)
        t = empirical_mixing_time(P, pi, eps, cap=mb.bound)
        assert t <= mb.bound


def test_two_vertex_bound_dominates(two_vertex_edge):
    mb = mixing_time_bound(two_vertex_edge, 0.25)
    P = transition_matrix(two_vertex_edge)
    pi = stationary_direct(P).pi
    assert empirical_mixing_time(P, pi, 0.25, cap=mb.bound) <= mb.bound


def test_spectral_report(h_demo):
    report = spectral_report(h_demo, eps=0.25)
    assert report.mixing_bound == 263
    assert report.cheeger == pytest.approx(89 / 192, abs=1e-12)
    assert report.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    assert report.lam > 0.0
    payload = report.as_dict()
    assert set(payload) >= {"eigenvalues", "lambda", "cheeger", "mixing_bound"}
