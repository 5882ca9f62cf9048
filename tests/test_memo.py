"""Results computed once per hypergraph: the degrees, the walk matrix, the
stationary solve, the Laplacian, its spectra and the Cheeger enumeration are
stored on the immutable Hypergraph, read-only, never carried over to a
rescaled copy, and freed with it by reference counting."""

import contextlib
import gc
import io
import sys
import threading
import weakref

import numpy as np
import pytest

import hyperwalk.core as core
import hyperwalk.rankagg as rankagg
import hyperwalk.reduction as reduction
import hyperwalk.spectral as spectral
import hyperwalk.stationary as stationary
import hyperwalk.walk as walk
from hyperwalk import (
    check_cheeger,
    cheeger_constant,
    degrees,
    dumps_json,
    generate,
    laplacian,
    mixing_time_bound,
    rescale_edges,
    spectral_report,
    stationary_rho,
    stationary_walk,
    transition_matrix,
)
from hyperwalk.cli import dispatch
from conftest import gc_off, reachable_arrays, rebuilt, rho_normalized, sweep


@pytest.mark.parametrize("compute", [degrees, transition_matrix, stationary_rho, laplacian])
def test_a_second_call_returns_the_same_object(h_demo, compute):
    assert compute(h_demo) is compute(h_demo)


def test_memoized_arrays_are_read_only(h_demo):
    P = transition_matrix(h_demo)
    before = P.matrix.copy()
    rho = stationary_rho(h_demo)
    lap = laplacian(h_demo)
    for a in (P.matrix, rho.pi, rho.rho, lap.L, lap.normalized, lap.pi, *degrees(h_demo)):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    assert np.array_equal(transition_matrix(h_demo).matrix, before)


def test_nothing_the_memo_holds_is_writeable():
    # every piece of work that stores on H; then no array reachable from the
    # memo, at any depth, can be written
    H = sweep(38, 1, max_vertices=10)[0]
    stationary._stationary_direct_of(H)
    stationary_walk(H)
    spectral_report(H)
    check_cheeger(H)
    reduction.sandwich_check(H)
    assert {"degrees", "transition_matrix", "stationary_rho", "laplacian", "spectra",
            "cheeger"} <= H._memo.keys()
    arrays = list(reachable_arrays(H._memo, set()))
    # d, delta, P, pi, rho, L, its normalized form and the two spectra
    assert len(arrays) >= 9
    assert not [a for a in arrays if a.flags.writeable]


def test_each_walk_stores_only_what_it_returns(h_demo):
    # P with the degrees it reads; the walk iteration only the degrees: no
    # factor of either is kept on H
    transition_matrix(h_demo)
    assert h_demo._memo.keys() == {"degrees", "transition_matrix"}
    H = rebuilt(h_demo)
    stationary_walk(H)
    assert H._memo.keys() == {"degrees"}


def test_memoized_results_cannot_be_reassigned(h_demo):
    fresh = cheeger_constant(rebuilt(h_demo)).phi
    with pytest.raises(AttributeError):
        transition_matrix(h_demo).matrix = np.eye(4)
    assert np.float64(cheeger_constant(h_demo).phi).tobytes() == np.float64(fresh).tobytes()
    frozen = [(stationary_rho(h_demo), "pi"), (laplacian(h_demo), "L"),
              (cheeger_constant(h_demo), "phi"), (mixing_time_bound(h_demo, 0.25), "phi")]
    for result, field in frozen:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(result, field, getattr(result, field))


def test_threads_sharing_a_hypergraph_get_one_result():
    # Two threads may both compute a missing entry; each must still return
    # the one that was stored first.
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for H in sweep(36, 5):
            start = threading.Barrier(8)

            def call():
                start.wait(timeout=10)
                results.append((transition_matrix(H), stationary_rho(H), laplacian(H)))

            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(results) == 8
            for got in results:
                assert all(a is b for a, b in zip(got, results[0]))
            assert results[0][2].pi is results[0][1].pi
            results.clear()
    finally:
        sys.setswitchinterval(interval)


def _counting(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_enumeration_per_hypergraph(h_demo, monkeypatch):
    calls = _counting(monkeypatch, spectral, "_cheeger_enumerate")
    first = cheeger_constant(h_demo)
    assert check_cheeger(h_demo).phi == first.phi
    assert cheeger_constant(h_demo) == first
    assert first.phi == pytest.approx(89 / 192, abs=1e-12)
    assert len(calls) == 1


def test_a_failure_is_not_stored(h_demo, monkeypatch):
    def failing(P, pi):
        raise RuntimeError("enumeration failed")

    monkeypatch.setattr(spectral, "_cheeger_enumerate", failing)
    with pytest.raises(RuntimeError):
        cheeger_constant(h_demo)
    monkeypatch.undo()
    assert cheeger_constant(h_demo).argmin == ("v3", "v4")


def test_rescaled_hypergraphs_get_their_own_results():
    rng = np.random.default_rng(33)
    for H in sweep(33, 12):
        P, rho = transition_matrix(H), stationary_rho(H)  # stored on H first
        factors = rng.uniform(0.5, 2.0, size=H.n_edges)
        for G in (rescale_edges(H, factors), rho_normalized(H)):
            fresh = rebuilt(G)
            assert transition_matrix(G) is not P
            assert np.array_equal(transition_matrix(G).matrix, transition_matrix(fresh).matrix)
            assert stationary_rho(G) is not rho
            assert np.array_equal(stationary_rho(G).pi, stationary_rho(fresh).pi)


def _bits(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("seed", [None, 34, 35])
def test_report_after_other_calls_equals_a_fresh_report(h_demo, seed):
    H = h_demo if seed is None else sweep(seed, 1, max_vertices=10)[0]
    check_cheeger(H)
    mixing_time_bound(H, 0.25)
    got, want = spectral_report(H), spectral_report(rebuilt(H))
    for field in type(got).__slots__:
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field


def _command_counts(h_demo, tmp_path, monkeypatch, command: str, pieces) -> dict:
    """How often each (module, name) in `pieces` ran in one `command` on the
    demo hypergraph."""
    path = tmp_path / "demo.json"
    path.write_text(dumps_json(h_demo))
    counts = {name: _counting(monkeypatch, module, name) for module, name in pieces}
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(command.split() + ["--input", str(path)]) == 0
    return {name: len(calls) for name, calls in counts.items()}


def test_spectral_command_does_each_piece_of_work_once(h_demo, tmp_path, monkeypatch):
    # one GTH solve of P, no LU, and one eigensolve per spectrum; degrees
    # once, of H alone: rho and the mixing bound read H's own degrees and
    # gamma / delta, and beta2 the rho-rescaled weights per entry, so no
    # rescaled copy of H is built
    pieces = ((walk, "_lazy_walk"), (stationary, "_gth"),
              (spectral, "laplacian_from_walk"), (spectral, "_cheeger_enumerate"),
              (np.linalg, "solve"), (np.linalg, "eigh"), (core, "_degrees"),
              (core, "rescale_edges"), (core.Hypergraph, "_with_gamma"))
    assert _command_counts(h_demo, tmp_path, monkeypatch, "spectral --check-cheeger",
                           pieces) == {
        "_lazy_walk": 1, "_gth": 1, "laplacian_from_walk": 1, "_cheeger_enumerate": 1,
        "solve": 0, "eigh": 2, "_degrees": 1, "rescale_edges": 0, "_with_gamma": 0}


def test_sandwich_command_does_each_piece_of_work_once(h_demo, tmp_path, monkeypatch):
    # one P and one GTH solve of H, the command's only dense solve: the
    # clique graph's pi is its degree over its volume; one eigensolve each
    # for H and for the clique graph; degrees once, of H alone: the graph
    # and c read the rho-rescaled weights per entry, so no rescaled copy of
    # H is built
    pieces = ((walk, "_lazy_walk"), (stationary, "_gth"), (np.linalg, "solve"),
              (np.linalg, "eigh"), (core, "_degrees"), (core, "rescale_edges"),
              (core.Hypergraph, "_with_gamma"))
    assert _command_counts(h_demo, tmp_path, monkeypatch, "reduce --mode sandwich",
                           pieces) == {"_lazy_walk": 1, "_gth": 1, "solve": 0, "eigh": 2,
                                       "_degrees": 1, "rescale_edges": 0, "_with_gamma": 0}


@pytest.mark.parametrize("method, solves", [("direct", 1), ("auto", 0)])
def test_stationary_command_solves_at_most_once(h_demo, tmp_path, monkeypatch, method, solves):
    # direct solves the walk matrix by GTH, never by LU, and auto iterates
    # the walk without a solve where it converges, as on the demo
    assert _command_counts(h_demo, tmp_path, monkeypatch, f"stationary --method {method}",
                           [(np.linalg, "solve"), (stationary, "_gth")]) == {
        "solve": 0, "_gth": solves}


def test_memoized_results_are_freed_by_reference_counting():
    # Nothing the memo holds refers back to its hypergraph, so there is no
    # cycle: with the cyclic collector off, dropping the hypergraph frees
    # every result at once, and nothing is left for the collector.
    H = sweep(37, 1)[0]
    data = generate(12, 1.0, 0.5, 37)
    with gc_off():
        matrix = weakref.ref(transition_matrix(H).matrix)
        stationary_rho(H), stationary_walk(H), spectral_report(H)
        ranked = weakref.ref(transition_matrix(data.hypergraph).matrix)
        for ranker in (rankagg.rank_hypergraph, rankagg.rank_clique, rankagg.rank_mc3):
            ranker(data)
        assert matrix() is not None and ranked() is not None
        del H, data
        assert matrix() is None and ranked() is None
        assert gc.collect() == 0
