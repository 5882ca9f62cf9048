"""Results computed once per hypergraph: the walk matrix, the rho solve, the
Laplacian, its spectra and the Cheeger enumeration are stored on the
immutable Hypergraph, read-only, and never carried over to a rescaled copy."""

import contextlib
import dataclasses
import io
import sys
import threading

import numpy as np
import pytest

import hyperwalk.spectral as spectral
import hyperwalk.stationary as stationary
import hyperwalk.walk as walk
from hyperwalk import (
    check_cheeger,
    cheeger_constant,
    dumps_json,
    laplacian,
    mixing_time_bound,
    rescale_edges,
    rho_normalized,
    spectral_report,
    stationary_rho,
    transition_matrix,
)
from hyperwalk.cli import dispatch
from conftest import rebuilt, sweep


@pytest.mark.parametrize("compute", [transition_matrix, stationary_rho, laplacian])
def test_a_second_call_returns_the_same_object(h_demo, compute):
    assert compute(h_demo) is compute(h_demo)


def test_memoized_arrays_are_read_only(h_demo):
    P = transition_matrix(h_demo)
    before = P.matrix.copy()
    rho = stationary_rho(h_demo)
    lap = laplacian(h_demo)
    for a in (P.matrix, rho.pi, rho.rho, lap.L, lap.normalized, lap.pi):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    assert np.array_equal(transition_matrix(h_demo).matrix, before)


def test_memoized_results_cannot_be_reassigned(h_demo):
    fresh = cheeger_constant(rebuilt(h_demo)).phi
    with pytest.raises(AttributeError):
        transition_matrix(h_demo).matrix = np.eye(4)
    assert np.float64(cheeger_constant(h_demo).phi).tobytes() == np.float64(fresh).tobytes()
    frozen = [(stationary_rho(h_demo), "pi"), (laplacian(h_demo), "L"),
              (cheeger_constant(h_demo), "phi"), (mixing_time_bound(h_demo, 0.25), "phi")]
    for result, field in frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
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
    for field in dataclasses.fields(got):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name


def test_spectral_command_does_each_piece_of_work_once(h_demo, tmp_path, monkeypatch):
    # the rho-rescaled copy is read only for its degrees and weights, so no
    # P, rho solve or enumeration of its own; one eigensolve per spectrum
    path = tmp_path / "demo.json"
    path.write_text(dumps_json(h_demo))
    counts = {name: _counting(monkeypatch, module, name)
              for module, name in ((walk, "_lazy_walk"), (stationary, "_solve_rho"),
                                   (spectral, "laplacian_from_walk"),
                                   (spectral, "_cheeger_enumerate"), (np.linalg, "eigh"))}
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["spectral", "--input", str(path), "--check-cheeger"]) == 0
    assert {name: len(calls) for name, calls in counts.items()} == {
        "_lazy_walk": 1, "_solve_rho": 1, "laplacian_from_walk": 1, "_cheeger_enumerate": 1,
        "eigh": 2}
