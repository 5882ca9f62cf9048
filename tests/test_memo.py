"""Results computed once per hypergraph: the degrees, the walk operator and
matrix, the rho solve, the Laplacian, its spectra and the Cheeger
enumeration are stored on the immutable Hypergraph, read-only, never
carried over to a rescaled copy, and freed with it by reference counting."""

import contextlib
import dataclasses
import gc
import io
import sys
import threading
import weakref

import numpy as np
import pytest

import hyperwalk.core as core
import hyperwalk.rankagg as rankagg
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
    rho_normalized,
    spectral_report,
    stationary_rho,
    stationary_walk,
    transition_matrix,
)
from hyperwalk.cli import dispatch
from conftest import gc_off, rebuilt, sweep


@pytest.mark.parametrize("compute", [degrees, walk._operator, transition_matrix,
                                     stationary_rho, laplacian])
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
    # the rho-rescaled copy is read only for its degrees and weights, so no
    # P, rho solve or enumeration of its own; one eigensolve per spectrum;
    # degrees once for each of H, its delta(e) = 1 copy (the rho solve) and
    # its rho-rescaled copy (the mixing bound)
    pieces = ((walk, "_lazy_walk"), (stationary, "_solve_rho"),
              (spectral, "laplacian_from_walk"), (spectral, "_cheeger_enumerate"),
              (np.linalg, "eigh"), (core, "_degrees"))
    assert _command_counts(h_demo, tmp_path, monkeypatch, "spectral --check-cheeger",
                           pieces) == {
        "_lazy_walk": 1, "_solve_rho": 1, "laplacian_from_walk": 1, "_cheeger_enumerate": 1,
        "eigh": 2, "_degrees": 3}


def test_sandwich_command_does_each_piece_of_work_once(h_demo, tmp_path, monkeypatch):
    # one P and one rho solve of H; one eigensolve each for H and for the
    # clique graph; degrees once for each of H, its delta(e) = 1 copy and its
    # rho-rescaled copy (whose clique expansion is the graph)
    pieces = ((walk, "_lazy_walk"), (stationary, "_solve_rho"), (np.linalg, "eigh"),
              (core, "_degrees"))
    assert _command_counts(h_demo, tmp_path, monkeypatch, "reduce --mode sandwich",
                           pieces) == {"_lazy_walk": 1, "_solve_rho": 1, "eigh": 2, "_degrees": 3}


def test_walk_iteration_forms_only_the_factors_it_reads(h_demo, monkeypatch):
    # the walk step reads d, the edge ids and (omega / delta) * gamma: three
    # per-entry expansions in all, and none of the dense build's factors
    calls = _counting(monkeypatch, core, "_per_member")
    for module in (walk, stationary):  # their imported name, now the counting one
        monkeypatch.setattr(module, "_per_member", core._per_member)
    stationary_walk(h_demo)
    assert len(calls) == 3
    assert {"edge", "spread"} <= vars(walk._operator(h_demo)).keys()
    assert not {"left", "right"} & vars(walk._operator(h_demo)).keys()


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
        for ranker in rankagg._METHODS:
            ranker(data)
        assert matrix() is not None and ranked() is not None
        del H, data
        assert matrix() is None and ranked() is None
        assert gc.collect() == 0
