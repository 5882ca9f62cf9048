"""Shared fixtures and seeded random-instance generators."""

import contextlib
import gc

import numpy as np
import pytest

from hyperwalk import (DisconnectedHypergraph, Hypergraph, degrees, demo_hypergraph, dumps_json,
                       loads_json, rescale_edges, stationary_rho)


@pytest.fixture
def h_demo():
    """Four vertices, two overlapping triple edges, gamma(v1 in edge 0) = 2."""
    return demo_hypergraph()


@pytest.fixture
def triangle():
    """Single edge {a, b, c} with trivial weights: the smallest uniform chain."""
    return Hypergraph(("a", "b", "c"), [(1.0, {"a": 1.0, "b": 1.0, "c": 1.0})])


@pytest.fixture
def two_vertex_edge():
    return Hypergraph(("a", "b"), [(1.0, {"a": 1.0, "b": 1.0})])


def random_hypergraph(rng, max_vertices=8, max_edges=6, weight_range=(0.1, 10.0),
                      trivial=False, edge_independent=False, min_edge_size=1):
    """Random connected hypergraph; rejection-samples until connected.

    With ``trivial`` all weights are 1; with ``edge_independent`` each vertex
    keeps one weight across all of its edges.
    """
    lo, hi = weight_range
    while True:
        n = int(rng.integers(2, max_vertices + 1))
        m = int(rng.integers(1, max_edges + 1))
        names = [f"v{i}" for i in range(n)]
        fixed = rng.uniform(lo, hi, size=n)
        edges = []
        for _ in range(m):
            size = int(rng.integers(max(min_edge_size, 1), n + 1))
            members_idx = rng.choice(n, size=size, replace=False)
            members = {}
            for j in members_idx:
                if trivial:
                    members[names[j]] = 1.0
                elif edge_independent:
                    members[names[j]] = float(fixed[j])
                else:
                    members[names[j]] = float(rng.uniform(lo, hi))
            omega = 1.0 if trivial else float(rng.uniform(lo, hi))
            edges.append((omega, members))
        try:
            return Hypergraph(names, edges)
        except DisconnectedHypergraph:
            continue


def sweep(seed, count, **kwargs):
    """A reproducible list of random hypergraphs."""
    rng = np.random.default_rng(seed)
    return [random_hypergraph(rng, **kwargs) for _ in range(count)]


def rebuilt(H):
    """A freshly parsed copy of H: equal to H, with nothing computed for it
    yet, so a test that changes a module setting between two calls sees the
    work redone rather than the result stored on H."""
    return loads_json(dumps_json(H))


def rho_normalized(H):
    """H with each edge's vertex weights rescaled so its own per-edge
    constant becomes 1: a hypergraph copy whose vertex weights are the
    library's per-entry rho_e * gamma_e(v) / delta(e), up to rounding."""
    return rescale_edges(H, stationary_rho(H).rho / degrees(H)[1])


@contextlib.contextmanager
def gc_off():
    """The cyclic collector off, after one full collection: what is made
    meanwhile is freed by reference counting alone, or gc.collect() finds
    it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def reachable_arrays(value, seen):
    """Every ndarray reachable from `value` through tuples, lists, dicts,
    slots (a result record's fields among them) and instance attributes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (tuple, list)):
        items = list(value)
    elif isinstance(value, dict):
        items = list(value.values())
    else:
        items = [getattr(value, slot) for slot in getattr(type(value), "__slots__", ())]
        items += getattr(value, "__dict__", {}).values()
    for item in items:
        yield from reachable_arrays(item, seen)
