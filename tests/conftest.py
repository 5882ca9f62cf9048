"""Shared fixtures and seeded random-instance generators."""

import contextlib
import gc

import numpy as np
import pytest

from hyperwalk import DisconnectedHypergraph, Hypergraph, demo_hypergraph, dumps_json, loads_json


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
