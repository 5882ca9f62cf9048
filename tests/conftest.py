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


def wide_sweep(seed, count, span):
    """A reproducible list of random connected hypergraphs of 2 to 8
    vertices whose edge and vertex weights are log-uniform in
    [10^-span, 10^span]: nearly decoupled walks and masses many orders of
    magnitude apart."""
    rng = np.random.default_rng(seed)
    hypergraphs = []
    while len(hypergraphs) < count:
        n = int(rng.integers(2, 9))
        names = [f"v{i}" for i in range(n)]
        edges = []
        for _ in range(int(rng.integers(1, n + 2))):
            members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            weights = 10.0 ** rng.uniform(-span, span, size=len(members) + 1)
            edges.append((float(weights[0]),
                          {names[j]: float(g) for j, g in zip(members, weights[1:])}))
        with contextlib.suppress(DisconnectedHypergraph):
            hypergraphs.append(Hypergraph(names, edges))
    return hypergraphs


def _document(vertices, *edges):
    return {"vertices": list(vertices),
            "edges": [{"weight": w, "members": members} for w, members in edges]}


# Two pairs joined by an edge of weight 1e-15 that pushes its flow from b
# to c: exact pi = (4.999995e-7, 4.999995e-7, 0.4999995, 0.4999995).
NCD = _document("abcd", (1.0, {"a": 1.0, "b": 1.0}), (1.0, {"c": 1.0, "d": 1.0}),
                (1e-15, {"b": 1.0, "c": 1e6}))
# Hypergraph documents whose masses span the float range, named: the
# wide-range family's fixed members besides wide_sweep.
WIDE_RANGE_INPUTS = {
    "ncd": NCD,
    "ncd-reversed": {**NCD, "vertices": ["d", "c", "b", "a"]},
    "ncd-1e-18": _document("abcd", *[(e["weight"], e["members"]) for e in NCD["edges"][:2]],
                           (1e-18, {"b": 1.0, "c": 1e6})),
    # exact pi = (1, 2e-20, 1e-20) / (1 + 3e-20)
    "dominated-member": _document("abc", (1.0, {"a": 1.0, "b": 1e-20}),
                                  (1.0, {"b": 1.0, "c": 1.0})),
    # exact pi = (1, 2e-320, 1e-320) / (1 + 3e-320)
    "subnormal-vertex": _document("abc", (1.0, {"a": 1.0, "b": 1e-320}),
                                  (1.0, {"b": 1.0, "c": 1.0})),
    # exact pi rounds to (1, 1e-300, 0.0)
    "huge-weights": _document("abc", (1e300, {"a": 1e300, "b": 1.0}),
                              (1.0, {"b": 1.0, "c": 1e-300})),
    # exact pi rounds to (5e-321, 0.5, 0.5); it and the next input are
    # solved in reversed vertex order, an odd and an even number of them
    "subnormal-beside-a-normal-edge": _document("abc", (1e-320, {"a": 1.0, "b": 1.0}),
                                                (1.0, {"b": 1.0, "c": 1.0})),
    # exact pi rounds to (2.5e-321, 0.25, 0.5, 0.25)
    "subnormal-edge-ending-a-path": _document("abcd", (1e-320, {"a": 1.0, "b": 1.0}),
                                              (1.0, {"b": 1.0, "c": 1.0}),
                                              (1.0, {"c": 1.0, "d": 1.0})),
}


def rebuilt(H):
    """A freshly parsed copy of H: equal to H, with nothing computed for it
    yet, so a test that changes a module setting between two calls sees the
    work redone rather than the result stored on H."""
    return loads_json(dumps_json(H))


def round_sizes(monkeypatch):
    """A list that records, per state order a dense solve picks, how many
    states its first round (``stationary._round_order``) removes."""
    import hyperwalk.stationary as stationary

    sizes, real = [], stationary._round_order

    def spy(A, base):
        order, m, links = real(A, base)
        sizes.append(len(order) - m)
        return order, m, links

    monkeypatch.setattr(stationary, "_round_order", spy)
    return sizes


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
