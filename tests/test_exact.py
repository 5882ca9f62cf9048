"""Every stationary route against the exact pi and per-edge constants rho
of rational arithmetic (tests/exact.py), with one stated tolerance per
route, and the Cheeger constant against its exact value.

The tolerances are the worst errors measured on criterion 2's inputs,
``sweep(2, 200)`` (2 to 8 vertices), rounded up in their third digit: a
route that drifts past one has lost accuracy, and the fix is in the route,
not here. The dense routes' tolerances hold on the wide-range family as
well: ``wide_sweep`` at spans 3, 8 and 20 and the named
``WIDE_RANGE_INPUTS``."""

from fractions import Fraction

import numpy as np
import pytest

import hyperwalk.stationary as stationary

from hyperwalk import (
    Hypergraph,
    build_hypergraph,
    cheeger_constant,
    stationary_direct,
    stationary_edge_independent,
    stationary_rho,
    stationary_walk,
    transition_matrix,
)
from hyperwalk.stationary import _stationary_direct_of
from conftest import WIDE_RANGE_INPUTS, rebuilt, round_sizes, sweep, wide_sweep
from exact import entrywise_error, exact_cheeger, exact_rho, exact_stationary, exact_transition

# Entrywise relative: max |pi_v - exact_v| / exact_v. The walk stops on its
# last step's change, not on its error: measured 1.637e-12.
WALK_ENTRYWISE = 1.64e-12
# Entrywise relative, both direct routes (GTH): measured 5.87e-16 here, and
# 1.119e-15 on the wide-range family (1.049e-15 with the default blocks),
# where LU was off by up to 4e22.
DIRECT_ENTRYWISE = 1.12e-15
# Entrywise relative, on sweep(2, 50, edge_independent=True): measured 3.46e-16.
CLOSED_FORM_ENTRYWISE = 3.47e-16
# The per-edge constants rho_e = sum over v in e of pi_v / d(v), entrywise
# relative: the walk's measured 1.637e-12; both direct routes' (the same pi,
# so the same rho) 4.36e-16 here and 8.162e-16 on the wide-range family; the
# closed form's 3.07e-16 on sweep(2, 50, edge_independent=True).
WALK_RHO_ENTRYWISE = 1.64e-12
DIRECT_RHO_ENTRYWISE = 8.17e-16
CLOSED_FORM_RHO_ENTRYWISE = 3.08e-16
# Relative, the Cheeger constant on sweep(42, 50): measured 3.600e-16.
CHEEGER_RELATIVE = 3.61e-16
# The walk on the dominated-member input below: measured 3.44e-9, since its
# stopping rule allows each vertex a last change of 1e-9 of its mass.
WALK_DOMINATED_ENTRYWISE = 3.45e-9


@pytest.fixture(scope="module")
def criterion_2():
    return [(H, exact_stationary(H)) for H in sweep(2, 200)]


def test_exact_walk_matrix_is_the_float_one_to_rounding(criterion_2):
    for H, _ in criterion_2[:20]:
        exact = np.array([[float(x) for x in row] for row in exact_transition(H)])
        assert np.abs(transition_matrix(H).matrix - exact).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("route, error, tolerance", [
    (stationary_walk, entrywise_error, WALK_ENTRYWISE),
    (lambda H: stationary_direct(transition_matrix(H)), entrywise_error, DIRECT_ENTRYWISE),
    (_stationary_direct_of, entrywise_error, DIRECT_ENTRYWISE),
], ids=["walk", "direct", "direct-in-its-buffer"])
def test_each_route_within_its_tolerance(criterion_2, route, error, tolerance):
    worst = max(error(route(H).pi, exact) for H, exact in criterion_2)
    assert worst <= tolerance


def test_closed_form_within_its_tolerance():
    for H in sweep(2, 50, edge_independent=True):
        result, exact = stationary_edge_independent(H), exact_stationary(H)
        assert entrywise_error(result.pi, exact) <= CLOSED_FORM_ENTRYWISE
        assert entrywise_error(result.rho, exact_rho(H, exact)) <= CLOSED_FORM_RHO_ENTRYWISE


@pytest.mark.parametrize("route, tolerance, wide", [
    (stationary_walk, WALK_RHO_ENTRYWISE, False),
    (stationary_rho, DIRECT_RHO_ENTRYWISE, True),
    (_stationary_direct_of, DIRECT_RHO_ENTRYWISE, True),
], ids=["walk", "rho", "direct-in-its-buffer"])
def test_each_routes_rho_within_its_tolerance(criterion_2, wide_family, route, tolerance, wide):
    family = criterion_2 + wide_family if wide else criterion_2
    worst = max(entrywise_error(route(H).rho, exact_rho(H, exact)) for H, exact in family)
    assert worst <= tolerance


def test_cheeger_constant_within_its_tolerance():
    for H in sweep(42, 50):
        exact = exact_cheeger(H)
        assert abs(Fraction(cheeger_constant(H).phi) - exact) <= CHEEGER_RELATIVE * exact


def test_dominated_member_per_route():
    # exact pi = (1, 2e-20, 1e-20) / (1 + 3e-20): the walk and the direct
    # routes keep both small masses
    H = Hypergraph(("a", "b", "c"), [(1.0, {"a": 1.0, "b": 1e-20}),
                                     (1.0, {"b": 1.0, "c": 1.0})])
    exact = exact_stationary(H)
    assert entrywise_error(stationary_walk(H).pi, exact) <= WALK_DOMINATED_ENTRYWISE
    assert entrywise_error(stationary_direct(transition_matrix(H)).pi, exact) <= DIRECT_ENTRYWISE
    assert entrywise_error(_stationary_direct_of(H).pi, exact) <= DIRECT_ENTRYWISE
    assert entrywise_error(stationary_rho(H).pi, exact) <= DIRECT_ENTRYWISE


@pytest.fixture(scope="module")
def wide_family():
    family = [build_hypergraph(doc) for doc in WIDE_RANGE_INPUTS.values()]
    family += [H for span in (3, 8, 20) for H in wide_sweep(span, 150, span)]
    return [(H, exact_stationary(H)) for H in family]


# The default blocks, then blocks small enough that 8 states take several
# of them and each block's inverse splits down to one or two states.
@pytest.mark.parametrize("block, base", [(stationary.GTH_BLOCK, stationary.GTH_BASE), (3, 1),
                                         (4, 2)])
@pytest.mark.parametrize("route", [lambda H: stationary_direct(transition_matrix(H)),
                                   _stationary_direct_of], ids=["direct", "direct-in-its-buffer"])
def test_dense_routes_within_their_tolerance_on_the_wide_family(wide_family, monkeypatch, route,
                                                                block, base):
    monkeypatch.setattr(stationary, "GTH_BLOCK", block)
    monkeypatch.setattr(stationary, "GTH_BASE", base)
    worst = max(entrywise_error(route(H).pi, exact) for H, exact in wide_family)
    assert worst <= DIRECT_ENTRYWISE


DENSE_ROUTES = [lambda H: stationary_direct(transition_matrix(H)), _stationary_direct_of,
                lambda H: stationary_rho(rebuilt(H))]


# Above GTH_BLOCK states the dense routes first eliminate an independent set
# of low-degree states by one scatter (stationary._round); with blocks this
# small it runs on some inputs of 4 to 8 vertices.
@pytest.mark.parametrize("block, base", [(3, 1), (4, 2)])
def test_dense_routes_after_a_round_within_their_tolerance(criterion_2, wide_family, monkeypatch,
                                                           block, base):
    monkeypatch.setattr(stationary, "GTH_BLOCK", block)
    monkeypatch.setattr(stationary, "GTH_BASE", base)
    sizes = round_sizes(monkeypatch)
    rounds = []
    for family in (criterion_2, wide_family):
        ran = 0
        for H, exact in family:
            sizes.clear()
            for route in DENSE_ROUTES:
                assert entrywise_error(route(H).pi, exact) <= DIRECT_ENTRYWISE
            ran += any(sizes)
        rounds.append(ran)
    assert min(rounds) > 0


def test_round_never_removes_the_root(monkeypatch):
    # exact pi = (1, 2e-320, 1e-320) / (1 + 3e-320). Above GTH_BLOCK = 2
    # states the round runs on these 3: a and c have one neighbour each, and
    # a is the root, so only c is removed. Removing a as well would leave b
    # alone, with a's mass pi_b P[b, a] / P[a, b] = 5e319 of b's, past the
    # float range, and in the reversed order likewise: MassUnderflow.
    monkeypatch.setattr(stationary, "GTH_BLOCK", 2)
    monkeypatch.setattr(stationary, "GTH_BASE", 1)
    sizes = round_sizes(monkeypatch)
    H = build_hypergraph(WIDE_RANGE_INPUTS["subnormal-vertex"])
    exact = exact_stationary(H)
    for route in DENSE_ROUTES:
        sizes.clear()
        assert entrywise_error(route(H).pi, exact) <= DIRECT_ENTRYWISE
        assert sizes == [1]
