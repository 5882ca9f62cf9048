"""Synthetic rank aggregation: generator, chain builders, Kendall tau."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from hyperwalk import (
    BadBeta,
    ConvergenceFailure,
    DisconnectedHypergraph,
    DuplicateVertex,
    ElementMismatch,
    Hypergraph,
    HyperwalkError,
    MalformedInput,
    MatchData,
    NonPositiveWeight,
    ScoreOverflow,
    SizeLimit,
    TransitionMatrix,
    UnknownVertex,
    experiment,
    generate,
    kendall_tau,
    rank_clique,
    rank_hypergraph,
    rank_mc3,
    restart_matrix,
    to_json_dict,
    transition_matrix,
)
from hyperwalk import core, rankagg
from hyperwalk.cli import dispatch
from hyperwalk.core import delta_normalized
from hyperwalk.reduction import clique_expansion_weights, graph_random_walk
from hyperwalk.rankagg import matches_from_json_dict, matches_to_json_dict
from hyperwalk.stationary import RESIDUAL_TOL
from oracles import lu_stationary
import summary_sum


def same(a, b):
    return a.hypergraph == b.hypergraph and np.array_equal(a.scores, b.scores)


# -- generator -------------------------------------------------------------------

def test_generate_deterministic():
    a = generate(20, 1.0, 0.2, seed=7)
    b = generate(20, 1.0, 0.2, seed=7)
    assert same(a, b)
    assert not same(generate(20, 1.0, 0.2, seed=8), a)


def test_generate_coverage_and_sizes():
    data = generate(100, 1.0, 0.05, seed=7)
    seen = set((data.hypergraph.indices + 1).tolist())
    assert seen == set(range(1, 101))
    sizes = np.diff(data.hypergraph.indptr)
    assert min(sizes) >= 2
    assert 3.0 <= np.mean(sizes) <= 7.0  # expected size about n*p = 5


def test_generate_two_players():
    data = generate(2, 1.0, 0.05, seed=1)
    assert all(m["participants"] == [1, 2] for m in matches_to_json_dict(data)["matches"])


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate(10, 0.0, 0.1, seed=1)
    with pytest.raises(ValueError):
        generate(10, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate(1, 1.0, 0.5, seed=1)


def unreachable(*args):
    raise AssertionError("a match set was drawn")


def unforked():
    raise AssertionError("a process was forked")


# (argument, bad value, message): each is refused with the same message by
# generate and by experiment (the bad rate alone and after a good one; any
# other bad value with one rate, two and none), so the two entry points
# cannot drift apart; trials is experiment's alone
DRAW_FAULTS = {
    "n-float": ("n", 2.5, "n must be an integer, got 2.5"),
    "n-true": ("n", True, "n must be an integer, got True"),
    "sigma-true": ("sigma", True, "sigma must be a real number, got True"),
    "p-str": ("p", "0.5", "p must be a real number, got '0.5'"),
    "seed-float": ("seed", 1.5, "seed must be an integer, got 1.5"),
    "seed-true": ("seed", True, "seed must be an integer, got True"),
    "trials-float": ("trials", 2.5, "trials must be an integer, got 2.5"),
    "trials-true": ("trials", True, "trials must be an integer, got True"),
    "seed-negative": ("seed", -1, "seed must be nonnegative, got -1"),
    "sigma-inf": ("sigma", math.inf, "sigma must be finite, got inf"),
    # an int past the float range reads as inf, not as an OverflowError
    "sigma-int-past-float": ("sigma", 10**400, "sigma must be finite, got inf"),
    "p-int-past-float": ("p", 10**400, "p must lie in (0, 1)"),
}


def draw_calls(entry, argument, value):
    """The calls of `entry` with `argument` set to `value`, every other
    argument valid."""
    args = {"n": 20, "sigma": 1.0, "p": 0.5, "trials": 2, "seed": 1, argument: value}
    if entry == "generate":
        return [lambda: generate(args["n"], args["sigma"], args["p"], args["seed"])]
    rates = [[args["p"]], [0.3, args["p"]]] + ([[]] if argument != "p" else [])
    return [lambda r=r: experiment(args["n"], args["sigma"], r, args["trials"], args["seed"])
            for r in rates]


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ("generate", "experiment") for case in DRAW_FAULTS
    if entry == "experiment" or DRAW_FAULTS[case][0] != "trials"])
def test_counts_seeds_and_rates_are_checked_by_type(monkeypatch, entry, case):
    monkeypatch.setattr(rankagg, "_draw", unreachable)
    monkeypatch.setattr(os, "fork", unforked)
    argument, value, message = DRAW_FAULTS[case]
    for call in draw_calls(entry, argument, value):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("n, sigma, seed, beta, error, message", [
    (1, math.inf, -1, 0.4, ValueError, "need at least two players"),
    (5, 0.0, 1, 0.4, ValueError, "sigma must be positive"),
    (5, math.inf, 1, 0.4, ValueError, "sigma must be finite, got inf"),
    (5, 1.0, -1, 0.4, ValueError, "seed must be nonnegative, got -1"),
    (5000, 1.0, 1, 0.4, SizeLimit, "dense matrices support at most 4096 vertices, got 5000"),
    (5, 1.0, 1, 1.5, BadBeta, "restart probability must lie in (0, 1), got 1.5"),
])
def test_experiment_checks_its_values_with_or_without_a_rate(monkeypatch, n, sigma, seed, beta,
                                                             error, message):
    monkeypatch.setattr(rankagg, "_draw", unreachable)
    monkeypatch.setattr(os, "fork", unforked)
    for rates in ([], [0.5]):
        with pytest.raises(error) as info:
            experiment(n, sigma, rates, 2, seed, beta=beta)
        assert str(info.value) == message
    empty = experiment(5, 1.0, [], 2, 1)
    assert (empty.trials, empty.summary) == ([], [])


def test_numpy_counts_seeds_and_rates_are_read_as_numbers():
    want = generate(5, 1.0, 0.5, 1)
    assert same(generate(np.uint64(5), np.float32(1.0), np.float64(0.5), np.int8(1)), want)
    got = experiment(np.uint64(6), np.float32(1.0), [np.float32(0.5)], np.int8(2), np.uint64(3))
    assert got.to_csv() == experiment(6, 1.0, [0.5], 2, 3).to_csv()


@pytest.mark.parametrize("seed", [np.int8(127), np.uint64(2**64 - 1)], ids=["int8", "uint64"])
def test_a_numpy_seed_at_its_dtypes_limit_draws_as_the_equal_int(seed):
    # trial t draws from seed + t as a Python int: int8 does not overflow
    # (a RuntimeWarning) and uint64 does not wrap trial 1 to seed 0
    got = experiment(6, 1.0, [0.5], 2, seed)
    want = experiment(6, 1.0, [0.5], 2, int(seed))
    assert got.to_csv() == want.to_csv()
    assert type(got.params["seed"]) is int and got.params == want.params
    assert same(generate(5, 1.0, 0.5, seed), generate(5, 1.0, 0.5, int(seed)))


def test_a_longdouble_sigma_draws_as_its_float():
    # sigma * N(0, 1) in longdouble would give other scores, hence other
    # edge weights, than sigma = 1.0
    assert same(generate(20, np.longdouble(1.0), 0.3, 5), generate(20, 1.0, 0.3, 5))


def test_generate_score_beyond_float_range_is_named():
    # a finite sigma * N(0, 1) overflows: MatchData names the score, and no
    # numpy RuntimeWarning is raised on the way (tier-1 turns those into
    # errors); an infinite sigma is refused before any draw
    for seed in (1, 42):
        with pytest.raises(ScoreOverflow, match="is not a finite number"):
            generate(5, 1e308, 0.5, seed)


def reference_generate(n, sigma, p, seed):
    """The per-draw loop generate() replaced, kept as its reference: returns
    the matches it would hand to MatchData."""
    rng = np.random.default_rng(seed)
    matches = []
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    draws = 0
    while components > 1:
        if draws == rankagg.MAX_DRAWS:
            raise ConvergenceFailure(
                f"{rankagg.MAX_DRAWS} match draws did not cover all {n} players in one "
                f"connected set at p={p}; increase p"
            )
        draws += 1
        mask = rng.random(n) < p
        if mask.sum() < 2:
            continue
        players = np.flatnonzero(mask) + 1
        c = rng.uniform(*rankagg.SCALE_RANGE)
        scores = c * rng.normal(0.2 * players, sigma)
        matches.append((players, scores))
        root = find(int(players[0]) - 1)
        for i in players[1:]:
            r = find(int(i) - 1)
            if r != root:
                parent[r] = root
                components -= 1
    return matches


def flat_bits(indptr, players, scores):
    return [(a.dtype.str, a.tobytes()) for a in (indptr, players, scores)]


def data_bits(data):
    """The bits of what MatchData holds: CSR pointers, players, scores."""
    H = data.hypergraph
    return flat_bits(H.indptr, H.indices + 1, data.scores)


def reference_bits(matches):
    """The same for the reference matches, each listing its players ascending
    (the CSR order): the pairs laid end to end."""
    sizes = [len(who) for who, _ in matches]
    return flat_bits(np.concatenate(([0], np.cumsum(sizes))),
                     np.concatenate([who for who, _ in matches]),
                     np.concatenate([s for _, s in matches]))


def outcome(bits_of, make, *args):
    try:
        return bits_of(make(*args))
    except ConvergenceFailure as exc:
        return str(exc)


def test_generate_equals_reference_loop_bit_for_bit():
    # Same PCG64 stream, read by cheaper calls: the same matches, bit for bit.
    for n in (2, 7, 100, 500):
        for sigma in (0.37, 1.0, 2.5):
            for p in (0.03, 0.07, 0.5):
                for seed in (0, 1, 17):
                    args = (n, sigma, p, seed)
                    assert data_bits(generate(*args)) == reference_bits(
                        reference_generate(*args)), args
    # covered before connected: the connectivity check runs on more than one draw
    for seed in (6, 8, 11):
        args = (4, 1.0, 0.03, seed)
        assert data_bits(generate(*args)) == reference_bits(reference_generate(*args)), args


def test_generate_gives_up_as_reference_loop(monkeypatch):
    outcomes = set()
    for limit in (1, 3, 20):
        monkeypatch.setattr(rankagg, "MAX_DRAWS", limit)
        for args in ((7, 1.0, 0.5, 0), (100, 1.0, 0.07, 1), (500, 2.5, 0.03, 2)):
            got = outcome(data_bits, generate, *args)
            assert got == outcome(reference_bits, reference_generate, *args), (limit, args)
            outcomes.add(type(got))
    assert outcomes == {str, list}  # some gave up, some finished


def test_match_validation():
    with pytest.raises(DuplicateVertex):
        MatchData(2, [((1, 1), (0.0, 1.0))])
    with pytest.raises(MalformedInput):
        MatchData(1, [((1,), (0.0,))])
    with pytest.raises(DisconnectedHypergraph):
        MatchData(3, [((1, 2), (0.0, 1.0))])  # player 3 never appears


# -- hypergraph construction -----------------------------------------------------------

def test_match_hypergraph_identical_scores():
    data = MatchData(2, [((1, 2), (1.5, 1.5))])
    (edge,) = to_json_dict(data.hypergraph)["edges"]
    assert edge["weight"] == 1.0  # zero deviation
    assert edge["members"]["1"] == pytest.approx(math.exp(1.5))


def test_match_hypergraph_weights():
    data = MatchData(2, [((1, 2), (0.0, math.log(2.0)))])
    (edge,) = to_json_dict(data.hypergraph)["edges"]
    # population standard deviation of (0, ln 2) is ln(2)/2
    assert edge["weight"] == pytest.approx(1.0 + math.log(2.0) / 2, abs=1e-15)
    assert edge["members"]["1"] == pytest.approx(1.0)
    assert edge["members"]["2"] == pytest.approx(2.0)


def test_score_overflow():
    with pytest.raises(ScoreOverflow, match="player 2"):
        MatchData(2, [((1, 2), (0.0, 701.0))])


@pytest.mark.parametrize("scores", [(True, 1.0), ("a", 1.0), (10**400, 1.0), (None, 1.0), 1.0,
                                    "ab", ((0.0,), (1.0,))],
                         ids=["bool", "str", "int-past-float", "none", "scalar", "string",
                              "nested"])
def test_match_scores_are_real_numbers(scores):
    with pytest.raises(MalformedInput, match="^match #1: scores must be real numbers"):
        MatchData(2, [((1, 2), (0.0, 1.0)), ((1, 2), scores)])


def test_match_scores_of_numpy_types_are_read_as_floats():
    want = MatchData(2, [((1, 2), (0.5, 2.0))])
    for scores in ((np.float32(0.5), np.int64(2)), np.array([0.5, 2.0]), [0.5, 2]):
        assert same(MatchData(2, [((1, 2), scores)]), want)


def test_match_data_array_checks():
    with pytest.raises(MalformedInput, match="match #1"):
        MatchData(2, [((1, 2), (0.0, 1.0)), ((1, 2), (0.0,))])
    for bad in (math.nan, math.inf, -math.inf, np.longdouble("1e400")):  # no cast warning
        with pytest.raises(ScoreOverflow, match="player 2"):
            MatchData(2, [((1, 2), (0.0, bad))])
    with pytest.raises(UnknownVertex, match="'3'"):
        MatchData(2, [((1, 2), (0.0, 1.0)), ((2, 3), (0.0, 1.0))])
    with pytest.raises(MalformedInput, match="^match #0: participants must be integers"):
        MatchData(2, [((1, 2.0), (0.0, 1.0))])  # players are integers, not 2.0
    with pytest.raises(DisconnectedHypergraph, match="'3'"):
        MatchData(3, [((1, 2), (0.0, 1.0)), ((2, 1), (0.5, 1.0))])
    with pytest.raises(DisconnectedHypergraph):  # no vertex names are allocated
        MatchData(10**12, [((1, 2), (0.0, 1.0))])


@pytest.mark.parametrize("matches, error, message", [
    ([{"participants": [1, 10**30], "scores": [0.0, 1.0]}], UnknownVertex,
     "edge #0 references undeclared vertex '1000000000000000000000000000000'"),
    ([{"participants": [1, -1], "scores": [0.0, 1.0]}], UnknownVertex,
     "edge #0 references undeclared vertex '-1'"),
    ([{"participants": [0, 1], "scores": [0.0, 1.0]}], UnknownVertex,
     "edge #0 references undeclared vertex '0'"),
    # both weights are exp(score) = 0.0: the first in input order is named,
    # not the first in CSR order
    ([{"participants": [2, 1], "scores": [-800.0, -900.0]}], NonPositiveWeight,
     "edge #0: weight 0.0 of vertex '2' must be a finite number > 0"),
    ([], DisconnectedHypergraph, "2 players but only 0 match entries"),
], ids=["player-huge", "player-negative", "player-zero", "zero-weights", "no-matches"])
def test_match_data_fault_messages(matches, error, message):
    with pytest.raises(error) as info:
        matches_from_json_dict({"n": 2, "matches": matches})
    assert str(info.value) == message


def test_huge_score_spread_is_named_without_a_warning():
    # np.std overflows to inf; tier-1 turns RuntimeWarnings into errors
    with pytest.raises(NonPositiveWeight) as info:
        MatchData(2, [((1, 2), (-1e308, 700.0))])
    assert str(info.value) == "edge #0: edge weight inf must be a finite number > 0"


@pytest.mark.parametrize("scores, named", [
    ((700.0, -740.0), "vertex '2' times factor 9.85967654375977e-305"),  # gamma / delta is 0
    ((-740.0, -745.0), "vertex '1' times factor inf"),  # delta is subnormal
])
def test_clique_normalization_fault_is_named_by_the_clique_chain_alone(scores, named):
    # the match set builds and the other chains rank it; the clique chain's
    # delta normalization names the weight it takes to 0 or inf
    data = MatchData(2, [((1, 2), scores)])
    assert rank_hypergraph(data).order == rank_mc3(data).order == (1, 2)
    for rank in (rank_clique, lambda data: rankagg._rankings(data, rankagg.DEFAULT_BETA)):
        with pytest.raises(NonPositiveWeight) as info:
            rank(data)
        assert str(info.value) == f"edge #0: weight of {named} must be a finite number > 0"


# -- bit identity with the per-match construction ------------------------------------

def per_match_hypergraph(n, matches):
    """The reference recipe: one (np.std(scores) + 1, {player: math.exp(score)})
    pair per match, scores in the order the match lists them."""
    edges = [
        (float(np.std(np.asarray(scores, dtype=float))) + 1.0,
         {str(i): math.exp(s) for i, s in zip(who, scores)})
        for who, scores in matches
    ]
    return Hypergraph([str(i) for i in range(1, n + 1)], edges)


def csr_scores(matches):
    """Each match's scores ordered by player, matches in order."""
    return np.array([s for who, scores in matches
                     for _, s in sorted(zip(who, scores))])


def generated_matches():
    """Every generate() sweep case as (data, n, matches), matches as the
    reference loop draws them (the ones generate() draws, bit for bit)."""
    for n in (2, 10, 100):
        for p in (0.03, 0.07, 0.5):
            for seed in (0, 1, 2):
                yield generate(n, 1.0, p, seed), n, reference_generate(n, 1.0, p, seed)


def shuffled_match_file():
    """A match file whose participants are listed out of order."""
    rng = np.random.default_rng(4)
    doc = matches_to_json_dict(generate(30, 1.0, 0.3, seed=9))
    for m in doc["matches"]:
        perm = rng.permutation(len(m["participants"]))
        m["participants"] = [m["participants"][k] for k in perm]
        m["scores"] = [m["scores"][k] for k in perm]
    assert any(m["participants"] != sorted(m["participants"]) for m in doc["matches"])
    return doc


def test_match_data_equals_per_match_recipe():
    cases = list(generated_matches())
    doc = shuffled_match_file()
    matches = [(m["participants"], m["scores"]) for m in doc["matches"]]
    cases.append((matches_from_json_dict(doc), doc["n"], matches))
    for data, n, matches in cases:
        for built in (data, MatchData(n, matches)):  # and the public constructor
            assert built.hypergraph == per_match_hypergraph(n, matches)
            assert np.array_equal(built.scores, csr_scores(matches))


def random_matches(rng):
    """A connected match set on players 1..n, n in 2..12: a path of pairs and
    a few larger matches, in random order, participants in random order."""
    n = int(rng.integers(2, 13))
    groups = [[i, i + 1] for i in range(1, n)]
    groups += [list(rng.choice(np.arange(1, n + 1), int(rng.integers(2, min(n, 5) + 1)),
                               replace=False)) for _ in range(int(rng.integers(0, 4)))]
    matches = []
    for k in rng.permutation(len(groups)):
        who = [int(i) for i in rng.permutation(groups[k])]
        matches.append((who, [float(s) for s in rng.normal(0.0, 3.0, len(who))]))
    return n, matches


def inject(rng, n, match, fault):
    """Plant `fault` in one random entry of `match`, in place."""
    who, scores = match
    j = int(rng.integers(len(who)))
    if fault == "spread":  # np.std overflows: the edge weight is inf
        scores[j] = -1e308
    elif fault == "underflow":  # exp(score) is 0.0
        scores[j] = float(rng.uniform(-1000.0, -746.0))
    else:
        who[j] = {"zero": 0, "above": n + 1, "huge": 10**30, "float": float(who[j])}[fault]


def built_or_fault(build, n, matches):
    """The hypergraph `build` returns, or the type and message it raises."""
    try:
        return build(n, matches)
    except HyperwalkError as exc:
        return type(exc), str(exc)


def test_match_data_names_the_fault_the_per_match_recipe_names():
    # MatchData hands a faulty match set to Hypergraph: the first fault in
    # match order, and its message, are the ones the per-match recipe gets;
    # a float player is refused first, by the type rule, naming its match
    rng = np.random.default_rng(22)
    faults = ["zero", "above", "huge", "float", "spread", "underflow"]
    named = set()
    for case in range(300):
        n, matches = random_matches(rng)
        if case % 7 == 0:  # two faults, in different matches
            for m in rng.choice(len(matches), min(2, len(matches)), replace=False):
                inject(rng, n, matches[m], faults[int(rng.integers(len(faults)))])
        else:
            inject(rng, n, matches[int(rng.integers(len(matches)))], faults[case % len(faults)])
        floats = [k for k, (who, _) in enumerate(matches) if float in map(type, who)]
        if floats:
            k = floats[0]
            want = (MalformedInput, f"match #{k}: participants must be integers, "
                                    f"got {matches[k][0]!r}")
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # the spread overflows np.std
                want = built_or_fault(per_match_hypergraph, n, matches)
        assert isinstance(want, tuple), (n, matches)
        assert built_or_fault(MatchData, n, matches) == want, (n, matches)
        named.add(want[0])
    assert named == {UnknownVertex, NonPositiveWeight, MalformedInput}


@pytest.mark.parametrize("matches, name", [
    ([((True, 2), (0.0, 0.0))], "(True, 2)"),
    ([((np.True_, 2), (0.0, 0.0))], "(np.True_, 2)"),
    ([((1, 2, True), (0.0, 0.0, 1.0))], "(1, 2, True)"),
    ([((1, 2, np.True_), (0.0, 0.0, 1.0))], "(1, 2, np.True_)"),
    ([((1, 2, 1.0), (0.0, 0.0, 1.0))], "(1, 2, 1.0)"),
], ids=["bool", "numpy-bool", "bool-beside-1", "numpy-bool-beside-1", "float-beside-1"])
def test_a_player_equal_to_player_1_is_named_as_given(matches, name):
    # True and 1.0 equal 1 as numbers, but a player is an integer by type:
    # each is refused as given, not read as player 1 (nor player 1 twice)
    assert built_or_fault(MatchData, 2, matches) == (
        MalformedInput, f"match #0: participants must be integers, got {name}")


def from_json(n, matches):
    """The match set as a match document, read by the JSON adapter."""
    return matches_from_json_dict({"n": n, "matches": [
        {"participants": who, "scores": scores} for who, scores in matches]})


INTEGER_TYPES = [int] + sorted({np.dtype(c).type for c in np.typecodes["AllInteger"]},
                               key=lambda t: t.__name__)


@pytest.mark.parametrize("build", [MatchData, from_json], ids=["MatchData", "json"])
@pytest.mark.parametrize("kind", INTEGER_TYPES, ids=lambda t: t.__name__)
def test_players_of_any_integer_type_build_the_per_match_hypergraph(build, kind):
    rng = np.random.default_rng(35)
    for _ in range(10):
        n, matches = random_matches(rng)
        matches = [([kind(i) for i in who], scores) for who, scores in matches]
        data = build(n, matches)
        assert data.hypergraph == per_match_hypergraph(n, matches)
        assert np.array_equal(data.scores, csr_scores(matches))


MATCH = ((1, 2), (0.0, 1.0))
PLAYERS = "^match #1: participants must be integers, got "
N = '^match data: "n" must be an integer, got '


@pytest.mark.parametrize("build", [MatchData, from_json], ids=["MatchData", "json"])
@pytest.mark.parametrize("n, matches, error, message", [
    # matches is a function: a generator is read once
    (2, lambda: [MATCH, ((True, 2), (0.0, 1.0))], MalformedInput, PLAYERS + r"\(True, 2\)$"),
    (2, lambda: [MATCH, ((np.True_, 2), (0.0, 1.0))], MalformedInput, PLAYERS),
    (2, lambda: [MATCH, ((1.0, 2), (0.0, 1.0))], MalformedInput, PLAYERS),
    (2, lambda: [MATCH, (("1", 2), (0.0, 1.0))], MalformedInput, PLAYERS),
    (2, lambda: [MATCH, ((None, 2), (0.0, 1.0))], MalformedInput, PLAYERS),
    (2, lambda: [MATCH, (1, (0.0, 1.0))], MalformedInput, PLAYERS + "1$"),
    (2, lambda: [MATCH, ((i for i in (1, 2)), (0.0, 1.0))], MalformedInput, PLAYERS),
    (True, lambda: [MATCH], MalformedInput, N + "True$"),
    (2.0, lambda: [MATCH], MalformedInput, N + "2.0$"),
    ("2", lambda: [MATCH], MalformedInput, N + "'2'$"),
    (0, lambda: [], DisconnectedHypergraph, "^hypergraph has no vertices$"),
], ids=["player-true", "player-numpy-true", "player-float", "player-str", "player-none",
        "participants-scalar", "participants-generator", "n-true", "n-float", "n-str",
        "no-players"])
def test_each_match_value_is_checked_by_type(build, n, matches, error, message):
    # a document and the same matches as pairs give one error: the one the
    # type rule gives, naming the match (never player 1, never a bare error)
    with pytest.raises(error, match=message):
        build(n, matches())


@pytest.mark.parametrize("match", [((1, 2),), ((1, 2), (0.0, 1.0), 5), 5],
                         ids=["1-tuple", "3-tuple", "scalar"])
def test_a_match_that_is_not_a_pair_is_named(match):
    with pytest.raises(MalformedInput, match=r"^match #1: expected a \(participants, scores\) "
                                             "pair, got "):
        MatchData(2, [MATCH, match])


@pytest.mark.parametrize("matches", [None, 5], ids=["none", "int"])
def test_matches_that_are_not_iterable_are_named(matches):
    with pytest.raises(MalformedInput, match=r'^match data: "matches" must be an iterable of '
                                             f"pairs, got {matches}$"):
        MatchData(2, matches)


def test_a_match_document_and_its_pairs_give_one_outcome():
    rng = np.random.default_rng(35)
    faults = [None, "zero", "above", "huge", "float", "spread", "underflow"]
    for case in range(70):
        n, matches = random_matches(rng)
        if faults[case % len(faults)]:
            inject(rng, n, matches[int(rng.integers(len(matches)))], faults[case % len(faults)])
        data, doc = (built_or_fault(build, n, matches) for build in (MatchData, from_json))
        assert same(data, doc) if isinstance(data, MatchData) else data == doc, (n, matches)


@pytest.mark.parametrize("dtype", [None, np.uint8, np.int32, np.uint64])
def test_valid_match_sets_build_the_per_match_hypergraph(dtype):
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, matches = random_matches(rng)
        if dtype is not None:
            matches = [(np.array(who, dtype=dtype), scores) for who, scores in matches]
        data = MatchData(n, matches)
        assert data.hypergraph == per_match_hypergraph(n, matches)
        assert np.array_equal(data.scores, csr_scores(matches))


def per_match_mc3_chain(n, matches):
    """The MC3 chain built match by match, the reference for rank_mc3."""
    match_count = np.zeros(n)
    for who, _ in matches:
        for i in who:
            match_count[i - 1] += 1
    P = np.zeros((n, n))
    for who, scores in matches:
        size = len(who)
        score_of = dict(zip(who, scores))
        for i in who:
            step = 1.0 / (match_count[i - 1] * size)
            for j in who:
                if score_of[j] > score_of[i]:
                    P[i - 1, j - 1] += step
                else:
                    P[i - 1, i - 1] += step
    return P


def recorded_stacks(monkeypatch):
    """A list that gets a copy of each stack of chains the rankers' step
    builds, as its restart mix receives it."""
    stacks = []
    real = rankagg._restart

    def recording(M, beta, r=None, out=None):
        stacks.append(M.copy())
        return real(M, beta, r, out)

    monkeypatch.setattr(rankagg, "_restart", recording)
    return stacks


def test_mc3_chain_equals_per_match_loop(monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    cases = list(generated_matches())
    doc = shuffled_match_file()
    tied = [(m["participants"], [float(round(s)) for s in m["scores"]]) for m in doc["matches"]]
    for matches in ([(m["participants"], m["scores"]) for m in doc["matches"]], tied):
        cases.append((MatchData(doc["n"], matches), doc["n"], matches))
    for data, n, matches in cases:
        expected = per_match_mc3_chain(n, [(np.asarray(w).tolist(), s) for w, s in matches])
        reference = lu_stationary(restart_matrix(TransitionMatrix(
            [str(i) for i in range(1, n + 1)], expected), rankagg.DEFAULT_BETA))
        # alone, and as the last chain of a trial's stack
        for rank in (rank_mc3, lambda data: rankagg._rankings(data, rankagg.DEFAULT_BETA)[2]):
            result = rank(data)
            assert np.array_equal(stacks[-1][-1], expected)
            assert np.array_equal(result.scores, reference)


def test_mc3_blocks_leave_chain_unchanged(monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    default = core._PAIR_CHUNK
    for data in (generate(30, 1.0, 0.3, seed=9), generate(100, 1.0, 0.03, seed=1)):
        # a block per row; blocks splitting matches, so the size-order walk
        # and MC3's match-order walk yield different numbers of chunks
        for chunk in (default, 1, 7, 100):
            monkeypatch.setattr(core, "_PAIR_CHUNK", chunk)
            rank_mc3(data)
            rankagg._rankings(data, rankagg.DEFAULT_BETA)
        assert all(np.array_equal(P, stacks[0]) for P in stacks[::2])
        assert all(np.array_equal(P, stacks[1]) for P in stacks[1::2])
        assert np.array_equal(stacks[1][2], stacks[0][0])
        stacks.clear()


def stacked_match_sets():
    """generate() at n in {2, 7, 100} and p in {0.03, 0.05, 0.3}, three
    seeds each, then the shuffled match file with its scores rounded, so
    that players tie within matches."""
    for n in (2, 7, 100):
        for p in (0.03, 0.05, 0.3):
            for seed in (0, 1, 2):
                yield generate(n, 1.0, p, seed)
    doc = shuffled_match_file()
    yield MatchData(doc["n"], [(m["participants"], [float(round(s)) for s in m["scores"]])
                               for m in doc["matches"]])


def test_stacked_step_equals_each_chain_solved_alone():
    # every chain's pi and order equal restart_matrix -> its LU solve ->
    # _ranking of the chain as its own function makes it, bit for bit, in the stack
    # of a trial and as a ranker's one-chain stack
    beta = rankagg.DEFAULT_BETA
    for data in stacked_match_sets():
        H, n = data.hypergraph, data.n
        doc = matches_to_json_dict(data)
        chains = [transition_matrix(H),
                  graph_random_walk(clique_expansion_weights(delta_normalized(H))),
                  TransitionMatrix(H.vertices, per_match_mc3_chain(
                      n, [(m["participants"], m["scores"]) for m in doc["matches"]]))]
        stacked = rankagg._rankings(data, beta)
        alone = [ranker(data, beta) for ranker in (rank_hypergraph, rank_clique, rank_mc3)]
        for method, chain, *results in zip(rankagg._METHODS, chains, stacked, alone):
            want = rankagg._ranking(method, lu_stationary(restart_matrix(chain, beta)))
            for result in results:
                assert result.method == method
                assert result.scores.tobytes() == want.scores.tobytes(), (n, method)
                assert result.order == want.order


def test_stack_solve_names_a_negative_probability(monkeypatch):
    # beyond RESIDUAL_TOL below 0 an entry is no rounding of a zero mass
    data = generate(4, 1.0, 0.5, seed=1)
    monkeypatch.setattr(rankagg, "_fixed_point", lambda M: np.array([[0.5, 0.5, 0.5, -0.5]]))
    with pytest.raises(ConvergenceFailure, match="-5.000e-01 of vertex '4'"):
        rank_hypergraph(data)
    monkeypatch.setattr(rankagg, "_fixed_point",
                        lambda M: np.array([[1.0, -0.0, -RESIDUAL_TOL, 0.25]]))
    scores = rank_hypergraph(data).scores
    assert scores.tolist() == [1.0, 0.0, 0.0, 0.25] and not np.signbit(scores).any()


@pytest.mark.parametrize("ranker", [rank_hypergraph, rank_mc3])
def test_rankers_share_the_dense_size_limit(ranker):
    data = MatchData(4200, [((i, i + 1), (0.0, 1.0)) for i in range(1, 4200)])
    with pytest.raises(SizeLimit, match="at most 4096 vertices, got 4200"):
        ranker(data)


@pytest.mark.parametrize("ranker", [rank_hypergraph, rank_clique, rank_mc3, rankagg._rankings],
                         ids=lambda ranker: ranker.__name__)
@pytest.mark.parametrize("beta", [0, 1, 1.5, math.nan, True], ids=repr)
def test_rankers_refuse_a_restart_probability_outside_0_1(ranker, beta):
    data = MatchData(3, [((1, 2), (0.0, 1.0)), ((2, 3), (1.0, 0.5))])
    with pytest.raises(BadBeta) as info:
        ranker(data, beta)
    assert str(info.value) == f"restart probability must lie in (0, 1), got {beta!r}"


def test_experiment_builds_one_hypergraph_per_trial(monkeypatch):
    calls = []
    real = Hypergraph._build

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Hypergraph, "_build", counting)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 1)  # every trial counted here
    experiment(10, 1.0, [0.3, 0.5], trials=3, seed=5)
    assert len(calls) == 2 * 3


def test_rankers_read_the_walk_factors_from_the_hypergraph(monkeypatch):
    # each trial's walk chain takes its factors from walk._lazy_factors of
    # its own hypergraph, once; the clique and MC3 chains do not read them
    calls = []
    real = rankagg._lazy_factors

    def counting(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(rankagg, "_lazy_factors", counting)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 1)  # every trial counted here
    experiment(10, 1.0, [0.3], trials=3, seed=5)
    assert len(calls) == 3 and len({id(H) for H in calls}) == 3
    data = generate(10, 1.0, 0.3, seed=5)
    for ranker, count in ((rank_hypergraph, 1), (rank_clique, 0), (rank_mc3, 0)):
        calls.clear()
        ranker(data)
        assert calls == [data.hypergraph] * count, ranker


# -- rankers ------------------------------------------------------------------------

def winner_first(ranker):
    data = MatchData(2, [((1, 2), (0.0, 1.0))])
    return ranker(data).order


@pytest.mark.parametrize("ranker", [rank_hypergraph, rank_clique, rank_mc3])
def test_two_player_winner_ranked_first(ranker):
    assert winner_first(ranker) == (2, 1)


def test_tied_scores_rank_by_appearances():
    data = MatchData(3, [((1, 2), (0.0, 0.0)), ((1, 3), (0.0, 0.0))])
    result = rank_hypergraph(data)
    assert result.order == (1, 2, 3)  # player 1 in both matches; tie 2-3 by id


def test_equal_stationary_mass_ranks_by_player_id():
    result = rankagg._ranking("x", np.array([0.1, 0.3, 0.1, 0.3, 0.2, 0.0]))
    assert result.order == (2, 4, 5, 1, 3, 6)
    assert all(type(i) is int for i in result.order)


def test_mc3_ties_keep_walker_in_place():
    data = MatchData(2, [((1, 2), (1.0, 1.0))])
    result = rank_mc3(data)
    assert result.order == (1, 2)  # nobody outscores anybody; uniform restart decides


def test_single_match_hypergraph_equals_clique():
    data = MatchData(3, [((1, 2, 3), (0.3, -0.2, 1.0))])
    assert rank_hypergraph(data).order == rank_clique(data).order


def test_shift_invariance_of_hypergraph_ranking():
    data = generate(10, 1.0, 0.4, seed=11)
    shifted = MatchData(10, [
        (m["participants"], [s + 2.5 for s in m["scores"]])
        for m in matches_to_json_dict(data)["matches"]
    ])
    assert rank_hypergraph(data).order == rank_hypergraph(shifted).order


# -- Kendall tau -----------------------------------------------------------------------

def test_kendall_identity_and_reversal():
    perm = [3, 1, 4, 2, 5]
    for weighted in (False, True):
        assert kendall_tau(perm, perm, weighted) == pytest.approx(1.0)
        assert kendall_tau(list(reversed(perm)), perm, weighted) == pytest.approx(-1.0)


def test_kendall_of_one_element_is_one():
    for weighted in (False, True):
        assert kendall_tau(["x"], ["x"], weighted) == 1.0


def test_kendall_hand_example():
    assert kendall_tau([2, 1, 3], [1, 2, 3]) == pytest.approx(1 / 3, abs=1e-15)
    # one discordant pair at truth positions (0,1): (-3/2 + 4/3 + 5/6) / (11/3)
    assert kendall_tau([2, 1, 3], [1, 2, 3], weighted=True) == pytest.approx(2 / 11, abs=1e-15)


def test_kendall_unweighted_symmetry_and_scipy_agreement():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = list(rng.permutation(n))
        b = list(rng.permutation(n))
        mine = kendall_tau(a, b)
        assert mine == pytest.approx(kendall_tau(b, a), abs=1e-13)
        ref, _ = scipy.stats.kendalltau([a.index(i) for i in range(n)],
                                        [b.index(i) for i in range(n)])
        assert mine == pytest.approx(ref, abs=1e-12)


def plain_kendall_tau(order, truth, weighted=False):
    """The double loop over pairs i < j of `truth`, the reference for kendall_tau."""
    pos = {item: k for k, item in enumerate(order)}
    n = len(order)
    signed = 0.0
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            w = 1.0 / (i + 1) + 1.0 / (j + 1) if weighted else 1.0
            concordant = pos[truth[i]] < pos[truth[j]]
            signed += w if concordant else -w
            total += w
    return signed / total


def random_rankings(rng, n):
    """Two random permutations of 1..n, or of n strings every other n."""
    elements = [f"p{i}" for i in range(n)] if n % 2 else list(range(1, n + 1))
    return ([elements[k] for k in rng.permutation(n)],
            [elements[k] for k in rng.permutation(n)])


def test_kendall_equals_plain_loop():
    rng = np.random.default_rng(13)
    for n in range(2, 150):
        order, truth = random_rankings(rng, n)
        for weighted in (False, True):
            tau = kendall_tau(order, truth, weighted)
            assert type(tau) is float
            assert tau == plain_kendall_tau(order, truth, weighted)


def test_kendall_blocks_leave_results_unchanged(monkeypatch):
    rng = np.random.default_rng(14)
    cases = [random_rankings(rng, n) for n in (2, 3, 17, 64, 101)]
    want = [kendall_tau(o, t, w) for o, t in cases for w in (False, True)]
    for chunk in (1, 1000):  # one row per block; uneven blocks
        monkeypatch.setattr(rankagg, "_PAIR_CHUNK", chunk)
        assert [kendall_tau(o, t, w) for o, t in cases for w in (False, True)] == want


def test_kendall_memory_is_bounded():
    n = 4096  # the dense walk limit: 8.4 million pairs, over 200 MB unblocked
    order = (np.random.default_rng(15).permutation(n) + 1).tolist()
    tracemalloc.start()
    try:
        kendall_tau(order, list(range(n, 0, -1)), weighted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_experiment_taus_equal_kendall_tau(monkeypatch, chunk):
    # both taus of a ranking come from one pass over pairs held once per
    # experiment; each equals the public function's, bit for bit
    orders = []
    real = rankagg._stationary

    def recording(data, beta, methods=rankagg._METHODS):
        pis = real(data, beta, methods)
        orders.extend(rankagg._ranking(m, pi).order for m, pi in zip(methods, pis))
        return pis

    monkeypatch.setattr(rankagg, "_stationary", recording)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 1)  # every order recorded here
    if chunk is not None:  # rows of pairs split across blocks
        monkeypatch.setattr(rankagg, "_PAIR_CHUNK", chunk)
    for n in (2, 7, 100):
        orders.clear()
        rows = experiment(n, 1.0, [0.05, 0.3], trials=2, seed=11).trials
        truth = list(range(n, 0, -1))
        assert len(rows) == len(orders) == 12
        for row, order in zip(rows, orders):
            for weighted, key in ((True, "tau_weighted"), (False, "tau_unweighted")):
                tau = kendall_tau(order, truth, weighted=weighted)
                assert type(row[key]) is float
                assert row[key].hex() == tau.hex(), (n, row)


def test_kendall_element_mismatch():
    with pytest.raises(ElementMismatch):
        kendall_tau([1, 2], [1, 3])
    with pytest.raises(ElementMismatch):
        kendall_tau([1, 2], [1, 2, 3])
    with pytest.raises(ElementMismatch):  # same element set, not permutations
        kendall_tau([1, 1, 2], [1, 2, 2])


# -- experiment --------------------------------------------------------------------------

def test_experiment_single_trial():
    result = experiment(10, 1.0, [0.3], trials=1, seed=5)
    assert len(result.trials) == 3  # one row per method
    for row in result.summary:
        assert row["std_tau_weighted"] == 0.0
        assert row["trials"] == 1


def test_experiment_rejects_repeated_rate(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a match set was drawn")

    monkeypatch.setattr(rankagg, "_draw", unreachable)
    with pytest.raises(ValueError, match="inclusion rate 0.3 is given more than once"):
        experiment(10, 1.0, [0.3, 0.5, 0.3], trials=2, seed=5)


def test_the_summary_does_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12 and later compensate sum(), so a summary summed by it would
    # have other bits there; math.fsum stands in for such a sum(), and the
    # summary keeps the bits of a left-to-right sum, which fsum would move
    monkeypatch.setattr(rankagg, "sum", math.fsum, raising=False)
    result = experiment(100, 1.0, [0.03, 0.05, 0.07], 30, 42)
    doc = {"trials": result.trials, "summary": result.summary}
    assert summary_sum.mismatches(doc, summary_sum.in_order) == []
    assert len(summary_sum.mismatches(doc, math.fsum)) == 9


def test_the_summary_script_reproduces_the_cli_summary(tmp_path):
    # the stdlib-only script that checks the summary on a Python without numpy
    out = tmp_path / "run.json"
    assert dispatch(["rankagg", "--json", "--trials", "4", "--out", str(out)]) == 0
    run = subprocess.run([sys.executable, summary_sum.__file__, str(out)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "left to right reproduces 9 of 9 rows" in run.stdout


def test_experiment_deterministic_csv():
    r1 = experiment(10, 1.0, [0.3, 0.5], trials=2, seed=5)
    r2 = experiment(10, 1.0, [0.3, 0.5], trials=2, seed=5)
    assert r1.to_csv() == r2.to_csv()
    header = r1.to_csv().splitlines()[0]
    assert header == "method,p,trial,tau_weighted,tau_unweighted"


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_trials_share_the_available_cpus_unless_another_thread_runs():
    assert threading.active_count() == 1
    assert rankagg._shares(1) == 1
    assert rankagg._shares(1000) == min(len(os.sched_getaffinity(0)), 1000)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:  # a fork copies one thread of several: the trials stay in this process
        assert rankagg._shares(1000) == 1
    finally:
        release.set()
        thread.join()


def rows(result):
    return [(r["method"], r["p"], r["trial"], r["tau_weighted"].hex(),
             r["tau_unweighted"].hex()) for r in result.trials]


@pytest.mark.parametrize("args", [(30, 1.0, [0.05, 0.3], 5, 11), (100, 1.0, [0.05], 4, 42)])
def test_experiment_bits_do_not_depend_on_the_process_count(monkeypatch, args):
    # 10 trials at k = 3 split 4, 3, 3; the 4 trials at n = 100 split 2, 1, 1
    runs = []
    for k in (1, 2, 3):
        monkeypatch.setattr(rankagg, "_shares", lambda tasks, k=k: k)
        runs.append(experiment(*args))
        no_child_left()
    for run in runs[1:]:
        assert rows(run) == rows(runs[0])
        assert run.summary == runs[0].summary
        assert run.to_csv() == runs[0].to_csv()


def reference_rows(n, sigma, p_values, trials, seed):
    """The per-trial loop the batches replaced: generate, then _stationary,
    then both Kendall taus of each chain's order, as hex."""
    truth = list(range(n, 0, -1))
    out = []
    for p in p_values:
        for t in range(trials):
            pis = rankagg._stationary(generate(n, sigma, p, seed + t), rankagg.DEFAULT_BETA)
            for method, pi in zip(rankagg._METHODS, pis):
                order = rankagg._ranking(method, pi).order
                out.append((method, p, t, kendall_tau(order, truth, weighted=True).hex(),
                            kendall_tau(order, truth).hex()))
    return out


def recording_batches(monkeypatch):
    """Patch _match_sets to record each batch it builds as (trials, entries)."""
    batches = []
    real = rankagg._match_sets

    def recording(n, draws):
        batches.append((len(draws), sum(len(players) for _, players, _ in draws)))
        return real(n, draws)

    monkeypatch.setattr(rankagg, "_match_sets", recording)
    return batches


@pytest.mark.parametrize("args", [(2, 1.0, [0.3, 0.7], 5, 3), (3, 1.0, [0.5, 0.2], 4, 8),
                                  (7, 1.0, [0.05, 0.3, 0.6], 3, 11), (100, 1.0, [0.03, 0.07], 3, 42)])
def test_experiment_batches_equal_the_per_trial_loop(monkeypatch, args):
    # every trial built in one batch, or in batches of one or two trials, in
    # one to three shares, gives the rows of the per-trial loop bit for bit
    want = reference_rows(*args)
    n, sigma, p_values, trials, seed = args
    entries = [len(rankagg._draw(n, sigma, p, seed + t)[1]) for p in p_values for t in range(trials)]
    batches = recording_batches(monkeypatch)
    sizes = set()
    # a bound under two trials' entries makes one-trial batches, one under three two-trial ones
    for bound in (rankagg._BATCH_ENTRIES, 1, 3 * min(entries) - 1):
        monkeypatch.setattr(rankagg, "_BATCH_ENTRIES", bound)
        for k in (1, 2, 3):
            monkeypatch.setattr(rankagg, "_shares", lambda tasks, k=k: k)
            batches.clear()
            assert rows(experiment(*args)) == want, (bound, k)
            no_child_left()
            sizes.update(size for size, _ in batches)
            if bound == 1:
                assert {size for size, _ in batches} <= {1}
    assert {1, 2} <= sizes


def test_batches_hold_at_most_the_bound_of_entries(monkeypatch):
    # a batch takes consecutive trials while their entries stay within the
    # bound; a trial above it is a batch of its own
    batches = recording_batches(monkeypatch)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 1)  # every batch recorded here
    for bound in (1, 40, 150, 1000, rankagg._BATCH_ENTRIES):
        monkeypatch.setattr(rankagg, "_BATCH_ENTRIES", bound)
        batches.clear()
        experiment(20, 1.0, [0.1, 0.3], trials=6, seed=2)
        assert sum(size for size, _ in batches) == 12
        assert all(entries <= bound or size == 1 for size, entries in batches), (bound, batches)
    assert batches == [(12, sum(entries for _, entries in batches))]  # the default: one batch


def test_a_build_fault_before_a_draw_give_up_in_one_batch_is_raised(monkeypatch):
    # trials 1 and 7 of 9 fall in one share's batch at k = 1, 2 and 3: the
    # draw of trial 7 gives up, and trial 1's scores overflow when its batch,
    # the trials drawn before 7, is built; trial 1's error is raised
    real = rankagg._draw

    def planted(n, sigma, p, seed):
        if seed == 7 + 7:
            raise ConvergenceFailure("planted at trial 7")
        sizes, players, scores = real(n, sigma, p, seed)
        if seed == 7 + 1:
            scores = scores.copy()
            scores[2] = 701.0
        return sizes, players, scores

    with pytest.raises(ScoreOverflow) as alone:
        rankagg._match_sets(10, [planted(10, 1.0, 0.3, 8)])
    monkeypatch.setattr(rankagg, "_draw", planted)
    batches = recording_batches(monkeypatch)
    for k in (1, 2, 3):
        monkeypatch.setattr(rankagg, "_shares", lambda tasks, k=k: k)
        batches.clear()
        with pytest.raises(HyperwalkError) as info:
            experiment(10, 1.0, [0.3], trials=9, seed=7)
        assert (type(info.value), str(info.value)) == (ScoreOverflow, str(alone.value)), k
        no_child_left()
        if k == 1:  # trials 0 to 6 as one batch, then trials 0 and 1 alone
            assert [size for size, _ in batches] == [7, 1, 1]


def test_a_fault_in_a_batch_of_one_draw_is_raised_by_its_own_message():
    # one trial, so its batch is one draw, and its fault is raised as built
    with pytest.raises(ScoreOverflow, match=r"^match #0: score .* is not a finite number"):
        experiment(100, 1e308, [0.5], 1, 1)


def test_experiment_raises_the_lowest_failing_trials_error(monkeypatch):
    # trial j of 10 is (p, t) in order with seed 11 + t; j = 3 and j = 4 fail.
    # At k = 2 the parent's share fails at 4 and a child's at 3; at k = 3 the
    # parent's fails at 3 and a child's at 4.
    real = rankagg._draw

    def planted(n, sigma, p, seed):
        if p == 0.05 and seed == 14:
            raise ConvergenceFailure("planted at trial 3")
        if seed == 15:
            raise ScoreOverflow("planted at trial 4")
        return real(n, sigma, p, seed)

    monkeypatch.setattr(rankagg, "_draw", planted)
    raised = []
    for k in (1, 2, 3):
        monkeypatch.setattr(rankagg, "_shares", lambda tasks, k=k: k)
        with pytest.raises(HyperwalkError) as info:
            experiment(30, 1.0, [0.05, 0.3], trials=5, seed=11)
        raised.append((type(info.value), str(info.value)))
        no_child_left()
    assert raised == [(ConvergenceFailure, "planted at trial 3")] * 3


def test_experiment_kills_its_children_on_interrupt(monkeypatch):
    parent = os.getpid()

    def planted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the children are still running when the parent stops

    monkeypatch.setattr(rankagg, "_draw", planted)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        experiment(10, 1.0, [0.3], trials=3, seed=5)
    assert time.monotonic() - start < 30
    no_child_left()


def unpicklable_error():
    error = ConvergenceFailure("planted")
    error.hook = lambda: None
    raise error


@pytest.mark.parametrize("fault", [lambda: os._exit(3), unpicklable_error],
                         ids=["exits", "unpicklable-error"])
def test_experiment_names_a_child_that_sends_nothing(monkeypatch, fault):
    parent = os.getpid()
    real = rankagg._draw

    def planted(*args):
        if os.getpid() != parent:
            fault()
        return real(*args)

    monkeypatch.setattr(rankagg, "_draw", planted)
    monkeypatch.setattr(rankagg, "_shares", lambda tasks: 2)
    with pytest.raises(ChildProcessError, match="sent no trials"):
        experiment(10, 1.0, [0.3], trials=2, seed=5)
    no_child_left()


def test_denser_rankings_help_every_method():
    result = experiment(50, 1.0, [0.03, 0.07], trials=12, seed=180)
    by = {(r["method"], r["p"]): r["mean_tau_weighted"] for r in result.summary}
    for method in ("hypergraph-rwr", "clique-rwr", "mc3"):
        assert by[(method, 0.07)] > by[(method, 0.03)]


def test_matches_json_round_trip():
    data = generate(6, 1.0, 0.5, seed=3)
    again = matches_from_json_dict(matches_to_json_dict(data))
    assert same(again, data)
    assert again.n == data.n
