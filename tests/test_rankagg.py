"""Synthetic rank aggregation: generator, chain builders, Kendall tau."""

import math

import numpy as np
import pytest
import scipy.stats

from hyperwalk import (
    ElementMismatch,
    Match,
    MatchData,
    ScoreOverflow,
    experiment,
    generate,
    kendall_tau,
    match_hypergraph,
    rank_clique,
    rank_hypergraph,
    rank_mc3,
    to_json_dict,
)
from hyperwalk.rankagg import matches_from_json_dict, matches_to_json_dict


# -- generator -------------------------------------------------------------------

def test_generate_deterministic():
    a = generate(20, 1.0, 0.2, seed=7)
    b = generate(20, 1.0, 0.2, seed=7)
    assert a.matches == b.matches
    assert generate(20, 1.0, 0.2, seed=8).matches != a.matches


def test_generate_coverage_and_sizes():
    data = generate(100, 1.0, 0.05, seed=7)
    seen = {i for m in data.matches for i in m.participants}
    assert seen == set(range(1, 101))
    sizes = [len(m.participants) for m in data.matches]
    assert min(sizes) >= 2
    assert 3.0 <= np.mean(sizes) <= 7.0  # expected size about n*p = 5


def test_generate_two_players():
    data = generate(2, 1.0, 0.05, seed=1)
    assert all(m.participants == (1, 2) for m in data.matches)


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate(10, 0.0, 0.1, seed=1)
    with pytest.raises(ValueError):
        generate(10, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate(1, 1.0, 0.5, seed=1)


def test_match_validation():
    with pytest.raises(ValueError):
        Match((1, 1), (0.0, 1.0))
    with pytest.raises(ValueError):
        Match((1,), (0.0,))
    with pytest.raises(ValueError):
        MatchData(3, [Match((1, 2), (0.0, 1.0))])  # player 3 never appears


# -- hypergraph construction -----------------------------------------------------------

def test_match_hypergraph_identical_scores():
    data = MatchData(2, [Match((1, 2), (1.5, 1.5))])
    (edge,) = to_json_dict(match_hypergraph(data))["edges"]
    assert edge["weight"] == 1.0  # zero deviation
    assert edge["members"]["1"] == pytest.approx(math.exp(1.5))


def test_match_hypergraph_weights():
    data = MatchData(2, [Match((1, 2), (0.0, math.log(2.0)))])
    (edge,) = to_json_dict(match_hypergraph(data))["edges"]
    # population standard deviation of (0, ln 2) is ln(2)/2
    assert edge["weight"] == pytest.approx(1.0 + math.log(2.0) / 2, abs=1e-15)
    assert edge["members"]["1"] == pytest.approx(1.0)
    assert edge["members"]["2"] == pytest.approx(2.0)


def test_score_overflow():
    data = MatchData(2, [Match((1, 2), (0.0, 701.0))])
    with pytest.raises(ScoreOverflow, match="player 2"):
        match_hypergraph(data)


# -- rankers ------------------------------------------------------------------------

def winner_first(ranker):
    data = MatchData(2, [Match((1, 2), (0.0, 1.0))])
    return ranker(data).order


@pytest.mark.parametrize("ranker", [rank_hypergraph, rank_clique, rank_mc3])
def test_two_player_winner_ranked_first(ranker):
    assert winner_first(ranker) == (2, 1)


def test_tied_scores_rank_by_appearances():
    data = MatchData(3, [Match((1, 2), (0.0, 0.0)), Match((1, 3), (0.0, 0.0))])
    result = rank_hypergraph(data)
    assert result.order == (1, 2, 3)  # player 1 in both matches; tie 2-3 by id


def test_mc3_ties_keep_walker_in_place():
    data = MatchData(2, [Match((1, 2), (1.0, 1.0))])
    result = rank_mc3(data)
    assert result.order == (1, 2)  # nobody outscores anybody; uniform restart decides


def test_single_match_hypergraph_equals_clique():
    data = MatchData(3, [Match((1, 2, 3), (0.3, -0.2, 1.0))])
    assert rank_hypergraph(data).order == rank_clique(data).order


def test_shift_invariance_of_hypergraph_ranking():
    data = generate(10, 1.0, 0.4, seed=11)
    shifted = MatchData(10, [
        Match(m.participants, tuple(s + 2.5 for s in m.scores))
        for m in data.matches
    ])
    assert rank_hypergraph(data).order == rank_hypergraph(shifted).order


# -- Kendall tau -----------------------------------------------------------------------

def test_kendall_identity_and_reversal():
    perm = [3, 1, 4, 2, 5]
    for weighted in (False, True):
        assert kendall_tau(perm, perm, weighted) == pytest.approx(1.0)
        assert kendall_tau(list(reversed(perm)), perm, weighted) == pytest.approx(-1.0)


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


def test_kendall_element_mismatch():
    with pytest.raises(ElementMismatch):
        kendall_tau([1, 2], [1, 3])
    with pytest.raises(ElementMismatch):
        kendall_tau([1, 2], [1, 2, 3])


# -- experiment --------------------------------------------------------------------------

def test_experiment_single_trial():
    result = experiment(10, 1.0, [0.3], trials=1, seed=5)
    assert len(result.trials) == 3  # one row per method
    for row in result.summary:
        assert row["std_tau_weighted"] == 0.0
        assert row["trials"] == 1


def test_experiment_deterministic_csv():
    r1 = experiment(10, 1.0, [0.3, 0.5], trials=2, seed=5)
    r2 = experiment(10, 1.0, [0.3, 0.5], trials=2, seed=5)
    assert r1.to_csv() == r2.to_csv()
    header = r1.to_csv().splitlines()[0]
    assert header == "method,p,trial,tau_weighted,tau_unweighted"


def test_denser_rankings_help_every_method():
    result = experiment(50, 1.0, [0.03, 0.07], trials=12, seed=180)
    by = {(r["method"], r["p"]): r["mean_tau_weighted"] for r in result.summary}
    for method in ("hypergraph-rwr", "clique-rwr", "mc3"):
        assert by[(method, 0.07)] > by[(method, 0.03)]


def test_matches_json_round_trip():
    data = generate(6, 1.0, 0.5, seed=3)
    again = matches_from_json_dict(matches_to_json_dict(data))
    assert again.matches == data.matches
    assert again.n == data.n
