"""Synthetic rank aggregation on hypergraph random walks.

Players 1..n have latent skill equal to their id. Each synthetic match picks
a random subset of players, draws noisy scores around 0.2 * skill, and scales
them by a random factor; matches accumulate until every player has appeared.
Rankings come from the stationary distribution of a restart walk over three
chains built from the matches:

* hypergraph -- one hyperedge per match, edge weight omega = score standard
  deviation + 1, vertex weight gamma = exp(score);
* clique     -- the weighted clique expansion of that hypergraph after
  normalizing each edge degree to 1;
* mc3        -- the classic pairwise chain: pick one of your matches, pick a
  participant uniformly, move only if they outscored you.

Quality is measured by Kendall tau against the true skill order, in both the
unweighted and top-weighted (hyperbolic position weights) variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Hypergraph, delta_normalized
from .errors import ConvergenceFailure, ElementMismatch, MalformedInput, ScoreOverflow
from .reduction import clique_expansion_weights, graph_random_walk
from .stationary import stationary_direct
from .walk import TransitionMatrix, restart_matrix, transition_matrix

__all__ = [
    "ExperimentResult",
    "Match",
    "MatchData",
    "RankingResult",
    "experiment",
    "generate",
    "kendall_tau",
    "match_hypergraph",
    "matches_from_json_dict",
    "matches_to_json_dict",
    "rank_clique",
    "rank_hypergraph",
    "rank_mc3",
]

SCALE_RANGE = (1.0 / 3.0, 3.0)
SCORE_LIMIT = 700.0  # exp() overflows just above 709
DEFAULT_BETA = 0.4
# generate() gives up after this many match draws (kept or discarded).
MAX_DRAWS = 100_000


@dataclass(frozen=True)
class Match:
    participants: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.participants) != len(self.scores):
            raise ValueError("participants and scores must have equal length")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("participants must be distinct")
        if len(self.participants) < 2:
            raise ValueError("a match needs at least two participants")
        if not all(math.isfinite(s) for s in self.scores):
            raise ValueError("scores must be finite")


@dataclass
class MatchData:
    n: int
    matches: list[Match]

    def __post_init__(self):
        seen: set[int] = set()
        for m in self.matches:
            for i in m.participants:
                if not 1 <= i <= self.n:
                    raise ValueError(f"player {i} outside 1..{self.n}")
            seen.update(m.participants)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"players never appear in any match: {missing[:5]}")


def generate(n: int, sigma: float, p: float, seed: int) -> MatchData:
    """Draw matches until every player has appeared at least once and the
    matches overlap into a single connected component.

    Per match: each player joins independently with probability p; draws with
    fewer than two members are discarded; a scale factor c is uniform on
    [1/3, 3]; player i's score is c * N(0.2 * i, sigma). Deterministic for a
    fixed seed. Connectivity is required because every downstream chain is
    built on a hypergraph, and those are connected by construction; coverage
    alone almost always suffices, so the extra matches are rare. After
    MAX_DRAWS draws without reaching both, ConvergenceFailure is raised.
    """
    if n < 2:
        raise ValueError("need at least two players")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    matches: list[Match] = []
    covered = np.zeros(n, dtype=bool)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    draws = 0
    while not covered.all() or components > 1:
        if draws == MAX_DRAWS:
            raise ConvergenceFailure(
                f"{MAX_DRAWS} match draws did not cover all {n} players in one "
                f"connected set at p={p}; increase p"
            )
        draws += 1
        mask = rng.random(n) < p
        if mask.sum() < 2:
            continue
        players = np.flatnonzero(mask) + 1
        c = rng.uniform(*SCALE_RANGE)
        scores = c * rng.normal(0.2 * players, sigma)
        matches.append(Match(tuple(int(i) for i in players),
                             tuple(float(s) for s in scores)))
        covered[players - 1] = True
        root = find(int(players[0]) - 1)
        for i in players[1:]:
            r = find(int(i) - 1)
            if r != root:
                parent[r] = root
                components -= 1
    return MatchData(n=n, matches=matches)


def match_hypergraph(data: MatchData) -> Hypergraph:
    """One hyperedge per match: weight = population standard deviation of the
    match scores + 1, vertex weight = exp(score). Scores above 700 raise
    rather than silently saturating."""
    vertices = [str(i) for i in range(1, data.n + 1)]
    edges = []
    for k, m in enumerate(data.matches):
        scores = np.asarray(m.scores)
        members: dict[str, float] = {}
        for i, s in zip(m.participants, scores):
            if s > SCORE_LIMIT or not math.isfinite(s):
                raise ScoreOverflow(
                    f"match #{k}: score {s!r} of player {i} cannot be exponentiated"
                )
            g = math.exp(s)
            if g == 0.0 or not math.isfinite(g):
                raise ScoreOverflow(
                    f"match #{k}: exp(score) degenerate for player {i} (score {s!r})"
                )
            members[str(i)] = g
        edges.append((float(np.std(scores)) + 1.0, members))
    return Hypergraph(vertices, edges)


@dataclass
class RankingResult:
    method: str
    scores: np.ndarray            # stationary value per player, index = id - 1
    order: tuple[int, ...]        # best first, ties by ascending player id


def _ranking(method: str, n: int, stationary: np.ndarray) -> RankingResult:
    order = sorted(range(1, n + 1), key=lambda i: (-stationary[i - 1], i))
    return RankingResult(method=method, scores=stationary, order=tuple(order))


def rank_hypergraph(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the match hypergraph, players sorted by stationary mass."""
    P = transition_matrix(match_hypergraph(data))
    pi = stationary_direct(restart_matrix(P, beta)).pi
    return _ranking("hypergraph-rwr", data.n, pi)


def rank_clique(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the weighted clique expansion, built after normalizing
    each edge degree to 1 (the cheap stand-in for the per-edge-constant
    rescaling)."""
    H = delta_normalized(match_hypergraph(data))
    P = graph_random_walk(clique_expansion_weights(H))
    pi = stationary_direct(restart_matrix(P, beta)).pi
    return _ranking("clique-rwr", data.n, pi)


def rank_mc3(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """MC3 chain: from player i, pick one of i's matches uniformly, then a
    participant j of it uniformly; move to j only if j outscored i there
    (ties keep the walker in place)."""
    n = data.n
    match_count = np.zeros(n)
    for m in data.matches:
        for i in m.participants:
            match_count[i - 1] += 1
    P = np.zeros((n, n))
    for m in data.matches:
        size = len(m.participants)
        score_of = dict(zip(m.participants, m.scores))
        for i in m.participants:
            step = 1.0 / (match_count[i - 1] * size)
            for j in m.participants:
                if score_of[j] > score_of[i]:
                    P[i - 1, j - 1] += step
                else:
                    P[i - 1, i - 1] += step
    chain = TransitionMatrix([str(i) for i in range(1, n + 1)], P)
    pi = stationary_direct(restart_matrix(chain, beta)).pi
    return _ranking("mc3", n, pi)


def kendall_tau(order: Sequence, truth: Sequence, weighted: bool = False) -> float:
    """Rank correlation in [-1, 1] between two permutations of one element set.

    Unweighted: (concordant - discordant) / (n choose 2). Weighted: each pair
    at 0-based positions i < j of `truth` carries weight 1/(i+1) + 1/(j+1)
    (disagreements near the top cost more), and the signed total is divided
    by the maximum attainable weighted discordance.
    """
    order = list(order)
    truth = list(truth)
    if len(order) != len(truth) or set(order) != set(truth):
        raise ElementMismatch("rankings must be permutations of the same elements")
    n = len(order)
    if n < 2:
        return 1.0
    pos = {item: k for k, item in enumerate(order)}
    signed = 0.0
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            w = 1.0 / (i + 1) + 1.0 / (j + 1) if weighted else 1.0
            concordant = pos[truth[i]] < pos[truth[j]]
            signed += w if concordant else -w
            total += w
    return signed / total


@dataclass
class ExperimentResult:
    params: dict
    trials: list[dict]   # method, p, trial, tau_weighted, tau_unweighted
    summary: list[dict]  # method, p, mean_tau_weighted, std_tau_weighted, trials

    def to_csv(self) -> str:
        lines = ["method,p,trial,tau_weighted,tau_unweighted"]
        for row in self.trials:
            lines.append(
                f"{row['method']},{row['p']!r},{row['trial']},"
                f"{row['tau_weighted']!r},{row['tau_unweighted']!r}"
            )
        return "\n".join(lines) + "\n"


_METHODS = (
    ("hypergraph-rwr", rank_hypergraph),
    ("clique-rwr", rank_clique),
    ("mc3", rank_mc3),
)


def experiment(n: int, sigma: float, p_values: Iterable[float], trials: int,
               seed: int, beta: float = DEFAULT_BETA) -> ExperimentResult:
    """Run all three rankers over seeded trials for each subsampling rate.

    Trial t uses seed + t, so trials are independent given the base seed and
    the whole table is reproducible byte-for-byte.
    """
    p_values = [float(p) for p in p_values]
    truth = list(range(n, 0, -1))  # best player first
    rows: list[dict] = []
    for p in p_values:
        for t in range(trials):
            data = generate(n, sigma, p, seed + t)
            for method, ranker in _METHODS:
                result = ranker(data, beta=beta)
                rows.append({
                    "method": method,
                    "p": p,
                    "trial": t,
                    "tau_weighted": kendall_tau(result.order, truth, weighted=True),
                    "tau_unweighted": kendall_tau(result.order, truth, weighted=False),
                })
    summary: list[dict] = []
    for method, _ in _METHODS:
        for p in p_values:
            taus = [r["tau_weighted"] for r in rows
                    if r["method"] == method and r["p"] == p]
            mean = sum(taus) / len(taus)
            var = sum((x - mean) ** 2 for x in taus) / len(taus)
            summary.append({
                "method": method,
                "p": p,
                "mean_tau_weighted": mean,
                "std_tau_weighted": math.sqrt(var),
                "trials": len(taus),
            })
    params = {"n": n, "sigma": sigma, "p": p_values, "trials": trials,
              "seed": seed, "beta": beta}
    return ExperimentResult(params=params, trials=rows, summary=summary)


# -- external match data -------------------------------------------------------

def matches_from_json_dict(data: Mapping) -> MatchData:
    """Parse externally supplied match data::

        {"n": 4, "matches": [{"participants": [1, 3], "scores": [0.5, 1.25]}]}
    """
    try:
        matches = [
            Match(tuple(int(i) for i in m["participants"]),
                  tuple(float(s) for s in m["scores"]))
            for m in data["matches"]
        ]
        return MatchData(n=int(data["n"]), matches=matches)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"match data: {type(exc).__name__}: {exc}") from None


def matches_to_json_dict(data: MatchData) -> dict:
    return {
        "n": data.n,
        "matches": [
            {"participants": list(m.participants), "scores": list(m.scores)}
            for m in data.matches
        ],
    }
