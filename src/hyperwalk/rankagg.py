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
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (_PAIR_CHUNK, Hypergraph, _component_labels, _entry_pairs, _Frozen,
                   _per_member, _vertex_index, delta_normalized)
from .errors import (ConvergenceFailure, DisconnectedHypergraph, DuplicateVertex,
                     ElementMismatch, MalformedInput, ScoreOverflow)
from .reduction import clique_expansion_weights, graph_random_walk
from .stationary import stationary_direct
from .walk import TransitionMatrix, _check_size, restart_matrix, transition_matrix

__all__ = [
    "ExperimentResult",
    "MatchData",
    "RankingResult",
    "experiment",
    "generate",
    "kendall_tau",
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


class MatchData(_Frozen):
    """Matches among players 1..n: the one hypergraph the rankers read (see
    the module docstring) and each entry's raw score in its CSR order
    (players ascending in a match).

    Built from ``(participants, scores)`` pairs, flattened once into the
    arrays `generate` builds directly: per match its size, per entry, match
    by match, its player and its score. A match needs two or more distinct
    participants (else MalformedInput, DuplicateVertex) with one finite
    score of at most SCORE_LIMIT each (else ScoreOverflow). More players
    than match entries is a DisconnectedHypergraph. Every other fault (a
    player outside 1..n, a weight that is not finite and positive, a player
    in no match) is named by Hypergraph, the one place a weight is checked:
    when one array test fails, the same matches go to it as ``(omega,
    {player name: gamma})`` pairs in input order. No per-match object is
    made on the success path."""

    __slots__ = ("hypergraph", "scores")

    def __init__(self, n: int, matches: Iterable[tuple[Sequence[int], Sequence[float]]]):
        pairs = [(who, np.asarray(s, dtype=float)) for who, s in matches]
        sizes = np.array([len(who) for who, _ in pairs], dtype=np.intp)
        bad = (sizes < 2) | (sizes != [len(s) for _, s in pairs])
        if bad.any():
            raise MalformedInput(f"match #{bad.argmax()}: needs 2+ participants, one score each")
        players = np.concatenate([np.empty(0, dtype=np.intp)] + [np.asarray(w) for w, _ in pairs])
        # as given, not cast to a number: 2.0 is '2.0', True is 'True', 1 is '1'
        if players.dtype.kind != "i" or any(isinstance(v, (bool, np.bool_))
                                            for who, _ in pairs for v in who):
            players = np.array([v for who, _ in pairs for v in who], dtype=object)
        self._build(n, sizes, players, np.concatenate([np.empty(0)] + [s for _, s in pairs]))

    def _build(self, n: int, sizes, players, scores) -> None:
        """Fill self from flat arrays: per match its size (at least 2), per
        entry, match by match, its player and its score."""
        if n > sizes.sum():  # some player is in no match; found before n names are made
            raise DisconnectedHypergraph(f"{n} players but only {sizes.sum()} match entries")
        edge = np.repeat(np.arange(len(sizes)), sizes)
        # a player is its name, as Hypergraph reads it: True and 1.0 are not player 1
        name = players if players.dtype.kind in "iu" else players.astype(str)
        order = np.lexsort((name, edge))  # for integer players, the hypergraph's CSR order
        p, e = name[order], edge[order]
        twice = np.flatnonzero((p[1:] == p[:-1]) & (e[1:] == e[:-1]))
        if len(twice):
            raise DuplicateVertex(f"match #{e[twice[0]]}: player {p[twice[0]]} takes part twice")
        bad = np.flatnonzero(~(np.isfinite(scores) & (scores <= SCORE_LIMIT)))
        if len(bad):
            i = bad[0]
            raise ScoreOverflow(f"match #{edge[i]}: score {float(scores[i])!r} of player "
                                f"{players[i]} is not a finite number <= {SCORE_LIMIT}")
        # omega = np.std per match + 1, scores in input order: np.std over the
        # rows of a block gives the bits of np.std of each row (np.add.reduceat
        # does not). A spread past the float range gives inf.
        omega = np.empty(len(sizes))
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in np.flatnonzero(np.bincount(sizes)):
                rows = np.flatnonzero(sizes == s)
                omega[rows] = np.std(scores[ptr[rows][:, None] + np.arange(s)], axis=1) + 1.0
        # math.exp per score: np.exp differs in the last bit
        gamma = np.fromiter(map(math.exp, scores.tolist()), float, len(scores))
        names, index = _vertex_index(range(1, n + 1))
        if not (n >= 1 and players.dtype.kind in "iu" and 1 <= players.min()
                and players.max() <= n and np.isfinite(omega).all() and gamma.min() > 0.0):
            # a fault: Hypergraph, reading the same matches, names the first. Players
            # given as objects that it knows by name (np.uint64(2)) build on below.
            who, g = players.tolist(), gamma.tolist()
            Hypergraph(names, [(w, dict(zip(map(str, who[a:b]), g[a:b])))
                               for w, a, b in zip(omega.tolist(), ptr.tolist(), ptr[1:].tolist())])
            order = np.lexsort((players, edge))  # by number: player 9 before player 10
            p = players[order]
        H = object.__new__(Hypergraph)
        H._build(names, index, sizes, p.astype(np.intp) - 1, gamma[order], omega)
        self._set(hypergraph=H, scores=scores[order])

    @property
    def n(self) -> int:
        return self.hypergraph.n_vertices


def _check_draw(n: int, sigma: float, p: float) -> None:
    """The usage errors of generate(n, sigma, p, seed), as ValueError."""
    if n < 2:
        raise ValueError("need at least two players")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")


def generate(n: int, sigma: float, p: float, seed: int) -> MatchData:
    """Draw matches until every player has appeared at least once and the
    matches overlap into a single connected component.

    Per match: each player joins independently with probability p; draws with
    fewer than two members are discarded; a scale factor c is uniform on
    [1/3, 3]; player i's score is c * N(0.2 * i, sigma). Deterministic for a
    fixed seed. Connectivity is required because every downstream chain is
    built on a hypergraph, and those are connected by construction. Once every
    player has appeared, each kept draw checks connectivity by the label
    propagation Hypergraph checks with (``_component_labels``); coverage alone
    almost always suffices, so the extra matches are rare. After MAX_DRAWS
    draws without reaching both, ConvergenceFailure is raised.

    Each draw reads the seed's PCG64 stream in this order, and the seeded
    outputs depend on it: ``random(n)`` for the members, then, for a kept
    draw of k members, ``random()`` for c and ``standard_normal(k)`` for
    the scores. A score beyond the float range is left to MatchData to name
    (ScoreOverflow).
    """
    _check_draw(n, sigma, p)
    rng = np.random.default_rng(seed)
    random, standard_normal = rng.random, rng.standard_normal
    low, span = SCALE_RANGE[0], SCALE_RANGE[1] - SCALE_RANGE[0]
    members, sizes, scale, normal = [], [], [], []  # per kept draw
    unseen = set(range(n))  # the players no kept draw has held yet
    connected = False
    draws = 0
    while not connected:
        if draws == MAX_DRAWS:
            raise ConvergenceFailure(
                f"{MAX_DRAWS} match draws did not cover all {n} players in one "
                f"connected set at p={p}; increase p"
            )
        draws += 1
        idx = (random(n) < p).nonzero()[0]
        if len(idx) < 2:
            continue
        members.append(idx)
        sizes.append(len(idx))
        scale.append(random())
        normal.append(standard_normal(len(idx)))
        unseen.difference_update(idx.tolist())
        if not unseen:  # every label 0: one component
            connected = not _component_labels(np.cumsum([0, *sizes]), np.concatenate(members),
                                              n).any()
    sizes = np.array(sizes, dtype=np.intp)
    players = np.concatenate(members) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # bit for bit rng.uniform(*SCALE_RANGE) and rng.normal(0.2 * players,
        # sigma) of each draw: the same IEEE operations, elementwise
        c = np.repeat(low + span * np.array(scale), sizes)
        scores = c * (0.2 * players + sigma * np.concatenate(normal))
    data = object.__new__(MatchData)
    data._build(n, sizes, players, scores)
    return data


@dataclass(frozen=True)
class RankingResult:
    method: str
    scores: np.ndarray            # stationary value per player, index = id - 1
    order: tuple[int, ...]        # best first, ties by ascending player id


def _ranking(method: str, n: int, stationary: np.ndarray) -> RankingResult:
    order = np.lexsort((np.arange(1, n + 1), -stationary)) + 1  # ties by ascending id
    return RankingResult(method=method, scores=stationary, order=tuple(order.tolist()))


def rank_hypergraph(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the match hypergraph, players sorted by stationary mass."""
    P = transition_matrix(data.hypergraph)
    pi = stationary_direct(restart_matrix(P, beta)).pi
    return _ranking("hypergraph-rwr", data.n, pi)


def rank_clique(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the weighted clique expansion, built after normalizing
    each edge degree to 1 (the cheap stand-in for the per-edge-constant
    rescaling)."""
    H = delta_normalized(data.hypergraph)
    P = graph_random_walk(clique_expansion_weights(H))
    pi = stationary_direct(restart_matrix(P, beta)).pi
    return _ranking("clique-rwr", data.n, pi)


def rank_mc3(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """MC3 chain: from player i, pick one of i's matches uniformly, then a
    participant j of it uniformly; move to j only if j outscored i there
    (ties keep the walker in place)."""
    H = data.hypergraph
    n, who, s = H.n_vertices, H.indices, data.scores
    _check_size(n)
    # per entry: 1 / (its player's matches * its match's size)
    step = 1.0 / (np.bincount(who, minlength=n)[who] * _per_member(H, np.diff(H.indptr)))
    P = np.zeros(n * n)
    # Pairs match by match, each match row-major, in chunks of whole rows:
    # every entry of P receives the per-match loop's terms in the loop's order.
    for row, col, _ in _entry_pairs(H.indptr, np.arange(H.n_edges)):
        # to whoever outscored the entry, else back to the entry itself
        to = np.where(s[col] > s[row], who[col], who[row])
        np.add.at(P, who[row] * n + to, step[row])
    chain = TransitionMatrix._over(H, P.reshape(n, n))
    pi = stationary_direct(restart_matrix(chain, beta)).pi
    return _ranking("mc3", n, pi)


def kendall_tau(order: Sequence, truth: Sequence, weighted: bool = False) -> float:
    """Rank correlation in [-1, 1] between two permutations of one element set.

    Unweighted: (concordant - discordant) / (n choose 2). Weighted: each pair
    at 0-based positions i < j of `truth` carries weight 1/(i+1) + 1/(j+1)
    (disagreements near the top cost more), and the signed total is divided
    by the maximum attainable weighted discordance.

    Pairs are summed in (i, j) row-major order, left to right, in blocks of
    rows whose temporaries stay bounded, so the result equals the plain
    double loop over i < j bit for bit.
    """
    order = list(order)
    truth = list(truth)
    elements = set(order)
    if not len(elements) == len(order) == len(truth) or elements != set(truth):
        raise ElementMismatch("rankings must be permutations of the same elements")
    n = len(order)
    if n < 2:
        return 1.0
    pos = {item: k for k, item in enumerate(order)}
    rank = np.array([pos[item] for item in truth])  # position in `order` of truth[i]
    tau_weighted, tau = _taus(rank, _pair_blocks(n))
    return tau_weighted if weighted else tau


def _pair_blocks(n: int):
    """The pairs (i, j > i) of n >= 2 positions in row-major order, in blocks
    of whole rows of at most about _PAIR_CHUNK pairs: per block its rows i
    (a column), the mask of its pairs among all (i, j), their weights
    1/(i+1) + 1/(j+1), and the total weight of the pairs so far, summed in
    order. These depend on n alone."""
    inv = 1.0 / np.arange(1, n + 1)
    step = max(1, _PAIR_CHUNK // n)
    total = 0.0
    for a in range(0, n - 1, step):
        i = np.arange(a, min(a + step, n - 1))[:, None]
        upper = np.arange(n) > i
        w = (inv[i] + inv)[upper]
        total = _add_in_order(total, w)
        yield i, upper, w, total


def _add_in_order(start, values):
    """start + values[0] + values[1] + ..., left to right like a loop;
    np.sum would not add in that order."""
    return np.add.accumulate(np.concatenate(([start], values)))[-1]


def _taus(rank: np.ndarray, blocks) -> tuple[float, float]:
    """The weighted and the unweighted Kendall tau, in one pass over the
    pair `blocks` of n = len(rank), of truth against an order in which
    truth's i-th element is at position rank[i]."""
    n = len(rank)
    concordant, signed = 0, 0.0
    for i, upper, w, total in blocks:
        agree = (rank[i] < rank)[upper]
        concordant += int(np.count_nonzero(agree))  # exact, as the loop's +-1.0 sums are
        signed = _add_in_order(signed, np.where(agree, w, -w))
    pairs = n * (n - 1) // 2
    return float(signed / total), (2 * concordant - pairs) / pairs


@dataclass(frozen=True)
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


_METHODS = (rank_hypergraph, rank_clique, rank_mc3)  # each names itself in its result


def _shares(tasks: int) -> int:
    """How many processes run `tasks` trials: one per CPU this process may
    run on, at most one per trial; one where the CPUs cannot be counted (as
    where os.fork is missing) or a fork is unsafe (another thread runs)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def _in_shares(run, tasks: list) -> list:
    """[run(*task) for task in tasks] in k = _shares(len(tasks)) interleaved
    shares (task j in share j mod k): share 0 runs here, each other one in a
    forked child that sends its results back pickled through a pipe. Each
    share stops at its first error; once all have ended, the error of the
    lowest-index failing task is raised, as the plain loop would raise it.
    No child outlives the call."""
    k = _shares(len(tasks))

    def share(i):  # its results up to its first error, and (index, error) or None
        done = []
        for j in range(i, len(tasks), k):
            try:
                done.append(run(*tasks[j]))
            except Exception as exc:
                return done, (j, exc)
        return done, None

    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # leaves by os._exit: no exit handler or stdio flush of the parent runs
                try:
                    os.close(r)
                    payload = pickle.dumps(share(i))  # whole, or nothing is sent
                    with open(w, "wb") as fh:
                        fh.write(payload)
                finally:
                    os._exit(0)  # the parent reads the pipe, not the exit status
            os.close(w)
            children.append((pid, r))
        shares = [share(0)]
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            os.waitpid(pid, 0)
            os.close(children.pop(0)[1])
            if not payload:
                raise ChildProcessError(f"trial process {pid} sent no trials")
            shares.append(pickle.loads(payload))
    finally:
        for pid, r in children:  # still running after an error or an interrupt here
            from signal import SIGKILL
            os.close(r)
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    failures = [error for _, error in shares if error]
    if failures:
        raise min(failures, key=lambda error: error[0])[1]
    return [shares[j % k][0][j // k] for j in range(len(tasks))]


def experiment(n: int, sigma: float, p_values: Iterable[float], trials: int,
               seed: int, beta: float = DEFAULT_BETA) -> ExperimentResult:
    """Run all three rankers over seeded trials for each subsampling rate.

    Trial t uses seed + t, so trials are independent given the base seed and
    the whole table is reproducible byte-for-byte, however many processes
    run the trials (one per available CPU, see _in_shares).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    p_values = [float(p) for p in p_values]
    for k, p in enumerate(p_values):
        if p in p_values[:k]:
            raise ValueError(f"inclusion rate {p!r} is given more than once")
        _check_draw(n, sigma, p)

    def trial(p, t):
        data = generate(n, sigma, p, seed + t)
        return [ranker(data, beta=beta) for ranker in _METHODS]

    tasks = [(p, t) for p in p_values for t in range(trials)]
    results = [(p, t, result) for (p, t), ranked in zip(tasks, _in_shares(trial, tasks))
               for result in ranked]
    # Against the truth n, n-1, ..., 1 (best player first), with the pairs
    # of n held once: the rankers have accepted n, so they fit beside a chain.
    blocks = list(_pair_blocks(n)) if results else []
    rows: list[dict] = []
    for p, t, result in results:
        rank = np.empty(n, dtype=np.intp)
        rank[n - np.array(result.order)] = np.arange(n)  # truth's i-th player is n - i
        tau_weighted, tau = _taus(rank, blocks)
        rows.append({"method": result.method, "p": p, "trial": t,
                     "tau_weighted": tau_weighted, "tau_unweighted": tau})
    summary: list[dict] = []
    for method in dict.fromkeys(r["method"] for r in rows):  # in _METHODS order
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

    ``n`` and the participants must be JSON integers and the scores finite
    JSON numbers (not ``true``, ``"0.5"`` or ``NaN``), else MalformedInput.
    """
    try:
        n = data["n"]
        matches = [(m["participants"], m["scores"]) for m in data["matches"]]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"match data: {type(exc).__name__}: {exc}") from None
    if type(n) is not int:  # JSON true/false load as bool, a subclass of int
        raise MalformedInput(f'match data: "n" must be an integer, got {n!r}')
    for k, (who, scores) in enumerate(matches):
        if not (isinstance(who, list) and all(type(i) is int for i in who)
                and isinstance(scores, list) and all(
                    type(s) in (int, float) and abs(s) <= sys.float_info.max for s in scores)):
            raise MalformedInput(f"match #{k}: participants must be integers and scores "
                                 f"finite numbers, got {who!r} and {scores!r}")
    return MatchData(n, matches)


def matches_to_json_dict(data: MatchData) -> dict:
    """The JSON form, participants of each match in ascending order."""
    ptr, players = data.hypergraph.indptr.tolist(), (data.hypergraph.indices + 1).tolist()
    scores = data.scores.tolist()
    return {"n": data.n, "matches": [{"participants": players[a:b], "scores": scores[a:b]}
                                     for a, b in zip(ptr, ptr[1:])]}
