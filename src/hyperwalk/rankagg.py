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

A trial builds its three chains from its match hypergraph as one (3, n, n)
stack, then mixes in the restart, checks and solves the stack once; each
ranker is the same step on a stack of its one chain, and each chain keeps
the bits of its own build and solve.

Quality is measured by Kendall tau against the true skill order, in both the
unweighted and top-weighted (hyperbolic position weights) variants. The
experiment runs its trials in one process per CPU; each process builds the
match sets of its trials in batches, one array pass per batch, and scores
the taus of its own trials.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (_INTEGER, _PAIR_CHUNK, _REAL, Hypergraph, _add_in_order, _block_add,
                   _component_labels, _entry_pairs, _fields, _Frozen, _per_member, _real, _Record,
                   _vertex_index, degrees, delta_normalized)
from .errors import (ConvergenceFailure, DisconnectedHypergraph, DuplicateVertex,
                     ElementMismatch, HyperwalkError, MalformedInput, NonPositiveWeight,
                     ScoreOverflow, SingularSystem)
from .reduction import _clique_scale, _row_normalized
from .stationary import RESIDUAL_TOL
from .walk import _check_beta, _check_size, _check_stochastic, _lazy_factors, _restart

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
    arrays `generate` draws and built by `_match_sets`, as every match set
    is. Each value is checked once, by type: n must be an integer and each
    match a pair of sized sequences, its participants integers and its
    scores real numbers that a float holds (core._INTEGER and core._REAL,
    never a bool or a str), else MalformedInput naming the match. A match
    needs two or more distinct participants (else MalformedInput,
    DuplicateVertex) with one score each, finite and at most SCORE_LIMIT
    (else ScoreOverflow). More players than match entries is a
    DisconnectedHypergraph. Every other fault (a player outside 1..n, a
    weight that is not finite and positive, a player in no match) is named
    by Hypergraph, the one place a weight is checked: when one array test
    fails, the same matches go to it as ``(omega, {player name: gamma})``
    pairs in input order. Matches that are not iterable are MalformedInput
    naming "matches". No per-match object is made on the success path."""

    __slots__ = ("hypergraph", "scores")

    def __init__(self, n: int, matches: Iterable[tuple[Sequence[int], Sequence[float]]]):
        if type(n) not in _INTEGER:
            raise MalformedInput(f'match data: "n" must be an integer, got {n!r}')
        if not isinstance(matches, Iterable):
            raise MalformedInput(
                f'match data: "matches" must be an iterable of pairs, got {matches!r}')
        with np.errstate(over="ignore"):  # a numpy float past the float range: ScoreOverflow
            pairs = [_match(k, match) for k, match in enumerate(matches)]
        sizes = np.array([len(who) for who, _ in pairs], dtype=np.intp)
        bad = (sizes < 2) | (sizes != [len(s) for _, s in pairs])
        if bad.any():
            raise MalformedInput(f"match #{bad.argmax()}: needs 2+ participants, one score each")
        players = [i for who, _ in pairs for i in who]
        try:
            players = np.array(players, dtype=np.intp)
        except OverflowError:  # outside 1..n: Hypergraph names it as given
            players = np.array(players, dtype=object)
        scores = np.concatenate([np.empty(0)] + [s for _, s in pairs])
        (data,) = _match_sets(int(n), [(sizes, players, scores)])
        self._set(**{name: getattr(data, name) for name in MatchData.__slots__})

    @property
    def n(self) -> int:
        return self.hypergraph.n_vertices


def _match(k: int, match) -> tuple:
    """Match k as its participants and its scores as floats, or
    MalformedInput naming it and its first faulty value (see MatchData)."""
    what, got = "expected a (participants, scores) pair", match
    try:
        who, scores = match
        what, got = "participants must be integers", who
        if hasattr(who, "__len__") and set(map(type, who)) <= _INTEGER:  # not a generator
            what, got = "scores must be real numbers", scores
            if set(map(type, scores)) <= _REAL:
                return who, np.array(scores, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not a pair, a sequence; past 1e308
        pass
    raise MalformedInput(f"match #{k}: {what}, got {got!r}")


# A batch of trials (see _trials) holds at most this many match entries, or
# one trial's: all its per-entry arrays hold fewer values than one chunk of
# pairs. Batches four times as large were no faster and held 3 MB more.
_BATCH_ENTRIES = _PAIR_CHUNK // 64


def _match_sets(n: int, draws: list) -> list[MatchData]:
    """The MatchData of each match set among players 1..n in `draws`, each
    a ``(sizes, players, scores)`` triple of flat arrays: per match its size
    (at least 2), per entry, match by match, its player and its score.

    One pass over the sets' concatenated arrays forms every set's CSR order
    (one stable argsort on (match, player)), omega, gamma, fault tests and
    connectivity (one _component_labels call, each set's players offset),
    each by the operations, in the order, that form it for one set alone,
    so each set gets the bits it would get alone. The faults are
    MatchData's, in its order, named as for one set alone: a caller with
    several sets rebuilds them one at a time (`_built`)."""
    counts = [len(sizes) for sizes, _, _ in draws]
    sizes = np.concatenate([sizes for sizes, _, _ in draws])
    players = np.concatenate([players for _, players, _ in draws])
    scores = np.concatenate([scores for _, _, scores in draws])
    mptr = np.concatenate(([0], np.cumsum(counts)))  # per set: its first match
    eptr = np.concatenate(([0], np.cumsum(sizes)))  # per match: its first entry
    first = eptr[mptr]  # per set: its first entry
    entries = np.diff(first)
    if n > entries.min():  # some player is in no match; found before n names are made
        raise DisconnectedHypergraph(f"{n} players but only {entries.min()} match entries")
    edge = np.repeat(np.arange(len(sizes)), sizes)
    # the CSR order of players 1..n, else of the players; n >= 1: no min() of none
    ints = n >= 1 and players.dtype.kind == "i" and 1 <= players.min() and players.max() <= n
    key, span = (players - 1, n) if ints else (np.unique(players, return_inverse=True)[1],
                                               len(players))
    entry = edge * span + key
    order = np.argsort(entry, kind="stable")
    twice = np.flatnonzero(np.diff(entry[order]) == 0)
    if len(twice):
        i = order[twice[0]]
        raise DuplicateVertex(f"match #{edge[i]}: player {players[i]} takes part twice")
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores <= SCORE_LIMIT)))
    if len(bad):
        i = bad[0]
        raise ScoreOverflow(f"match #{edge[i]}: score {float(scores[i])!r} of player "
                            f"{players[i]} is not a finite number <= {SCORE_LIMIT}")
    # omega = np.std per match + 1, scores in input order, by one np.std
    # per block of equal-size matches (np.add.reduceat does not give np.std's
    # bits). A spread past the float range gives inf.
    omega = np.empty(len(sizes))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in np.flatnonzero(np.bincount(sizes)):
            rows = np.flatnonzero(sizes == s)
            omega[rows] = np.std(scores[eptr[rows][:, None] + np.arange(s)], axis=1) + 1.0
    # math.exp per score: np.exp differs in the last bit
    gamma = np.fromiter(map(math.exp, scores.tolist()), float, len(scores))
    names, index = _vertex_index(range(1, n + 1))
    if not (ints and np.isfinite(omega).all() and gamma.min() > 0.0):
        # a fault: Hypergraph, reading the same matches, names the first
        who, g = players.tolist(), gamma.tolist()
        Hypergraph(names, [(w, dict(zip(map(str, who[a:b]), g[a:b])))
                           for w, a, b in zip(omega.tolist(), eptr.tolist(), eptr[1:].tolist())])
    who, gamma, scores = key[order], gamma[order], scores[order]
    # the sets as one hypergraph over len(draws) * n vertices, set j's players offset by j * n
    offset = np.arange(0, len(draws) * n, n)
    labels = _component_labels(eptr, who + np.repeat(offset, entries), len(draws) * n)
    out = []
    for a, b, ma, mb in zip(first[:-1].tolist(), first[1:].tolist(), mptr[:-1].tolist(),
                            mptr[1:].tolist()):
        H = object.__new__(Hypergraph)
        H._build(names, index, eptr[ma:mb + 1] - a, who[a:b], gamma[a:b], omega[ma:mb])
        data = object.__new__(MatchData)
        data._set(hypergraph=H, scores=scores[a:b])
        out.append(data)
    if (labels != np.repeat(offset, n)).any():
        for data in out:  # the first set in pieces names its fault
            data.hypergraph._check_connected()
    return out


def _check_draw(n, sigma, p_values: list, seed) -> tuple:
    """``(n, sigma, p_values, seed)`` as generate(n, sigma, p, seed) draws
    with them for each p of `p_values` (n and seed as Python ints, so a
    trial's seed + t cannot overflow a numpy dtype; sigma and the rates by
    core._real), else ValueError naming the first fault: the type of n,
    sigma, each rate and seed (core._INTEGER or core._REAL: no bool or str),
    then their ranges in that order, n, sigma and seed once, a rate twice."""
    for name, value in [("n", n), ("sigma", sigma), *(("p", p) for p in p_values), ("seed", seed)]:
        integer = name in ("n", "seed")
        if type(value) not in (_INTEGER if integer else _REAL):
            raise ValueError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                             f"got {value!r}")
    n, sigma, p_values = int(n), _real(sigma), [_real(p) for p in p_values]
    if n < 2:
        raise ValueError("need at least two players")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    for k, p in enumerate(p_values):
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if p in p_values[:k]:
            raise ValueError(f"inclusion rate {p!r} is given more than once")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return n, sigma, p_values, int(seed)


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
    n, sigma, (p,), seed = _check_draw(n, sigma, [p], seed)
    return _match_sets(n, [_draw(n, sigma, p, seed)])[0]


def _draw(n: int, sigma: float, p: float, seed: int) -> tuple:
    """generate's matches, unchecked, as _match_sets reads a match set:
    ``(sizes, players, scores)``."""
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
    return sizes, players, scores


def _trials(n: int, sigma: float, seed: int, tasks: list):
    """The MatchData of each ``(p, t)`` of `tasks`, in order, drawn from
    seed + t (see generate) and built in batches of consecutive trials whose
    match entries stay within _BATCH_ENTRIES, one trial at least. A trial's
    error is raised once every trial before it has been yielded, as a loop
    over generate would raise it."""
    batch, entries, error = [], 0, None
    for p, t in tasks:
        try:
            draw = _draw(n, sigma, p, seed + t)
        except Exception as exc:  # raised after the trials drawn before it
            error = exc
            break
        if batch and entries + len(draw[1]) > _BATCH_ENTRIES:
            yield from _built(n, batch)
            batch, entries = [], 0
        batch.append(draw)
        entries += len(draw[1])
    if batch:
        yield from _built(n, batch)
    if error is not None:
        raise error


def _built(n: int, draws: list):
    """The MatchData of each of `draws`, in order: built together, or, if
    any has a fault, one at a time, so that the first fault is raised, by
    its own message, after the sets before it."""
    try:
        sets = _match_sets(n, draws)
    except HyperwalkError:
        if len(draws) == 1:
            raise
        sets = (_match_sets(n, [draw])[0] for draw in draws)
    yield from sets


class RankingResult(_Record):
    method: str
    scores: np.ndarray            # stationary value per player, index = id - 1
    order: tuple[int, ...]        # best first, ties by ascending player id
    __slots__ = tuple(__annotations__)


def _ranking(method: str, stationary: np.ndarray) -> RankingResult:
    return RankingResult(method=method, scores=stationary,
                         order=tuple(_order(stationary).tolist()))


def _order(stationary: np.ndarray) -> np.ndarray:
    """Players best first, ties by ascending id."""
    return np.lexsort((np.arange(1, len(stationary) + 1), -stationary)) + 1


def rank_hypergraph(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the match hypergraph, players sorted by stationary mass."""
    return _rankings(data, beta, ("hypergraph-rwr",))[0]


def rank_clique(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """Restart walk on the weighted clique expansion, built after normalizing
    each edge degree to 1 (the cheap stand-in for the per-edge-constant
    rescaling)."""
    return _rankings(data, beta, ("clique-rwr",))[0]


def rank_mc3(data: MatchData, beta: float = DEFAULT_BETA) -> RankingResult:
    """MC3 chain: from player i, pick one of i's matches uniformly, then a
    participant j of it uniformly; move to j only if j outscored i there
    (ties keep the walker in place)."""
    return _rankings(data, beta, ("mc3",))[0]


# the chains of the rankers, in the order the stacked step builds them
_METHODS = ("hypergraph-rwr", "clique-rwr", "mc3")


def _rankings(data: MatchData, beta: float, methods=_METHODS) -> list[RankingResult]:
    """The ranking of each chain of `methods`, a subsequence of _METHODS.
    Size and beta are checked first, once."""
    _check_size(data.n)
    beta = _check_beta(beta)
    return [_ranking(method, pi) for method, pi in zip(methods, _stationary(data, beta, methods))]


def _stationary(data: MatchData, beta: float, methods=_METHODS) -> np.ndarray:
    """The step of every ranker: the stationary distribution of the restart
    walk (uniform restart with probability beta) on each chain of `methods`,
    a subsequence of _METHODS, as the rows of one array.

    The chains are one (len(methods), n, n) stack, scattered from the
    factors of the match hypergraph H: one _entry_pairs walk in size order
    adds the terms of the lazy walk (``walk._lazy_factors(H)``) and of the
    clique expansion of ``delta_normalized(H)`` (gamma / delta, formed
    here), one in match order adds MC3's, each term in the order its own
    construction adds it. One batched LU (``_fixed_point``)
    solves the stack, so each row has the bits of the LU solve of
    ``restart_matrix(chain, beta)`` alone. The row sums, restart mix,
    checks, solve and nonnegativity each run once on the stack. Its input
    is checked: n fits a dense chain and beta is a float in (0, 1). Each
    chain's faults are raised in stack order."""
    H = data.hypergraph
    n = H.n_vertices
    stack = np.zeros((len(methods), n * n))
    factors = []
    if "hypergraph-rwr" in methods:
        factors.append((*_lazy_factors(H), None))
    if "clique-rwr" in methods:
        with np.errstate(over="ignore"):  # a subnormal delta: named below
            gamma = H.gamma * _per_member(H, 1.0 / degrees(H)[1])
        if not (np.isfinite(gamma) & (gamma > 0.0)).all():  # normalizing took one to 0 or inf
            delta_normalized(H)  # names the first
        scale = _clique_scale(H.omega, np.add.reduceat(gamma, H.indptr[:-1]))
        factors.append((gamma, gamma, scale))
    if factors:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0: named below
            _block_add(stack, H.indptr, H.indices, factors, n)
    if "mc3" in methods:
        _mc3_add(stack[-1], data)
    stack = stack.reshape(len(methods), n, n)
    if "clique-rwr" in methods:
        weights = stack[len(factors) - 1]
        if not np.isfinite(weights).all():  # as WeightedGraph names it; each term is > 0
            raise NonPositiveWeight("graph weights must be finite")
        _row_normalized(weights, H.vertices, out=weights)
    _check_stochastic(stack)
    _restart(stack, beta, out=stack)
    _check_stochastic(stack)
    return _nonnegative(_fixed_point(stack.transpose(0, 2, 1)), H.vertices)


def _fixed_point(M: np.ndarray) -> np.ndarray:
    """The x with M x = x and sum(x) = 1, of an n x n M, or of each matrix
    of a stack (..., n, n) as the rows of x (..., n).

    Solves (M - I) x = 0 with its last equation replaced by sum(x) = 1, by
    LU with partial pivoting. When the fixed point is unique the replaced
    equation is redundant (the rows of M - I are dependent) and the system
    is nonsingular. A stack is one batched np.linalg.solve, which calls
    LAPACK's dgesv on each matrix as a solve of that matrix alone does, so
    each x has the same bits.

    The system is set up in M itself, which LAPACK then copies. M is left
    holding the system: the ranking step's stack is a buffer it never
    reads again.
    """
    i = np.arange(M.shape[-1])
    b = np.zeros(M.shape[:-1] + (1,))
    b[..., -1, 0] = 1.0
    M[..., i, i] -= 1.0
    M[..., -1, :] = 1.0
    try:
        return np.linalg.solve(M, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from None


def _nonnegative(pi: np.ndarray, vertices: tuple) -> np.ndarray:
    """pi, a stack of solved distributions over `vertices` as rows, cleared
    of rounding's negatives in place. LU can leave an entry of a (near-)zero
    mass just below 0: one within RESIDUAL_TOL of it becomes +0.0, and the
    first one further below raises ConvergenceFailure naming its vertex."""
    low = np.flatnonzero(pi < -RESIDUAL_TOL)
    if len(low):
        raise ConvergenceFailure(
            f"stationary probability {pi.flat[low[0]]:.3e} of vertex "
            f"{vertices[low[0] % len(vertices)]!r} is below -{RESIDUAL_TOL:.0e}")
    pi[pi <= 0.0] = 0.0  # -0.0 as well
    return pi


def _mc3_add(out: np.ndarray, data: MatchData) -> None:
    """Add the MC3 chain to `out`, a flat n x n matrix of zeros: pairs match
    by match, each match row-major, in the chunks of one _entry_pairs walk,
    so every entry receives the per-match loop's terms in the loop's
    order."""
    H = data.hypergraph
    n, who, s = H.n_vertices, H.indices, data.scores
    step = 1.0 / (np.bincount(who, minlength=n)[who] * _per_member(H, np.diff(H.indptr)))
    for row, col, _ in _entry_pairs(H.indptr, np.arange(H.n_edges)):
        # to whoever outscored the entry, else back to the entry itself
        to = np.where(s[col] > s[row], who[col], who[row])
        np.add.at(out, who[row] * n + to, step[row])


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
    return signed / total, (2 * concordant - pairs) / pairs


class ExperimentResult(_Record):
    params: dict
    trials: list[dict]   # method, p, trial, tau_weighted, tau_unweighted
    summary: list[dict]  # method, p, mean_tau_weighted, std_tau_weighted, trials
    __slots__ = tuple(__annotations__)

    def to_csv(self) -> str:
        lines = ["method,p,trial,tau_weighted,tau_unweighted"]
        for row in self.trials:
            lines.append(
                f"{row['method']},{row['p']!r},{row['trial']},"
                f"{row['tau_weighted']!r},{row['tau_unweighted']!r}"
            )
        return "\n".join(lines) + "\n"


def _shares(tasks: int) -> int:
    """How many processes run `tasks` trials: one per CPU this process may
    run on, at most one per trial; one where the CPUs cannot be counted (as
    where os.fork is missing) or a fork is unsafe (another thread runs)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks))


def _in_shares(run, tasks: list) -> list:
    """list(run(tasks)), where run yields one result per task in order, in
    k = _shares(len(tasks)) interleaved shares: share i is run(tasks[i::k]),
    share 0 runs here, each other one in a forked child that sends its
    results back pickled through a pipe. Each share stops at its first
    error; once all have ended, the error of the lowest-index failing task
    is raised, as one run over all tasks would raise it. No child outlives
    the call."""
    k = _shares(len(tasks))

    def share(i):  # its results up to its first error, and that error or None
        done = []
        try:
            for result in run(tasks[i::k]):
                done.append(result)
        except Exception as exc:
            return done, exc
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
    # share i's error stopped its task len(done), which is task i + k * len(done)
    failures = [(i + k * len(done), error) for i, (done, error) in enumerate(shares)
                if error is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[j % k][0][j // k] for j in range(len(tasks))]


def _checked(n, sigma, p_values, trials, seed, beta) -> tuple:
    """``experiment``'s arguments as it runs with them, each checked."""
    if type(trials) not in _INTEGER:
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n, sigma, p_values, seed = _check_draw(n, sigma, list(p_values), seed)
    _check_size(n)
    return n, sigma, p_values, trials, seed, _check_beta(beta)


def experiment(n: int, sigma: float, p_values: Iterable[float], trials: int,
               seed: int, beta: float = DEFAULT_BETA) -> ExperimentResult:
    """Run all three rankers over seeded trials for each subsampling rate.

    Trial t uses seed + t, so trials are independent given the base seed and
    the whole table is reproducible byte-for-byte, however many processes
    run the trials (one per available CPU, see _in_shares). The values are
    checked before any trial is drawn, whatever the rates, in this order:
    trials (an integer, at least 1), the draw's values as generate checks
    them (_check_draw), then more players than a dense chain holds is
    SizeLimit and a restart probability outside (0, 1) BadBeta.
    """
    n, sigma, p_values, trials, seed, restart = _checked(n, sigma, p_values, trials, seed, beta)

    tasks = [(p, t) for p in p_values for t in range(trials)]
    # The pairs of n, held once and built before any share forks (n >= 2
    # and its chains' size are checked); with no trial nothing is scored.
    blocks = list(_pair_blocks(n)) if tasks else []

    def scored(share):  # per trial of the share: its (method, tau_weighted, tau_unweighted) per chain
        for data in _trials(n, sigma, seed, share):
            taus = []
            for method, pi in zip(_METHODS, _stationary(data, restart)):
                rank = np.empty(n, dtype=np.intp)  # against the truth n, n-1, ..., 1
                rank[n - _order(pi)] = np.arange(n)  # truth's i-th player is n - i
                taus.append((method, *_taus(rank, blocks)))
            yield taus

    rows = [{"method": method, "p": p, "trial": t, "tau_weighted": tau_weighted,
             "tau_unweighted": tau}
            for (p, t), taus in zip(tasks, _in_shares(scored, tasks))
            for method, tau_weighted, tau in taus]
    summary: list[dict] = []
    for method in _METHODS:
        for p in p_values:
            taus = [r["tau_weighted"] for r in rows
                    if r["method"] == method and r["p"] == p]
            mean = _add_in_order(0.0, taus) / len(taus)
            var = _add_in_order(0.0, [(x - mean) ** 2 for x in taus]) / len(taus)
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

    The document's shape is checked here, as `build_hypergraph` checks a
    hypergraph's: a document or a match that is not an object, a missing
    key, or a "matches" that is not a list is MalformedInput naming it.
    MatchData checks the values, so ``true``, ``1.7`` or ``"1"`` as a player
    is MalformedInput and a ``NaN`` or ``Infinity`` score ScoreOverflow.
    """
    n, matches = _fields(data, "match JSON", "n", "matches")
    if not isinstance(matches, list):
        raise MalformedInput('"matches" must be a list of match objects')
    return MatchData(n, [_fields(match, f"match #{k}", "participants", "scores")
                         for k, match in enumerate(matches)])


def matches_to_json_dict(data: MatchData) -> dict:
    """The JSON form, participants of each match in ascending order."""
    ptr, players = data.hypergraph.indptr.tolist(), (data.hypergraph.indices + 1).tolist()
    scores = data.scores.tolist()
    return {"n": data.n, "matches": [{"participants": players[a:b], "scores": scores[a:b]}
                                     for a, b in zip(ptr, ptr[1:])]}
