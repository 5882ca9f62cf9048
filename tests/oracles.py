"""Oracles that only the tests read: each checks a claim of the library by a
route the library itself does not take.

* ``kolmogorov_check`` -- the cycle-product test of reversibility, which
  needs no pi (criterion 3: an edge-independent walk is reversible).
* ``empirical_mixing_time`` -- the measured mixing time, which the mixing
  bound must dominate (criterion 6); ``Unmixed`` is its refusal.
* ``naive_stationary`` -- the degree fraction d(v) / sum d(u), which is
  *not* stationary under edge-dependent weights (criterion 9).
* ``simulate`` -- a sampled trajectory, whose visit and step frequencies
  must approach pi and P.
* ``edge_coupling_matrix`` -- the paper's |E| x |E| matrix whose
  eigenvalue-1 eigenvector is the per-edge constants: the library forms rho
  from pi, and A rho = rho checks that it is the paper's fixed point
  (criterion 2).
* ``lu_stationary`` -- pi by one LU solve (``rankagg._fixed_point``),
  the solve the rank-aggregation stack runs on each of its chains: the
  reference its rows must equal bit for bit, and the arithmetic some
  tests pin a pi's last bits in.
* ``first_edge_fault`` -- the edge checks of a hypergraph document as one
  loop over its entries, in reading order, which ``Hypergraph`` makes in
  arrays on the pairs ``build_hypergraph`` hands it: its first fault must be
  the one the library names.
"""

from __future__ import annotations

import itertools

import numpy as np

from hyperwalk import (
    EmptyEdge,
    Hypergraph,
    HyperwalkError,
    MalformedInput,
    NonPositiveWeight,
    SizeLimit,
    TransitionMatrix,
    UnknownVertex,
    degrees,
)
from hyperwalk.core import _FLOAT_MAX, _block_scatter, _per_member, _Record, _real, _vertex_major
from hyperwalk.rankagg import _fixed_point, _nonnegative
from hyperwalk.walk import _lazy_factors

KOLMOGOROV_VERTEX_LIMIT = 12
KOLMOGOROV_CYCLE_LIMIT = 6
# Largest gap between a cycle's forward and backward products.
KOLMOGOROV_TOL = 1e-12


class Unmixed(HyperwalkError):
    """The chain did not reach the requested total-variation distance in time."""

    def __init__(self, cap: int):
        super().__init__(f"chain not mixed within {cap} steps")
        self.cap = cap

    def __reduce__(self):  # rebuilt from cap: the default would pass the message as cap
        return Unmixed, (self.cap,)


class KolmogorovResult(_Record):
    holds: bool
    witness_cycle: tuple[str, ...] | None
    __slots__ = tuple(__annotations__)


def kolmogorov_check(P: TransitionMatrix, max_cycle_len: int = 5) -> KolmogorovResult:
    """Compare transition-probability products around every simple cycle with
    the reversed product; equality for all cycles characterizes reversibility
    without knowing pi.

    Cycles of length 2 are skipped -- both orientations multiply the same two
    factors, so they can never witness anything. The first violating cycle in
    enumeration order is returned.
    """
    n = P.n
    if n > KOLMOGOROV_VERTEX_LIMIT:
        raise SizeLimit(
            f"cycle enumeration supports at most {KOLMOGOROV_VERTEX_LIMIT} vertices, got {n}"
        )
    if max_cycle_len > KOLMOGOROV_CYCLE_LIMIT:
        raise SizeLimit(
            f"cycle length capped at {KOLMOGOROV_CYCLE_LIMIT}, got {max_cycle_len}"
        )
    M = P.matrix
    for k in range(3, max_cycle_len + 1):
        for combo in itertools.combinations(range(n), k):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                if rest[0] > rest[-1]:
                    continue  # each undirected cycle once
                cycle = (first,) + rest
                forward = 1.0
                backward = 1.0
                for i in range(k):
                    forward *= M[cycle[i], cycle[(i + 1) % k]]
                    backward *= M[cycle[i], cycle[(i - 1) % k]]
                if abs(forward - backward) > KOLMOGOROV_TOL:
                    return KolmogorovResult(
                        holds=False,
                        witness_cycle=tuple(P.vertices[i] for i in cycle),
                    )
    return KolmogorovResult(holds=True, witness_cycle=None)


def simulate(P: TransitionMatrix, start: str, steps: int, seed: int) -> list[str]:
    """Sample a trajectory of `steps` transitions from `start`.

    Reproducible: the same seed yields the same trajectory (PCG64 stream).
    Returns steps + 1 vertex names including the start.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    i = P.index(start)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(P.matrix, axis=1)
    # per row its last column of positive probability, where a draw in the
    # cdf's final rounding gap steps
    last = (P.n - 1 - np.argmax(P.matrix[:, ::-1] > 0.0, axis=1)).tolist()
    path = [i]
    for _ in range(steps):
        u = rng.random()
        i = min(int(np.searchsorted(cdf[i], u, side="right")), last[i])
        path.append(i)
    return [P.vertices[j] for j in path]


def empirical_mixing_time(P: TransitionMatrix, pi: np.ndarray, eps: float,
                          cap: int) -> int:
    """Smallest t <= cap with max-over-starts total variation distance
    (half the L1 distance) between P^t rows and pi at most eps."""
    M = np.eye(P.n)
    for t in range(cap + 1):
        tv = 0.5 * np.abs(M - pi[None, :]).sum(axis=1).max()
        if tv <= eps:
            return t
        M = M @ P.matrix
    raise Unmixed(cap)


def naive_stationary(H: Hypergraph) -> np.ndarray:
    """Degree fraction d(v) / sum_u d(u).

    This ignores the vertex weights, so it is generally *not* stationary; it
    coincides with the true distribution only in special cases such as
    trivial weights. Kept as the counterexample generator.
    """
    d, _ = degrees(H)
    return d / d.sum()


def edge_coupling_matrix(H: Hypergraph) -> np.ndarray:
    """The |E| x |E| matrix whose eigenvalue-1 eigenvector gives the per-edge
    constants, in the delta(e) = 1 normalization of any H: its column sums,
    weighted by the edge weights, reproduce the edge weights.

    Built vertex by vertex: each vertex v adds
    outer(1, omega(f) * g_f(v) / d(v)) over the edges e, f holding it, with
    g = gamma / delta the lazy walk's own factor.
    """
    d, _ = degrees(H)
    vptr, order = _vertex_major(H)
    contrib = _per_member(H, H.omega) * _lazy_factors(H)[1] / d[H.indices]
    edge = _per_member(H, np.arange(H.n_edges))
    return _block_scatter(vptr, edge[order], np.ones(len(order)), contrib[order], H.n_edges)


def lu_stationary(P: TransitionMatrix) -> np.ndarray:
    """pi P = pi, sum pi = 1, by LU with partial pivoting in a copy of P,
    cleared of rounding's negatives: ``rankagg._stationary``'s solve of
    the one chain P."""
    return _nonnegative(_fixed_point(P.matrix.copy().T), P.vertices)


def first_edge_fault(data) -> None:
    """Raise the fault ``Hypergraph`` names first among the edges of the
    hypergraph document `data`, whose "vertices" are valid, checking one
    entry at a time: per entry that it is an object whose "members",
    missing or empty for an empty edge, is an object; then its weight, its
    emptiness, and per member its name and then its weight. Return None if
    there is none."""
    index = dict.fromkeys(data["vertices"])
    for k, entry in enumerate(data["edges"]):
        if not isinstance(entry, dict):
            raise MalformedInput(f"edge #{k} must be an object, got {entry!r}")
        members = entry.get("members", {})
        if not isinstance(members, dict):
            raise MalformedInput(f'edge #{k}: "members" must map vertex names to weights')
        weight = entry.get("weight")
        if not 0 < _real(weight) <= _FLOAT_MAX:
            raise NonPositiveWeight(
                f"edge #{k}: edge weight {weight!r} must be a finite number > 0")
        if not members:
            raise EmptyEdge(f"edge #{k} has no members")
        for v, g in members.items():
            if v not in index:
                raise UnknownVertex(f"edge #{k} references undeclared vertex {v!r}")
            if not 0 < _real(g) <= _FLOAT_MAX:
                raise NonPositiveWeight(
                    f"edge #{k}: weight {g!r} of vertex {v!r} must be a finite number > 0")
