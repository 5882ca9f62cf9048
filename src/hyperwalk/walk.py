"""Random-walk transition matrices (lazy, non-lazy, with restart), the lazy
walk's factored operator, and trajectory simulation.

The walker at vertex v picks an incident edge e with probability
omega(e)/d(v), then a member w of e with probability gamma_e(w)/delta(e);
the non-lazy variant excludes staying put by renormalizing over the other
members. All matrices are dense and row-stochastic.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import _REAL, Hypergraph, _block_scatter, _memo, _per_member, degrees
from .errors import BadBeta, SingletonEdge, SizeLimit, UnknownVertex

__all__ = [
    "DENSE_SIZE_LIMIT",
    "PRNG_ALGORITHM",
    "TransitionMatrix",
    "nonlazy_transition_matrix",
    "restart_matrix",
    "simulate",
    "transition_matrix",
]

# Dense matrices only; anything larger aborts rather than thrashing.
DENSE_SIZE_LIMIT = 4096

# Recorded in run manifests so seeded runs are reproducible across machines.
PRNG_ALGORITHM = "numpy:pcg64"

_ROW_SUM_TOL = 1e-12


class TransitionMatrix:
    """Row-stochastic |V| x |V| matrix sharing its vertex index with the
    hypergraph (or graph) it came from; immutable, as the memo shares it."""

    __slots__ = ("vertices", "matrix", "_index")

    def __init__(self, vertices, matrix):
        names = tuple(str(v) for v in vertices)
        self._fill(names, {v: i for i, v in enumerate(names)}, matrix)

    def _fill(self, names, index, matrix):
        P = np.asarray(matrix, dtype=float)
        if P.ndim != 2 or P.shape != (len(names), len(names)):
            raise ValueError("transition matrix shape does not match vertex list")
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, a sum past max
            worst = np.abs(P.sum(axis=1) - 1.0).max()  # nan or inf if any entry is
        if not np.isfinite(worst):
            raise ValueError("transition probabilities must be finite")
        if not worst <= _ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (off by {worst:.3e})")
        if not P.min() >= -1e-15:
            raise ValueError("transition probabilities must be nonnegative")
        object.__setattr__(self, "vertices", names)
        object.__setattr__(self, "matrix", P)
        object.__setattr__(self, "_index", index)

    def _same_vertices(self, matrix) -> TransitionMatrix:
        """A checked matrix over this one's vertices, sharing their tuple and
        index (both immutable) instead of rebuilding them."""
        other = object.__new__(TransitionMatrix)
        other._fill(self.vertices, self._index, matrix)
        return other

    def __setattr__(self, name, value):
        raise AttributeError(f"TransitionMatrix is immutable: cannot set {name!r}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vertex!r}") from None

    def __repr__(self) -> str:
        return f"TransitionMatrix(n={self.n})"


def _check_size(count: int, what: str = "vertices") -> None:
    if count > DENSE_SIZE_LIMIT:
        raise SizeLimit(f"dense matrices support at most {DENSE_SIZE_LIMIT} {what}, got {count}")


def transition_matrix(H: Hypergraph) -> TransitionMatrix:
    """Lazy walk matrix P = D_V^-1 W D_E^-1 R, built edge by edge:
    P[v, w] = sum over edges e holding both of omega(e)/d(v) * gamma_e(w)/delta(e).

    Built once per hypergraph: every call on H returns the same object, whose
    ``matrix`` is read-only, also when the CLI's direct solve built and stored
    it. The size check comes first, so a refusal is never stored."""
    _check_size(H.n_vertices)
    return _memo(H, "transition_matrix", lambda: _published(_lazy_walk(H)))


def _lazy_walk(H: Hypergraph) -> TransitionMatrix:
    """A fresh, writable P that nothing else holds; whoever stores it in H's
    memo makes it read-only first (``_published``)."""
    return TransitionMatrix(H.vertices, _operator(H).dense())


class WalkOperator:
    """The lazy walk P = D_V^-1 W D_E^-1 R of one hypergraph, factored: d and
    delta (``degrees``), the edge id of each CSR entry and per-entry factors,
    each formed when first read, in the product order of the caller that
    reads it, so every result keeps its bits. H's memo holds it
    (``_operator``), so it holds H's arrays but never H: no cycle."""

    def __init__(self, H: Hypergraph):
        self.n, self.indptr, self.indices = H.n_vertices, H.indptr, H.indices
        self.gamma, self.omega = H.gamma, H.omega
        self.d, self.delta = degrees(H)

    @cached_property
    def edge(self) -> np.ndarray:
        return _per_member(self, np.arange(len(self.omega)))

    @cached_property
    def left(self) -> np.ndarray:  # omega(e) / d(v): leave v by e
        return _per_member(self, self.omega) / self.d[self.indices]

    @cached_property
    def right(self) -> np.ndarray:  # gamma_e(w) / delta(e): land on w from e
        return self.gamma / _per_member(self, self.delta)

    @cached_property
    def spread(self) -> np.ndarray:  # (omega(e) / delta(e)) * gamma_e(w), rstep's order
        return _per_member(self, self.omega / self.delta) * self.gamma

    def dense(self) -> np.ndarray:
        """P, fresh and writable: P[v, w] sums left * right over edges holding both."""
        return _block_scatter(self.indptr, self.indices, self.left, self.right, self.n)

    def rstep(self, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, pi P)``: rho_e sums pi_v / d(v) over e's members, then
        rho_e * spread goes to each member. Two O(nnz) bincounts."""
        rho = np.bincount(self.edge, weights=(pi / self.d)[self.indices],
                          minlength=len(self.omega))
        return rho, np.bincount(self.indices, weights=rho[self.edge] * self.spread,
                                minlength=self.n)


def _operator(H: Hypergraph) -> WalkOperator:
    """H's walk operator, built once per hypergraph."""
    return _memo(H, "walk_operator", lambda: WalkOperator(H))


def _published(P: TransitionMatrix) -> TransitionMatrix:
    """P with its matrix made read-only, the form in which a memo holds it."""
    P.matrix.flags.writeable = False
    return P


def nonlazy_transition_matrix(H: Hypergraph) -> TransitionMatrix:
    """Walk that never stays put: the stay weight is removed from each edge's
    normalization, so the diagonal is exactly zero."""
    _check_size(H.n_vertices)
    singletons = np.flatnonzero(np.diff(H.indptr) < 2)
    if len(singletons):
        raise SingletonEdge(
            f"edge #{singletons[0]} has a single member; non-lazy walk undefined"
        )
    d, delta = degrees(H)
    # P[v, w] += (omega / d(v)) * gamma(w) / (delta - gamma(v)) for w != v
    coeff = _per_member(H, H.omega) / (d[H.indices] * (_per_member(H, delta) - H.gamma))
    P = _block_scatter(H.indptr, H.indices, coeff, H.gamma, H.n_vertices)
    np.fill_diagonal(P, 0.0)
    return TransitionMatrix(H.vertices, P)


def restart_matrix(P: TransitionMatrix, beta: float, restart=None) -> TransitionMatrix:
    """Mix a restart step into P: P' = (1-beta) P + beta 1 r^T.

    beta must lie strictly inside (0, 1); the restart distribution defaults
    to uniform over the vertices.
    """
    if not (type(beta) in _REAL and 0.0 < beta < 1.0):
        raise BadBeta(f"restart probability must lie in (0, 1), got {beta!r}")
    beta = float(beta)  # a float32 beta would round 1 - beta to float32
    n = P.n
    if restart is None:
        r = np.full(n, 1.0 / n)
    else:
        r = np.asarray(restart, dtype=float)
        if r.shape != (n,):
            raise BadBeta("restart distribution length does not match vertex count")
        if not np.isfinite(r).all():
            raise BadBeta("restart distribution must be finite")
        if not (r.min() >= 0.0 and abs(r.sum() - 1.0) <= 1e-12):
            raise BadBeta("restart distribution must be nonnegative and sum to 1")
    mixed = (1.0 - beta) * P.matrix + beta * r[None, :]
    return P._same_vertices(mixed)


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
    path = [i]
    for _ in range(steps):
        u = rng.random()
        i = int(np.searchsorted(cdf[i], u, side="right"))
        if i >= P.n:  # guard the cdf's final rounding gap
            i = P.n - 1
        path.append(i)
    return [P.vertices[j] for j in path]
