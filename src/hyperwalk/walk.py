"""Random-walk transition matrices (lazy, non-lazy, with restart).

The walker at vertex v picks an incident edge e with probability
omega(e)/d(v), then a member w of e with probability gamma_e(w)/delta(e);
the non-lazy variant excludes staying put by renormalizing over the other
members. All matrices are dense and row-stochastic.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Hypergraph, _block_scatter, _Indexed, _memo, _per_member, _real, degrees
from .errors import BadBeta, SingletonEdge, SizeLimit

__all__ = [
    "DENSE_SIZE_LIMIT",
    "PRNG_ALGORITHM",
    "TransitionMatrix",
    "nonlazy_transition_matrix",
    "restart_matrix",
    "transition_matrix",
]

# Dense matrices only; anything larger aborts rather than thrashing.
DENSE_SIZE_LIMIT = 4096

# Recorded in run manifests so seeded runs are reproducible across machines.
PRNG_ALGORITHM = "numpy:pcg64"

_ROW_SUM_TOL = 1e-12


class TransitionMatrix(_Indexed):
    """Row-stochastic |V| x |V| matrix sharing its vertex index with the
    hypergraph (or graph) it came from; immutable, as the memo shares it."""

    __slots__ = ("vertices", "matrix", "_index")

    def _fill(self, names: tuple, index: dict, matrix) -> None:
        P = np.asarray(matrix, dtype=float)
        if P.ndim != 2 or P.shape != (len(names), len(names)):
            raise ValueError("transition matrix shape does not match vertex list")
        _check_stochastic(P)
        self._set(vertices=names, matrix=P, _index=index)

    n = _Indexed.n_vertices

    def __repr__(self) -> str:
        return f"TransitionMatrix(n={self.n})"


def _check_stochastic(P: np.ndarray) -> None:
    """Refuse an n x n matrix, or any of a stack of them, that is not
    row-stochastic. Matrix by matrix, in stack order: an entry that is not
    finite, then a row sum more than _ROW_SUM_TOL from 1, then an entry
    below -1e-15 is a ValueError."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, a sum past max
        worst = np.abs(P.sum(axis=-1) - 1.0).max(axis=-1)  # nan or inf if any entry is
    for off, low in zip(np.ravel(worst).tolist(), np.ravel(P.min(axis=(-2, -1))).tolist()):
        if not math.isfinite(off):
            raise ValueError("transition probabilities must be finite")
        if not off <= _ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 (off by {off:.3e})")
        if not low >= -1e-15:
            raise ValueError("transition probabilities must be nonnegative")


def _check_size(count: int) -> None:
    if count > DENSE_SIZE_LIMIT:
        raise SizeLimit(f"dense matrices support at most {DENSE_SIZE_LIMIT} vertices, got {count}")


def transition_matrix(H: Hypergraph) -> TransitionMatrix:
    """Lazy walk matrix P = D_V^-1 W D_E^-1 R, built edge by edge:
    P[v, w] = sum over edges e holding both of omega(e)/d(v) * gamma_e(w)/delta(e).

    Built once per hypergraph: every call on H returns the same object. The
    size check comes first, so a refusal is never stored."""
    _check_size(H.n_vertices)
    return _memo(H, "transition_matrix", lambda: TransitionMatrix._over(H, _lazy_walk(H)))


def _lazy_walk(H: Hypergraph, order=None) -> np.ndarray:
    """P's dense array, fresh and writable: nothing else holds it. Given a
    permutation `order`, P[order][:, order], each entry the same terms added
    in the same order."""
    indices = H.indices if order is None else np.argsort(order)[H.indices]
    return _block_scatter(H.indptr, indices, *_lazy_factors(H), H.n_vertices)


def _lazy_factors(H: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """P's terms as ``_block_scatter``'s ``left`` and ``right`` factors: each term
    is (omega(e) / d(v)) * (gamma_e(w) / delta(e)), leaving v by e, then landing on
    w, each in [0, 1] even where d or delta is subnormal. ``_lazy_walk``,
    ``stationary._walk_product`` and ``rankagg._stationary`` read both, the non-lazy
    walk ``left``, and the sandwich graph, ``stationary._rho_scaled`` and the mixing
    bound's beta1 ``right``."""
    d, delta = degrees(H)
    return _per_member(H, H.omega) / d[H.indices], H.gamma / _per_member(H, delta)


def nonlazy_transition_matrix(H: Hypergraph) -> TransitionMatrix:
    """Walk that never stays put: the stay weight is removed from each edge's
    normalization, so the diagonal is exactly zero."""
    _check_size(H.n_vertices)
    singletons = np.flatnonzero(np.diff(H.indptr) < 2)
    if len(singletons):
        raise SingletonEdge(
            f"edge #{singletons[0]} has a single member; non-lazy walk undefined"
        )
    # P[v, w] += (omega / d(v), in [0, 1]) / (the other members' gamma sum) * gamma(w), w != v
    with np.errstate(over="ignore"):  # a coefficient past the float range: _check_stochastic
        coeff = _lazy_factors(H)[0] / _others(H.indptr, H.gamma)
    P = _block_scatter(H.indptr, H.indices, coeff, H.gamma, H.n_vertices)
    np.fill_diagonal(P, 0.0)
    return TransitionMatrix._over(H, P)


def _others(indptr, gamma) -> np.ndarray:
    """Per CSR entry, the sum of gamma over the other members of its edge,
    formed without a subtraction (delta(e) - gamma_e(v) cancels to 0 when v
    dominates e): the members before it summed forward plus those after it
    summed backward, one block of equal-size edges at a time."""
    out = np.empty_like(gamma)
    sizes = np.diff(indptr)
    for s in np.flatnonzero(np.bincount(sizes)):
        entries = indptr[:-1][sizes == s, None] + np.arange(s)
        block = gamma[entries]
        before, after = np.zeros_like(block), np.zeros_like(block)
        np.cumsum(block[:, :-1], axis=1, out=before[:, 1:])
        np.cumsum(block[:, :0:-1], axis=1, out=after[:, -2::-1])
        out[entries] = before + after
    return out


def restart_matrix(P: TransitionMatrix, beta: float, restart=None) -> TransitionMatrix:
    """Mix a restart step into P: P' = (1-beta) P + beta 1 r^T.

    beta must lie strictly inside (0, 1); the restart distribution defaults
    to uniform over the vertices.
    """
    beta = _check_beta(beta)
    r = None if restart is None else np.asarray(restart, dtype=float)
    if r is not None:
        if r.shape != (P.n,):
            raise BadBeta("restart distribution length does not match vertex count")
        if not np.isfinite(r).all():
            raise BadBeta("restart distribution must be finite")
        if not (r.min() >= 0.0 and abs(r.sum() - 1.0) <= 1e-12):
            raise BadBeta("restart distribution must be nonnegative and sum to 1")
    return TransitionMatrix._over(P, _restart(P.matrix, beta, r))


def _check_beta(beta) -> float:
    """A restart probability as the float it is mixed in as (a float32 beta
    would round 1 - beta to float32), if that lies in (0, 1), else BadBeta."""
    if not 0.0 < (value := _real(beta)) < 1.0:
        raise BadBeta(f"restart probability must lie in (0, 1), got {beta!r}")
    return value


def _restart(M: np.ndarray, beta: float, r=None, out=None) -> np.ndarray:
    """The one restart formula, (1 - beta) M + beta 1 r^T, of an n x n M or
    of each matrix of a stack, into `out` when given; r defaults to
    uniform."""
    if r is None:
        r = np.full(M.shape[-1], 1.0 / M.shape[-1])
    mixed = np.multiply(1.0 - beta, M, out=out)
    mixed += beta * r
    return mixed
