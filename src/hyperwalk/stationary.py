"""Stationary distributions of hypergraph random walks.

Three routes are provided and cross-checked against each other:

* ``stationary_walk`` -- power iteration of ``_walk_product``, pi P
  without P in two O(nnz) passes over the CSR arrays, so it has no size
  limit. It gives up after ``WALK_MAX_ITER`` steps, since a slowly mixing
  walk contracts slowly.
* ``stationary_direct`` -- GTH state reduction (``_gth``), the oracle for
  the other two: subtraction-free, so every probability comes out with a
  small relative error, however small it is. ``stationary_rho(H)`` is the
  same solve of H's memoized P, kept on H for the Laplacian, the Cheeger
  enumeration, the mixing bound and the sandwich check; the CLI's direct
  route (``_stationary_direct_of``) builds and checks P itself. Above
  GTH_BLOCK states, one sparse round (``_round_order``, ``_round``)
  eliminates an independent set of states with few neighbours, never the
  root, by one scatter into the block of the m states kept, the only part
  held densely (``_own_pages``): a solve holds 8 m^2 bytes plus
  O(GTH_BLOCK^2) workspace at its peak. Each entry point picks that set
  from the same pattern of P's nonzero entries, so all three give the
  same pi bit for bit.
* ``stationary_edge_independent`` -- the closed form
  pi_v = d(v) gamma(v) / sum_u d(u) gamma(u) available when vertex weights
  do not depend on the edge.

Each route given H ends in ``_finish``: max|pi P - pi| by ``_walk_product``,
not on P, and the paper's per-edge constants from pi,
rho_e = sum over v in e of pi_v / d(v) (``_rho_of``), only where every
constant is a finite float.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Hypergraph,
    _block_add,
    _entry_pairs,
    _memo,
    _per_member,
    _Record,
    degrees,
    edge_independent_gamma,
    has_trivial_weights,
)
from .errors import (ConvergenceFailure, MassUnderflow, NonPositiveWeight, NotEdgeIndependent,
                     SingularSystem)
from .walk import (TransitionMatrix, _check_size, _check_stochastic, _lazy_factors, _lazy_walk,
                   transition_matrix)

__all__ = [
    "StationaryResult",
    "stationary_direct",
    "stationary_edge_independent",
    "stationary_rho",
    "stationary_walk",
]

RESIDUAL_TOL = 1e-9

# The walk iteration accepts pi once max|pi P - pi| <= WALK_RTOL * max(pi)
# and each vertex's change is at most RESIDUAL_TOL of its own mass, and gives
# up after WALK_MAX_ITER steps. See stationary_walk.
WALK_RTOL = 1e-13
WALK_MAX_ITER = 2000

# The dense solve (``_gth``) eliminates states in blocks of GTH_BLOCK, and
# inverts each block by halves down to GTH_BASE states.
GTH_BLOCK = 256
GTH_BASE = 16


class StationaryResult(_Record):
    """A stationary distribution plus how it was obtained.

    ``rho`` holds the per-edge constants rho_e = sum over v in e of
    pi_v / d(v) (in the delta(e)=1 normalization, summing to 1 against the
    edge weights) when the route was given the hypergraph, and is None
    otherwise or where a constant leaves the float range.
    ``residual`` is max |pi P - pi|.
    """

    vertices: tuple[str, ...]
    pi: np.ndarray
    rho: np.ndarray | None
    method: str
    residual: float
    __slots__ = tuple(__annotations__)

    def as_dict(self) -> dict:
        rho = [] if self.rho is None else self.rho.tolist()
        return {"pi": dict(zip(self.vertices, self.pi.tolist())),
                "rho": {str(k): r for k, r in enumerate(rho)},
                "method": self.method, "residual": float(self.residual)}


def _residual(pi: np.ndarray, P: TransitionMatrix) -> float:
    return float(np.abs(pi @ P.matrix - pi).max())


def _finish(H: Hypergraph, pi: np.ndarray, method: str, product=None) -> StationaryResult:
    """The record of a route given H: its residual max|pi P - pi| by
    `product` (``_walk_product(H)`` unless the caller holds it), and its
    per-edge constants (``_rho_of``) only where every one is a finite
    float, else None."""
    rho = _rho_of(H, pi)
    return StationaryResult(
        vertices=H.vertices, pi=pi, method=method, rho=rho if np.isfinite(rho).all() else None,
        residual=float(np.abs((product or _walk_product(H))(pi) - pi).max()))


def _rho_of(H: Hypergraph, pi: np.ndarray) -> np.ndarray:
    """The per-edge constants of pi, rho_e = sum over v in e of pi_v / d(v),
    one bincount; then sum_e rho_e * omega(e) = sum_v pi_v. One overflows
    where a degree is subnormal."""
    with np.errstate(over="ignore"):
        return np.bincount(_per_member(H, np.arange(H.n_edges)),
                           (pi / degrees(H)[0])[H.indices], H.n_edges)


def _walk_product(H: Hypergraph):
    """pi -> pi P without P, from ``walk._lazy_factors``: per edge the flow
    sum over v in e of pi_v * (omega(e) / d(v)), then per member w the flow
    times gamma_e(w) / delta(e), two O(nnz) bincounts. Both factors lie in
    [0, 1], so a pi in [0, 1] cannot overflow."""
    edge = _per_member(H, np.arange(H.n_edges))
    leave, land = _lazy_factors(H)

    def product(pi: np.ndarray) -> np.ndarray:
        flow = np.bincount(edge, weights=pi[H.indices] * leave, minlength=H.n_edges)
        return np.bincount(H.indices, weights=flow[edge] * land, minlength=H.n_vertices)

    return product


def stationary_rho(H: Hypergraph) -> StationaryResult:
    """Stationary distribution of H's lazy walk and its per-edge constants
    rho_e = sum over v in e of pi_v / d(v): ``stationary_direct`` of the
    memoized ``transition_matrix(H)``, bit for bit, finished by
    ``_finish``. The returned ``rho`` refers to the delta(e)=1
    normalization of H and satisfies sum_e rho_e * omega(e) = 1. A constant
    that overflows (a subnormal degree) is NonPositiveWeight.

    Solved once per hypergraph: every call on H returns the same object,
    whose ``pi`` and ``rho`` are read-only. A failure is never stored.
    """
    def solve():
        result = _finish(H, _held_pi(transition_matrix(H).matrix), "direct-solve")
        if result.rho is None:
            bad = np.flatnonzero(~np.isfinite(_rho_of(H, result.pi)))[0]
            raise NonPositiveWeight(
                f"edge #{bad}: per-edge constant rho_e overflows the float range")
        return result

    return _memo(H, "stationary_rho", solve)


def stationary_direct(P: TransitionMatrix) -> StationaryResult:
    """Solve pi P = pi with sum pi = 1 by GTH state reduction (``_dense_pi``).
    The oracle the other routes are checked against. P is read-only and may
    be shared, so each solve works in a copy (``_held_pi``)."""
    pi = _held_pi(P.matrix)
    return StationaryResult(vertices=P.vertices, pi=pi, rho=None, method="direct-solve",
                            residual=_residual(pi, P))


def _stationary_direct_of(H: Hypergraph) -> StationaryResult:
    """``stationary_direct(transition_matrix(H)).pi`` bit for bit, without
    the copy: ``_walk_parts`` builds and checks only what the solve reads,
    in the buffer it is solved in. Nothing is stored on H."""
    _check_size(H.n_vertices)
    return _finish(H, _dense_pi(H.n_vertices, lambda: _term_pattern(H),
                                lambda *states: _walk_parts(H, *states)), "direct-solve")


def _walk_parts(H: Hypergraph, order, m: int, links):
    """What ``_dense_pi`` solves of P[order][:, order]: P, where `links` is
    None, else ``_round``'s B, C and R in ``_own_pages``, each entry the
    terms ``_lazy_walk`` gives it, in its order (one ``_block_add``), checked
    as ``_check_stochastic`` checks all of P: past C and R lie the removed
    states' diagonals and one slot for the 0.0 terms of unlinked pairs."""
    if links is None:
        _check_stochastic(M := _lazy_walk(H, order))
        return M
    n, (indptr, places), mm = H.n_vertices, links, m * m
    v = np.repeat(np.arange(m, n), np.diff(indptr))
    keys = np.concatenate([places * n + v, v * n + places, np.arange(m, n) * (n + 1)])
    sort, buf = np.argsort(keys), _own_pages(mm + len(keys) + 1, float)

    def place(r, c):  # states r, c by place: B's entry, else the slot of its key
        at, out = r * m + c, np.flatnonzero((r >= m) | (c >= m))
        key = r[out] * n + c[out]
        i = sort[np.searchsorted(keys, key, sorter=sort).clip(max=len(keys) - 1)]
        at[out] = mm + np.where(keys[i] == key, i, len(keys))
        return at

    _block_add(buf[None], H.indptr, np.argsort(order)[H.indices], [(*_lazy_factors(H), None)],
               m, place)
    B, (C, R) = buf[:mm].reshape(m, m), buf[mm:mm + 2 * len(places)].reshape(2, -1)
    with np.errstate(invalid="ignore", over="ignore"):  # the check names what is not finite
        sums = np.concatenate([B.sum(axis=1) + np.bincount(places, C, m),
                               np.bincount(v - m, R, n - m) + buf[m - n - 1:-1]])
    _check_stochastic(buf[None], sums)
    return B, C, R


def _held_pi(P: np.ndarray) -> np.ndarray:
    """``_dense_pi`` of a P that may be shared, each build a copy of what
    ``_walk_parts`` builds, B by row panels (no m x m temporary), in which
    an entry the row check lets lie just below 0 reads as 0.0."""
    def build(order, m, links):
        if links is None:
            return np.maximum(M := P[np.ix_(order, order)], 0.0, out=M)
        B, kept = _own_pages((m, m), float), order[:m]
        for i in range(0, m, GTH_BLOCK):
            np.maximum(P[kept[i:i + GTH_BLOCK, None], kept], 0.0, out=B[i:i + GTH_BLOCK])
        v, w = order[np.repeat(np.arange(m, len(P)), np.diff(links[0]))], order[links[1]]
        return B, np.maximum(P[w, v], 0.0), np.maximum(P[v, w], 0.0)

    def pattern():
        A, B = _own_pages(P.shape), _own_pages(P.shape)
        return np.logical_or(np.greater(P, 0.0, out=A), np.greater(P.T, 0.0, out=B), out=A)

    return _dense_pi(len(P), pattern, build)


def _term_pattern(H: Hypergraph) -> np.ndarray:
    """Which vertices P links, P[v, w] or P[w, v] nonzero, as
    ``_round_order`` reads it: the co-member pairs whose term is nonzero,
    one _entry_pairs chunk at a time. An edge of s members whose smallest
    term is nonzero gives each of them s - 1 neighbours; where
    (s - 1)^2 > n none of them can be removed, so each gets a full row."""
    n, (left, right), first = H.n_vertices, _lazy_factors(H), H.indptr[:-1]
    A, sizes = _own_pages((n, n)), np.diff(H.indptr)
    full = ((sizes - 1) ** 2 > n) & (np.minimum.reduceat(left, first)
                                     * np.minimum.reduceat(right, first) != 0.0)
    A[H.indices[np.repeat(full, sizes)]] = True
    for row, col, _ in _entry_pairs(H.indptr, np.flatnonzero(~full)):
        keep = left[row] * right[col] != 0.0
        v, w = H.indices[row[keep]], H.indices[col[keep]]
        A[v, w] = A[w, v] = True
    return A


def _own_pages(shape, dtype=bool) -> np.ndarray:
    """A zeroed array in a private mapping of its own, advised for huge pages
    (a shared one, as on Windows, gets none), whose pages leave when freed."""
    import mmap  # here, not at import: it adds about 0.5 ms to every command's start

    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    pages = (mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
             if hasattr(mmap, "MAP_ANONYMOUS") else mmap.mmap(-1, size))
    try:
        pages.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):  # not Linux, or a kernel without huge pages
        pass
    return np.frombuffer(pages, dtype).reshape(shape)


def _dense_pi(n: int, pattern, build) -> np.ndarray:
    """pi of the n-state row-stochastic P by ``_gth`` of P[order][:, order]
    as ``build(order, m, links)`` builds it anew, all of it up to GTH_BLOCK
    states (m = n, links None), in the states' own order: state 0 is the
    root, eliminated last. Above, ``_round_order`` first moves an
    independent set of low-degree states last, never the root, reading
    ``pattern()``, and ``_round`` eliminates them into the kept states'
    block. Where that order meets a pivot of 0.0 or leaves the float range,
    the solve runs once more in reversed order, whose root is state n - 1:
    which states are eliminated last decides what over- or underflows.
    Where that fails too, a pivot of 0.0 is SingularSystem and the float
    range MassUnderflow."""
    for retry, base in enumerate((np.arange(n), np.arange(n)[::-1])):
        order, m, links = (base, n, None) if n <= GTH_BLOCK else _round_order(pattern(), base)
        parts = build(order, m, links)
        try:
            with np.errstate(all="ignore"):  # what leaves the float range is checked below
                pi = _gth(parts) if links is None else _round(*parts, *links)
                total = pi.sum()
        except SingularSystem:
            if retry:
                raise
            continue
        if np.isfinite(total):
            out = np.empty(n)
            out[order] = pi / total
            return out
    raise MassUnderflow("stationary probabilities span more than the float range "
                        "in both state orders of the dense solve")


def _round_order(A: np.ndarray, base: np.ndarray) -> tuple:
    """`base` with an independent set I of states moved last, the count m
    of states kept, and the neighbours of each state of I by place in that
    order, ``(indptr, places)``. A[v, w]
    says P links v and w (this clears its diagonal). A state of d
    neighbours may join I only if d^2 <= n, so that its elimination touches
    at most n entries. I is built greedily, lowest d first, ties by place
    in `base`, and never holds base[0], the root."""
    n = len(A)
    A.flat[::n + 1] = False
    d = np.count_nonzero(A, axis=1)
    rank = np.empty(n, dtype=np.intp)
    rank[base] = np.arange(n)
    free = np.ones(n, dtype=bool)
    free[base[0]] = False
    picked, links = [], []
    candidates = np.flatnonzero(d * d <= n)
    for v in candidates[np.lexsort((rank[candidates], d[candidates]))].tolist():
        if free[v]:
            picked.append(v)
            links.append(np.flatnonzero(A[v]))
            free[links[-1]] = False
    order = np.concatenate([base[~np.isin(base, picked)], picked]).astype(np.intp)
    rank[order] = np.arange(n)
    indptr = np.cumsum([0] + [len(linked) for linked in links])
    return order, n - len(picked), (indptr, rank[np.concatenate([base[:0]] + links)])


def _round(B: np.ndarray, C, R, indptr, places) -> np.ndarray:
    """pi from ``_walk_parts``' B = P[:m, :m] and, per link j in
    indptr[k]:indptr[k+1] of removed state v = m + k (no two linked) to
    a = places[j], C[j] = P[a, v] and R[j] = P[v, a]. One ``_block_add``
    eliminates them into B, B[a, c] += C_a (R_c / s_v), with the pivot s_v
    the sum of v's row entries, its exit mass (0.0 is SingularSystem); then
    pi = ``_gth`` of B, and pi_v = (sum of pi_a C_a over v's links) / s_v.
    No step subtracts, so GTH's small relative error holds."""
    k = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    s = np.bincount(k, R, len(indptr) - 1)
    if not s.all():
        raise SingularSystem("stationary solve failed: a state's exit mass (a pivot) is 0.0")
    _block_add(B.reshape(1, -1), indptr, places, [(C, R / s[k], None)], len(B))
    pi = _gth(B)
    return np.concatenate([pi, np.bincount(k, pi[places] * C, len(s)) / s])


def _gth(M: np.ndarray) -> np.ndarray:
    """pi of a row-stochastic n x n M by GTH state reduction (Grassmann,
    Taksar & Heyman 1985), scaled so that pi_0 = 1, in M's own buffer,
    which it leaves overwritten; a value past the float range is left for
    the caller to find.

    States are eliminated last-first, in blocks K of GTH_BLOCK states,
    left-looking: a block first takes every later block's elimination into
    its row panel M[K, :k1] and its column panel M[:k0, K]. Then M[K, :k1]
    is the chain censored on the states before k1, and M[:k0, K] is
    overwritten by W = M[:k0, K] X, X = (I - M[K, K])^-1, by which the
    states before k0 reach K (``_block_inverse``). Then, first block to
    last, pi_K = pi[:k0] W from pi_0 = 1. The row panel goes GTH_BLOCK
    columns at a time, and the column panel with W GTH_BLOCK rows at a
    time, through one GTH_BLOCK x GTH_BLOCK workspace: the solve holds M
    plus O(GTH_BLOCK^2) workspace.

    Every pivot is a sum of exit masses and no step subtracts, so each
    probability carries a small relative error (O'Cinneide 1993) in any
    state order, and none is negative. A pivot of 0.0 is SingularSystem.
    Above GTH_BLOCK states M is the kept states' m x m block, after
    ``_round``'s scatter, and its state 0 is the root of the whole order."""
    n, b = len(M), GTH_BLOCK
    blocks = [(max(1, k1 - b), k1) for k1 in range(n, 1, -b)]
    work = np.empty(min(b, n) ** 2)
    with np.errstate(all="ignore"):  # what leaves the float range is the caller's to check
        for k0, k1 in blocks:
            K, s = slice(k0, k1), k1 - k0
            for j in range(0, k1, b):
                J = slice(j, min(j + b, k1))
                M[K, J] += np.matmul(M[K, k1:], M[k1:, J],
                                     out=work[:s * (J.stop - j)].reshape(s, -1))
            X = _block_inverse(M[K, K], M[K, :k0].sum(axis=1))
            for i in range(0, k0, b):  # W = (M[I, K] + M[I, k1:] M[k1:, K]) X
                I = slice(i, min(i + b, k0))
                t = np.matmul(M[I, k1:], M[k1:, K], out=work[:(I.stop - i) * s].reshape(-1, s))
                t += M[I, K]
                np.matmul(t, X, out=M[I, K])
        pi = np.ones(n)
        for k0, k1 in reversed(blocks):
            pi[k0:k1] = pi[:k0] @ M[:k0, k0:k1]
    return pi


def _block_inverse(T: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(I - T)^-1 of a substochastic block T whose rows leave the block with
    mass r, with each pivot formed from exit mass: I - T's diagonal is
    r + T's off-diagonal row sums, and T's own diagonal is never read.

    Halves: the second half's inverse (its rows leave by r or into the first
    half), then the first half's Schur complement, the first half censored
    on the second, whose exit masses r1 + T12 X22 r2 are sums as well. At
    GTH_BASE states and below, ``_bordered_inverse``."""
    s = len(r)
    if s <= GTH_BASE:
        return _bordered_inverse(T, r)
    h = s // 2
    T11, T12, T21 = T[:h, :h], T[:h, h:], T[h:, :h]
    X22 = _block_inverse(T[h:, h:], r[h:] + T21.sum(axis=1))
    Y = T12 @ X22
    X11 = _block_inverse(T11 + Y @ T21, r[:h] + Y @ r[h:])
    X = np.empty((s, s))
    X[:h, :h] = X11
    X[:h, h:] = X11 @ Y
    X[h:, :h] = X22 @ T21 @ X11
    X[h:, h:] = X22 + X[h:, :h] @ Y
    return X


def _bordered_inverse(T: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_block_inverse`` one state at a time, last-first: X holds the
    inverse for the states after k, and state k's pivot is its exit mass
    censored on them, r_k + T[k, :k].sum() + T[k, k+1:] X E[k+1:, k], where
    E[j, k] = r_j + T[j, :k].sum() is each later state's exit past them."""
    s = len(r)
    E = np.cumsum(np.column_stack([r, T[:, :-1]]), axis=1)
    X = np.empty((s, s))
    for k in range(s - 1, -1, -1):
        X22 = X[k + 1:, k + 1:]
        v = T[k, k + 1:] @ X22
        pivot = E[k, k] + v @ E[k + 1:, k]
        if pivot == 0.0:
            raise SingularSystem("stationary solve failed: a state's exit mass (a pivot) is 0.0")
        X[k, k] = q = 1.0 / pivot
        X[k, k + 1:] = v * q
        X[k + 1:, k] = X22 @ T[k + 1:, k] * q
        X22 += np.multiply.outer(X[k + 1:, k], v)
    return X


def stationary_walk(H: Hypergraph) -> StationaryResult:
    """Power iteration of the lazy walk from the uniform vector, without
    forming P.

    Each step is ``_walk_product``, which cannot overflow. The lazy walk's
    diagonal is positive, so the iteration converges at the rate of the
    second eigenvalue modulus. It stops at the first pi with
    max|pi P - pi| <= WALK_RTOL * max(pi) whose every vertex also changes
    by at most RESIDUAL_TOL of its own mass: a vertex whose mass is far
    below max(pi) may still be far from its limit when the largest change
    is not. It raises ConvergenceFailure naming the iteration count and the
    residual when WALK_MAX_ITER steps do not get there.

    The returned pi is renormalized to sum 1, and ``residual`` is
    max|pi P - pi| by the same product. Where a per-edge constant
    overflows (a subnormal degree), pi is returned with ``rho`` None.
    """
    product = _walk_product(H)
    pi = np.full(H.n_vertices, 1.0 / H.n_vertices)
    for iterations in range(1, WALK_MAX_ITER + 1):
        nxt = product(pi)
        change = np.abs(nxt - pi)
        residual = float(change.max())
        if residual <= WALK_RTOL * pi.max() and (change <= RESIDUAL_TOL * pi).all():
            break
        pi = nxt
    else:
        raise ConvergenceFailure(
            f"walk iteration stopped after {iterations} iterations with residual "
            f"{residual:.3e}; it needs at most {WALK_RTOL:.0e} * max pi = "
            f"{WALK_RTOL * pi.max():.3e}, and each vertex's change at most "
            f"{RESIDUAL_TOL:.0e} of its mass")
    return _finish(H, pi / pi.sum(), "walk-iteration", product)


def stationary_edge_independent(H: Hypergraph) -> StationaryResult:
    """Closed form pi_v proportional to d(v) * gamma(v); only valid when the
    vertex weights are edge-independent."""
    gamma = edge_independent_gamma(H)
    if gamma is None:
        raise NotEdgeIndependent(
            "vertex weights differ across incident edges; the closed form does not apply"
        )
    d, _ = degrees(H)
    pi = d * gamma
    pi /= pi.sum()
    return _finish(H, pi, "closed-form-trivial" if has_trivial_weights(H)
                   else "closed-form-edge-independent")


def _rho_scaled(H: Hypergraph) -> np.ndarray:
    """Per CSR entry, rho_e * (gamma_e(v) / delta(e)): H's vertex weights
    rescaled per edge so every per-edge constant is 1, formed from
    ``stationary_rho`` and the lazy walk's factor, never from
    rho_e / delta(e), which can overflow. One that rounds to 0.0 is
    NonPositiveWeight."""
    scaled = _per_member(H, stationary_rho(H).rho) * _lazy_factors(H)[1]
    if not scaled.min() > 0.0:
        vertex = H.vertices[H.indices[np.argmin(scaled)]]
        raise NonPositiveWeight(f"vertex {vertex!r}: a weight rescaled so rho_e = 1 rounds to 0.0")
    return scaled
