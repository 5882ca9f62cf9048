"""Random-walk Laplacian, symmetric eigensolver, Cheeger constant, and
mixing-time machinery.

The Laplacian of a walk with transition matrix P and stationary distribution
pi is L = Pi - (Pi P + P^T Pi) / 2 with Pi = diag(pi): the symmetrized,
stationarity-weighted operator. It is positive semi-definite and its kernel
contains the all-ones vector. The normalized variant
Pi^{-1/2} L Pi^{-1/2} is kept alongside because the Cheeger inequality
Phi^2 / 2 <= lambda <= 2 Phi is checked against *its* smallest nonzero
eigenvalue (the unnormalized one is reported too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, _memo
from .errors import BoundOverflow, ConvergenceFailure, NotSymmetric, SizeLimit, Unmixed
from .stationary import rho_normalized, stationary_rho
from .walk import TransitionMatrix, _operator, transition_matrix

__all__ = [
    "CHEEGER_SIZE_LIMIT",
    "CheegerCheck",
    "CheegerResult",
    "HypergraphLaplacian",
    "MixingBound",
    "SpectralReport",
    "check_cheeger",
    "cheeger_constant",
    "eigenvalues_symmetric",
    "eigh_symmetric",
    "empirical_mixing_time",
    "laplacian",
    "laplacian_from_walk",
    "mixing_time_bound",
    "spectral_report",
]

# Exhaustive subset enumeration: 2^24 is the most we are willing to walk.
# Subsets are scored by numpy from tables over each half of the vertices, so
# memory is O(2^(n/2) n) plus one block of CHEEGER_BLOCK subsets, or of
# ROWS_FLOOR rows of the A half where that is more (n >= 21: at most 2^16
# subsets at n = 24), whose buffers are allocated once per enumeration and
# refilled in place: a fresh block-sized temporary per step would cost a
# page fault per 4 KiB. The floor keeps a block from shrinking to a few rows,
# where per-block numpy overhead dominates. Only the near-minimal candidates
# are rescored exactly in Python.
CHEEGER_SIZE_LIMIT = 24
CHEEGER_BLOCK = 1 << 14
ROWS_FLOOR = 16
# Relative gap between a block's numpy sums and the fixed-order Python sums.
# Both add the same non-negative terms, so they differ by at most about
# (n^2 + 4n) 2^-53, which is below 1e-13 up to CHEEGER_SIZE_LIMIT.
CHEEGER_RTOL = 1e-12
# Slack of the Cheeger inequality check, the largest asymmetry eigh_symmetric
# accepts, and its largest max|MV - V Lambda| relative to max(1, max|M|).
CHEEGER_TOL = 1e-9
SYMMETRY_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class HypergraphLaplacian:
    vertices: tuple[str, ...]
    L: np.ndarray
    pi: np.ndarray
    normalized: np.ndarray  # Pi^{-1/2} L Pi^{-1/2}


def laplacian_from_walk(P: TransitionMatrix, pi: np.ndarray) -> HypergraphLaplacian:
    PiP = pi[:, None] * P.matrix
    L = np.diag(pi) - (PiP + PiP.T) / 2.0
    inv_sqrt = 1.0 / np.sqrt(pi)
    normalized = L * inv_sqrt[:, None] * inv_sqrt[None, :]
    return HypergraphLaplacian(vertices=P.vertices, L=L, pi=pi, normalized=normalized)


def laplacian(H: Hypergraph) -> HypergraphLaplacian:
    """Laplacian of the lazy walk on H, built from the rho-route stationary
    distribution. Built once per hypergraph: every call on H returns the same
    object, whose arrays are read-only."""
    P, pi = transition_matrix(H), stationary_rho(H).pi
    return _memo(H, "laplacian", lambda: _frozen(laplacian_from_walk(P, pi)))


def _frozen(lap: HypergraphLaplacian) -> HypergraphLaplacian:
    lap.L.flags.writeable = lap.normalized.flags.writeable = False
    return lap


# -- symmetric eigensolver ---------------------------------------------------

def eigh_symmetric(M):
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``)
    after checking symmetry to ``SYMMETRY_TOL``. Returns (eigenvalues ascending,
    eigenvector columns in matching order), after checking the residual
    max|MV - V Lambda| to ``EIGEN_RESIDUAL_TOL`` * max(1, max|M|)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("matrix is not square")
    asym = np.abs(M - M.T).max(initial=0.0)
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix asymmetric by {asym:.3e}")
    M = (M + M.T) / 2.0
    evals, vecs = result = np.linalg.eigh(M)
    residual = np.abs(M @ vecs - vecs * evals).max(initial=0.0)
    if not residual <= EIGEN_RESIDUAL_TOL * max(1.0, np.abs(M).max(initial=0.0)):
        raise ConvergenceFailure(f"eigendecomposition residual {residual:.3e} exceeds "
                                 f"{EIGEN_RESIDUAL_TOL:.0e} * max(1, max|M|)")
    return result


def eigenvalues_symmetric(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    evals, _ = eigh_symmetric(M)
    return evals


def _spectra(H: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``laplacian(H).L`` and of its normalized variant,
    ascending; solved once per hypergraph, both read-only."""
    lap = laplacian(H)

    def solve():
        evals = eigenvalues_symmetric(lap.L), eigenvalues_symmetric(lap.normalized)
        for e in evals:
            e.flags.writeable = False
        return evals

    return _memo(H, "spectra", solve)


# -- Cheeger constant ----------------------------------------------------------

@dataclass(frozen=True)
class CheegerResult:
    phi: float
    argmin: tuple[str, ...]


def _cheeger_enumerate(P: np.ndarray, pi: np.ndarray):
    """Exact minimum of boundary flow over pi(S), over all nonempty proper
    subsets S with pi(S) <= 1/2; ties broken by lexicographically smallest
    sorted index tuple. The result is that of plain-float accumulation in
    fixed (ascending) order, so independent enumerations can agree
    bit-for-bit.

    S = A | B, A among the low h = n // 2 vertices and B among the rest. With
    F = pi[:, None] P, 0/1 rows IA, IB and f_L, f_U the flows inside a half,
    a block of rows of A against a prefix of the B is scored by one small
    product: pi(S) = pi(A) + pi(B), flow(S) = [IA F_LU, f_L(A), 1 - IA, 1]
    [1 - IB, 1, IB F_UL, f_U(B)]^T. This adds entries of F times exact 0/1
    factors and never subtracts, so it is within a relative
    ``CHEEGER_RTOL`` of the fixed-order sum. A subset can then only be
    feasible if its block pi(S) is at most half_hi = (1 + RTOL)/2, and only
    minimal if its block ratio is within a factor 1 + 3 RTOL of that of
    every surely feasible subset (block pi(S) <= (1 - RTOL)/2). The screen
    uses the least such ratio seen so far, so the minimizer passes it in any
    block order. Only the candidates are rescored in fixed order.

    The rows of A are taken by pi(A) descending and the B by pi(B)
    ascending. A float sum is monotone in each term, so the cells of a row
    with block pi(S) <= half_hi are a prefix of it, and each block scores
    only the columns of its last (lightest, widest) row's prefix: about half
    of all cells, and never a feasible one left out. The ratio, pi(S) and
    mask buffers are allocated once and refilled in place, so the working
    set stays the size of one block and no block-sized temporary is handed
    back to the system and faulted in again, page by page, at every step."""
    n = len(pi)
    F = pi[:, None] * P
    flow_terms, pi_list = F.tolist(), pi.tolist()  # the products pi[x] * P[x, y]
    h = n // 2

    def half(part, rest):  # per subset T of part: pi(T), [T F_part,rest, f(T)], [1 - T, 1]
        k = part.stop - part.start
        inside = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float)
        stay = ((inside @ F[part, part]) * (1.0 - inside)).sum(axis=1)
        return (inside @ pi[part], np.column_stack([inside @ F[part, rest], stay]),
                np.column_stack([1.0 - inside, np.ones(1 << k)]))

    low, high = slice(0, h), slice(h, n)
    (pi_a, to_a, out_a), (pi_b, to_b, out_b) = half(low, high), half(high, low)
    order_a = np.argsort(pi_a, kind="stable")[::-1]
    order_b = np.argsort(pi_b, kind="stable")
    pi_a, left = pi_a[order_a], np.hstack([to_a, out_a])[order_a]
    # one column per B, so that BLAS reads a prefix of them untransposed
    pi_b, right = pi_b[order_b], np.vstack([out_b.T, to_b.T])[:, order_b]
    masks_a, masks_b = order_a.tolist(), order_b.tolist()
    never = [(masks_a.index(0), masks_b.index(0)),  # S empty and S full
             (masks_a.index(len(pi_a) - 1), masks_b.index(len(pi_b) - 1))]
    half_lo, half_hi = 0.5 * (1.0 - CHEEGER_RTOL), 0.5 * (1.0 + CHEEGER_RTOL)
    bound = math.inf  # least block ratio of a surely feasible subset so far
    best_ratio = best_subset = None
    rows = max(ROWS_FLOOR, CHEEGER_BLOCK >> (n - h))
    cells = min(rows, len(pi_a)) * len(pi_b)
    values, masks = np.empty((2, cells)), np.empty((2, cells), dtype=bool)
    for start in range(0, len(pi_a), rows):
        stop = min(start + rows, len(pi_a))
        # the feasible prefix of the block's last (lightest, widest) row
        cols = int(np.searchsorted(pi_a[stop - 1] + pi_b, half_hi, side="right"))
        size = (stop - start) * cols
        ratio, pi_s = values[0, :size], values[1, :size]
        np.matmul(left[start:stop], right[:, :cols], out=ratio.reshape(stop - start, cols))
        np.add(pi_a[start:stop, None], pi_b[:cols], out=pi_s.reshape(stop - start, cols))
        for a_row, b_col in never:
            if start <= a_row < stop and b_col < cols:
                pi_s[(a_row - start) * cols + b_col] = math.inf  # and no 0/0
        np.divide(ratio, pi_s, out=ratio)
        surely = np.less_equal(pi_s, half_lo, out=masks[0, :size])
        bound = min(bound, float(np.min(ratio, where=surely, initial=math.inf)))
        candidates = np.less_equal(ratio, bound * (1.0 + 3.0 * CHEEGER_RTOL),
                                   out=masks[1, :size])
        candidates &= np.less_equal(pi_s, half_hi, out=surely)
        for cell in np.flatnonzero(candidates).tolist():
            a_row, b_col = divmod(cell, cols)
            mask = masks_a[start + a_row] | (masks_b[b_col] << h)
            members = [i for i in range(n) if mask >> i & 1]
            pi_exact = 0.0
            for i in members:
                pi_exact += pi_list[i]
            if pi_exact > 0.5:
                continue
            flow_exact = 0.0
            for x in members:
                row = flow_terms[x]
                for y in range(n):
                    if not mask >> y & 1:
                        flow_exact += row[y]
            exact = flow_exact / pi_exact
            key = tuple(members)
            if (
                best_ratio is None
                or exact < best_ratio
                or (exact == best_ratio and key < best_subset)
            ):
                best_ratio = exact
                best_subset = key
    return best_ratio, best_subset


def _require_cheeger_size(H: Hypergraph) -> None:
    n = H.n_vertices
    if not 2 <= n <= CHEEGER_SIZE_LIMIT:
        raise SizeLimit(
            f"Cheeger enumeration supports 2 to {CHEEGER_SIZE_LIMIT} vertices, got {n}"
        )


def cheeger_constant(H: Hypergraph) -> CheegerResult:
    """Cheeger constant of the lazy walk on H by exhaustive enumeration,
    which runs once per hypergraph: a later call on H returns the stored
    (immutable) minimum. The size check comes first and is never stored."""
    _require_cheeger_size(H)
    P = transition_matrix(H)
    pi = stationary_rho(H).pi
    phi, subset = _memo(H, "cheeger", lambda: _cheeger_enumerate(P.matrix, pi))
    return CheegerResult(phi=phi, argmin=tuple(H.vertices[i] for i in subset))


@dataclass
class CheegerCheck:
    lam: float              # smallest nonzero eigenvalue, normalized Laplacian
    lam_unnormalized: float
    phi: float
    holds: bool


def check_cheeger(H: Hypergraph) -> CheegerCheck:
    """Verify Phi^2/2 <= lambda <= 2 Phi, to CHEEGER_TOL, for the normalized
    Laplacian."""
    _require_cheeger_size(H)
    plain, normalized = _spectra(H)
    lam, lam_plain = float(normalized[1]), float(plain[1])
    phi = cheeger_constant(H).phi
    holds = (phi * phi / 2.0 - CHEEGER_TOL) <= lam <= (2.0 * phi + CHEEGER_TOL)
    return CheegerCheck(lam=lam, lam_unnormalized=lam_plain, phi=phi, holds=holds)


# -- mixing time ----------------------------------------------------------------

@dataclass(frozen=True)
class MixingBound:
    bound: int
    beta1: float
    beta2: float
    d_min: float
    phi: float
    vacuous: bool


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")


def _bound_from_components(beta1: float, beta2: float, d_min: float,
                           phi: float, eps: float) -> tuple[int, bool]:
    log_term = -math.log(2.0 * eps * math.sqrt(d_min * beta2))
    if log_term <= 0.0:
        return 0, True
    scale = beta1 * phi * phi
    bound = 8.0 / scale * log_term if scale > 0.0 else math.inf
    if bound == math.inf:
        raise BoundOverflow(f"mixing bound exceeds the float range (beta1 = {beta1:.3e}, "
                            f"Phi = {phi:.3e})")
    return math.ceil(bound), False


def mixing_time_bound(H: Hypergraph, eps: float) -> MixingBound:
    """The bound ceil(8 / (beta1 Phi^2) * log(1 / (2 eps sqrt(d_min beta2))))
    on the eps-mixing time of the lazy walk.

    The vertex weights are first rescaled per edge so every per-edge constant
    is 1; beta1 = min gamma_e(v)/delta(e) (invariant under that rescaling),
    beta2 = min gamma_e(v) (not invariant, hence the rescaling matters).
    Phi is taken on H itself: scaling an edge's weights by one factor leaves
    every gamma_e(v)/delta(e), hence P, pi and Phi, unchanged, so the copy
    is used only for its degrees and weights (its Phi could differ from
    H's in the last bits). A nonpositive logarithm clamps the bound to 0
    and sets the vacuous flag.

    Derivation: P(v,v) = sum_e omega(e)/d(v) * gamma_e(v)/delta(e) >= beta1,
    so P = beta1 I + (1 - beta1) Q with Q stochastic, and since Q* contracts
    L2(pi) the Dirichlet forms satisfy E_{PP*} >= 2 beta1 E_P. The gap of
    P P* is therefore at least 2 beta1 lambda >= beta1 Phi^2, with lambda
    the gap of the normalized Laplacian (>= Phi^2 / 2 by the Cheeger
    inequality that ``check_cheeger`` verifies). Fill's bound for
    non-reversible chains, 4 ||P^t(x,.) - pi||_TV^2 <= (1 - gap(PP*))^t / pi(x),
    puts the distance below eps once
    t >= 2 / (beta1 Phi^2) * log(1 / (2 eps sqrt(pi_min))), and after the
    rescaling pi(v) = sum_e omega(e) gamma_e(v) >= d(v) beta2 >= d_min beta2.
    The prefactor 8 leaves a factor-4 margin over that 2. A smaller beta1 is
    a weaker guarantee that the walk holds, so it gives a larger bound.
    """
    _require_eps(eps)
    Hn = rho_normalized(H)
    op = _operator(Hn)
    beta1 = float(op.right.min())
    beta2 = float(Hn.gamma.min())
    d_min = float(op.d.min())
    phi = cheeger_constant(H).phi
    bound, vacuous = _bound_from_components(beta1, beta2, d_min, phi, eps)
    return MixingBound(
        bound=bound, beta1=beta1, beta2=beta2, d_min=d_min, phi=phi, vacuous=vacuous
    )


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


# -- aggregate report -------------------------------------------------------------

@dataclass
class SpectralReport:
    vertices: tuple[str, ...]
    eigenvalues: np.ndarray       # of the (unnormalized) Laplacian, ascending
    lam: float                    # smallest nonzero eigenvalue, normalized variant
    lam_unnormalized: float
    cheeger: float
    cheeger_argmin: tuple[str, ...]
    mixing_bound: int
    beta1: float
    beta2: float
    d_min: float
    vacuous_bound: bool

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "lambda": float(self.lam),
            "lambda_unnormalized": float(self.lam_unnormalized),
            "cheeger": float(self.cheeger),
            "cheeger_argmin": list(self.cheeger_argmin),
            "mixing_bound": int(self.mixing_bound),
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "d_min": float(self.d_min),
            "vacuous_bound": bool(self.vacuous_bound),
        }


def spectral_report(H: Hypergraph, eps: float = 0.25) -> SpectralReport:
    _require_eps(eps)
    _require_cheeger_size(H)
    evals, normalized = _spectra(H)
    lam_norm = float(normalized[1])
    cheeger = cheeger_constant(H)
    mix = mixing_time_bound(H, eps)
    return SpectralReport(
        vertices=H.vertices,
        eigenvalues=evals,
        lam=lam_norm,
        lam_unnormalized=float(evals[1]),
        cheeger=cheeger.phi,
        cheeger_argmin=cheeger.argmin,
        mixing_bound=mix.bound,
        beta1=mix.beta1,
        beta2=mix.beta2,
        d_min=mix.d_min,
        vacuous_bound=mix.vacuous,
    )
