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

from .core import Hypergraph, _per_member, degrees
from .errors import BoundOverflow, NotSymmetric, SizeLimit, Unmixed
from .stationary import rho_normalized, stationary_rho
from .walk import TransitionMatrix, transition_matrix

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
# The masks are scored by numpy in blocks of CHEEGER_BLOCK, so the
# enumeration's memory is bounded by the block size whatever n is, and only
# the near-minimal candidates are rescored exactly in Python.
CHEEGER_SIZE_LIMIT = 24
CHEEGER_BLOCK = 1 << 10
# Relative gap between a block's numpy sums and the fixed-order Python sums.
# Both add non-negative terms, so they differ by at most about
# (n^2 + 4n) 2^-53, which is below 1e-13 up to CHEEGER_SIZE_LIMIT.
CHEEGER_RTOL = 1e-12
# Slack of the Cheeger inequality check, and the largest asymmetry
# eigh_symmetric accepts.
CHEEGER_TOL = 1e-9
SYMMETRY_TOL = 1e-10


@dataclass
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
    distribution."""
    return laplacian_from_walk(transition_matrix(H), stationary_rho(H).pi)


# -- symmetric eigensolver ---------------------------------------------------

def eigh_symmetric(M):
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``)
    after checking symmetry to ``SYMMETRY_TOL``. Returns (eigenvalues ascending,
    eigenvector columns in matching order)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("matrix is not square")
    asym = np.abs(M - M.T).max(initial=0.0)
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix asymmetric by {asym:.3e}")
    return np.linalg.eigh((M + M.T) / 2.0)


def eigenvalues_symmetric(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    evals, _ = eigh_symmetric(M)
    return evals


# -- Cheeger constant ----------------------------------------------------------

@dataclass
class CheegerResult:
    phi: float
    argmin: tuple[str, ...]


def _cheeger_enumerate(P: np.ndarray, pi: np.ndarray):
    """Exact minimum of boundary flow over pi(S), over all S with
    0 < pi(S) <= 1/2; ties broken by lexicographically smallest sorted index
    tuple. The result is that of plain-float accumulation in fixed
    (ascending) order, so independent enumerations can agree bit-for-bit.

    The masks are scored by numpy in blocks of ``CHEEGER_BLOCK``. Block sums
    and fixed-order sums of the same non-negative terms differ by a relative
    ``CHEEGER_RTOL`` at most, so a subset can only be feasible if its block
    pi(S) is at most (1 + RTOL)/2, and can only be minimal if its block ratio
    is within a factor 1 + 3 RTOL of the least block ratio among the subsets
    that are surely feasible (block pi(S) <= (1 - RTOL)/2). Only those
    candidates are rescored in fixed order."""
    n = len(pi)
    flow_terms = [[float(pi[x] * P[x, y]) for y in range(n)] for x in range(n)]
    pi_list = [float(x) for x in pi]
    F = pi[:, None] * P
    ones = np.ones(n)
    half_hi = 0.5 * (1.0 + CHEEGER_RTOL)
    half_lo = 0.5 * (1.0 - CHEEGER_RTOL)
    bound = math.inf  # least block ratio of a surely feasible subset so far
    best_ratio = None
    best_subset = None
    full = (1 << n) - 1
    # Reused buffers: fresh block-sized temporaries cost more than the math.
    rows = min(CHEEGER_BLOCK, full - 1)
    inside_buf, outside_buf, flow_buf = (np.empty((rows, n)) for _ in range(3))
    for start in range(1, full, CHEEGER_BLOCK):
        masks = np.arange(start, min(start + CHEEGER_BLOCK, full))
        k = len(masks)
        inside, outside, flow = inside_buf[:k], outside_buf[:k], flow_buf[:k]
        inside[...] = np.unpackbits(masks.astype("<u4").view(np.uint8).reshape(k, 4),
                                    axis=1, count=n, bitorder="little")
        np.subtract(1.0, inside, out=outside)
        pi_s = inside @ pi
        np.matmul(inside, F, out=flow)
        flow *= outside
        ratio = flow @ ones / pi_s
        bound = min(bound, float(np.min(ratio, where=pi_s <= half_lo, initial=math.inf)))
        candidates = (pi_s <= half_hi) & (ratio <= bound * (1.0 + 3.0 * CHEEGER_RTOL))
        for mask in masks[candidates].tolist():
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
    """Cheeger constant of the lazy walk on H by exhaustive enumeration."""
    _require_cheeger_size(H)
    P = transition_matrix(H)
    pi = stationary_rho(H).pi
    phi, subset = _cheeger_enumerate(P.matrix, pi)
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
    lap = laplacian(H)
    lam = float(eigenvalues_symmetric(lap.normalized)[1])
    lam_plain = float(eigenvalues_symmetric(lap.L)[1])
    phi = cheeger_constant(H).phi
    holds = (phi * phi / 2.0 - CHEEGER_TOL) <= lam <= (2.0 * phi + CHEEGER_TOL)
    return CheegerCheck(lam=lam, lam_unnormalized=lam_plain, phi=phi, holds=holds)


# -- mixing time ----------------------------------------------------------------

@dataclass
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
    A nonpositive logarithm clamps the bound to 0 and sets the vacuous flag.

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
    d, delta = degrees(Hn)
    beta1 = float((Hn.gamma / _per_member(Hn, delta)).min())
    beta2 = float(Hn.gamma.min())
    d_min = float(d.min())
    phi = cheeger_constant(Hn).phi
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
    lap = laplacian(H)
    evals = eigenvalues_symmetric(lap.L)
    lam_norm = float(eigenvalues_symmetric(lap.normalized)[1])
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
