"""Stationary distributions of hypergraph random walks.

Four routes are provided and cross-checked against each other:

* ``stationary_walk`` -- power iteration of the lazy walk without forming
  P: one step pi -> ((pi / d) W) D_E^-1 R of the walk operator
  (``walk.WalkOperator``) is two O(nnz) passes over the CSR arrays, so it
  has no size limit, and its per-edge sums are the rho route's constants.
  It gives up after ``WALK_MAX_ITER`` steps, since a slowly mixing walk
  contracts slowly.
* ``stationary_rho`` -- the per-edge-constant construction: normalize each
  edge so its degree is 1, build the |E| x |E| coupling matrix A with
  A[e, f] = sum over v in both edges of omega(f) * gamma_f(v) / d(v), solve
  for its positive fixed point A rho = rho, rescale so
  sum_e rho_e * omega(e) = 1, and assemble
  pi_v = sum over incident e of rho_e * omega(e) * gamma_e(v).
* ``stationary_direct`` -- solve pi P = pi, sum pi = 1 as a dense linear
  system (the oracle for the other two). P may be shared, so it solves in
  a copy of P; the CLI's direct route (``_stationary_direct_of``) builds P
  itself, solves in P's own buffer and only then stores P on the
  hypergraph, so one command holds two n x n matrices at its peak: P and
  LAPACK's working copy.
* ``stationary_edge_independent`` -- the closed form
  pi_v = d(v) gamma(v) / sum_u d(u) gamma(u) available when vertex weights
  do not depend on the edge.

The rho and direct routes are dense and share one fixed-point solve: the
system (M - I) x = 0 with its last equation replaced by sum(x) = 1, on M = A
and on M = P^T, set up in M's own buffer and undone after the solve.

``naive_stationary`` is the degree-fraction formula d(v)/sum d(u). It is
*not* the stationary distribution in general -- it ignores the vertex
weights entirely -- and is kept as a counterexample generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Hypergraph,
    _block_scatter,
    _memo,
    _per_member,
    _vertex_major,
    degrees,
    delta_normalized,
    edge_independent_gamma,
    has_trivial_weights,
    rescale_edges,
)
from .errors import ConvergenceFailure, NonPositiveWeight, NotEdgeIndependent, SingularSystem
from .walk import (TransitionMatrix, _check_size, _lazy_walk, _operator, _published,
                   transition_matrix)

__all__ = [
    "StationaryResult",
    "edge_coupling_matrix",
    "naive_stationary",
    "rho_normalized",
    "stationary_direct",
    "stationary_edge_independent",
    "stationary_rho",
    "stationary_walk",
]

RESIDUAL_TOL = 1e-9

# The walk iteration accepts pi once max|pi P - pi| <= WALK_RTOL * max(pi),
# and gives up after WALK_MAX_ITER steps. See stationary_walk.
WALK_RTOL = 1e-13
WALK_MAX_ITER = 2000


@dataclass(frozen=True)
class StationaryResult:
    """A stationary distribution plus how it was obtained.

    ``rho`` holds the per-edge constants (in the delta(e)=1 normalization,
    summing to 1 against the edge weights) when the rho route or the walk
    iteration produced the result, and is None otherwise.
    ``residual`` is max |pi P - pi|.
    """

    vertices: tuple[str, ...]
    pi: np.ndarray
    rho: np.ndarray | None
    method: str
    residual: float

    def as_dict(self) -> dict:
        out = {
            "pi": dict(zip(self.vertices, self.pi.tolist())),
            "rho": {} if self.rho is None else {
                str(k): r for k, r in enumerate(self.rho.tolist())
            },
            "method": self.method,
            "residual": float(self.residual),
        }
        return out


def _residual(pi: np.ndarray, P: TransitionMatrix) -> float:
    return float(np.abs(pi @ P.matrix - pi).max())


def edge_coupling_matrix(H: Hypergraph) -> np.ndarray:
    """The |E| x |E| matrix whose eigenvalue-1 eigenvector gives the per-edge
    constants. Expects H already normalized to delta(e) = 1; its column sums,
    weighted by the edge weights, reproduce the edge weights exactly.

    Built vertex by vertex: each vertex v adds
    outer(1, omega(f) * gamma_f(v) / d(v)) over the edges e, f holding it.
    """
    _check_size(H.n_edges, "edges")
    op = _operator(H)
    vptr, order = _vertex_major(H)
    contrib = _per_member(H, H.omega) * H.gamma / op.d[H.indices]
    return _block_scatter(vptr, op.edge[order], np.ones(len(order)), contrib[order],
                          H.n_edges)


def _fixed_point(M: np.ndarray) -> np.ndarray:
    """The x with M x = x and sum(x) = 1.

    Solves (M - I) x = 0 with its last equation replaced by sum(x) = 1, by
    LU with partial pivoting. When the fixed point is unique the replaced
    equation is redundant (the rows of M - I are dependent) and the system
    is nonsingular.

    The system is set up in M itself, which LAPACK then copies, so no other
    n x n buffer is needed. M's diagonal and last row are saved first and
    put back afterwards (O(n)), so M holds its own bits again on return and
    when the solve raises SingularSystem. M must not be read meanwhile.
    """
    n = M.shape[0]
    diagonal, last = M.diagonal().copy(), M[-1].copy()
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        M[np.diag_indices(n)] -= 1.0
        M[-1, :] = 1.0
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from None
    finally:
        M[-1, :] = last
        M[np.diag_indices(n)] = diagonal


def stationary_rho(H: Hypergraph) -> StationaryResult:
    """Stationary distribution via the per-edge constants rho_e.

    The returned ``rho`` refers to the delta(e)=1 normalization of H and
    satisfies sum_e rho_e * omega(e) = 1. Both dense matrices, A and the P
    of the residual check, are size-checked before either is built.

    Solved once per hypergraph: every call on H returns the same object,
    whose ``pi`` and ``rho`` are read-only. A failure is never stored.
    """
    _check_size(H.n_vertices)
    return _memo(H, "stationary_rho", lambda: _solve_rho(H))


def _solve_rho(H: Hypergraph) -> StationaryResult:
    Hn = delta_normalized(H)
    rho = _fixed_point(edge_coupling_matrix(Hn))
    if not rho.min() > 0.0:
        raise ConvergenceFailure(
            "fixed point for the per-edge constants is not strictly positive "
            f"(min component {rho.min():.3e})"
        )
    with np.errstate(over="ignore", divide="ignore"):  # subnormal edge weights
        rho = rho / float(rho @ H.omega)
    bad = np.flatnonzero(~np.isfinite(rho))
    if len(bad):
        raise NonPositiveWeight(
            f"edge #{bad[0]}: per-edge constant rho_e overflows the float range")
    pi = np.bincount(Hn.indices, weights=_per_member(Hn, rho * H.omega) * Hn.gamma,
                     minlength=H.n_vertices)
    residual = _residual(pi, transition_matrix(H))
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    pi.flags.writeable = rho.flags.writeable = False
    return StationaryResult(
        vertices=H.vertices, pi=pi, rho=rho, method="rho-eigenvector",
        residual=residual,
    )


def stationary_direct(P: TransitionMatrix) -> StationaryResult:
    """Solve pi P = pi with sum pi = 1 by dense elimination (partial
    pivoting). The oracle the rho route is checked against.

    P may be shared (a memoized walk matrix is read-only and other callers
    read it), so the system is set up in one copy of P and P is never
    touched."""
    return _direct(P, P.matrix.copy().T)


def _direct(P: TransitionMatrix, M: np.ndarray) -> StationaryResult:
    """The direct solve on M = P^T, a buffer no one else reads meanwhile.
    P^T as a view of a C-ordered matrix is in Fortran order, the layout
    LAPACK takes."""
    pi = _fixed_point(M)
    return StationaryResult(
        vertices=P.vertices, pi=pi, rho=None, method="direct-solve",
        residual=_residual(pi, P),
    )


def _stationary_direct_of(H: Hypergraph) -> StationaryResult:
    """``stationary_direct(transition_matrix(H))`` bit for bit, copying only
    what someone else holds.

    When H's memo already holds P, that is shared, and it is solved in a
    copy. Otherwise P is built here, solved in its own buffer (the residual
    reads the restored bits), and then made read-only and stored, so P is
    still built once per hypergraph: one n x n matrix fewer at the peak."""
    P = H._memo.get("transition_matrix")
    if P is not None:
        return stationary_direct(P)
    _check_size(H.n_vertices)
    P = _lazy_walk(H)
    result = _direct(P, P.matrix.T)
    _memo(H, "transition_matrix", lambda: _published(P))
    return result


def stationary_walk(H: Hypergraph) -> StationaryResult:
    """Power iteration of the lazy walk from the uniform vector, without
    forming P.

    One step pi -> pi P is ``WalkOperator.rstep``: it sums rho_e = sum over
    v in e of pi_v / d(v) per edge, then spreads rho_e * ((omega(e) /
    delta(e)) * gamma_e(w)) onto each member w, two O(nnz) bincounts; that
    order, not the dense build's, keeps the bits of ``--method auto``. The
    lazy walk's diagonal is positive, so the iteration converges at the rate
    of the second eigenvalue modulus. It stops at the first pi with
    max|pi P - pi| <= WALK_RTOL * max(pi), and raises ConvergenceFailure
    naming the iteration count and the residual when WALK_MAX_ITER steps do
    not get there, or naming the iteration whose pi is not finite (pi / d
    overflows when a degree is subnormal).

    The returned pi is renormalized to sum 1. Its per-edge sums are the rho
    route's constants, with sum_e rho_e * omega(e) = sum_v pi_v = 1, and
    ``residual`` is max|pi P - pi| under the same operator.
    """
    op = _operator(H)
    pi = np.full(H.n_vertices, 1.0 / H.n_vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, WALK_MAX_ITER + 1):
            nxt = op.rstep(pi)[1]
            residual = float(np.abs(nxt - pi).max())  # pi is finite: nan or inf iff nxt is
            if not math.isfinite(residual):
                raise ConvergenceFailure(f"walk iterate {iterations} is not finite")
            if residual <= WALK_RTOL * pi.max():
                break
            pi = nxt
        else:
            raise ConvergenceFailure(
                f"walk iteration stopped after {iterations} iterations with residual "
                f"{residual:.3e} > {WALK_RTOL:.0e} * max pi = {WALK_RTOL * pi.max():.3e}"
            )
    pi = pi / pi.sum()
    rho, nxt = op.rstep(pi)
    return StationaryResult(
        vertices=H.vertices, pi=pi, rho=rho, method="walk-iteration",
        residual=float(np.abs(nxt - pi).max()),
    )


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
    method = "closed-form-trivial" if has_trivial_weights(H) else "closed-form-edge-independent"
    return StationaryResult(
        vertices=H.vertices, pi=pi, rho=None, method=method,
        residual=_residual(pi, transition_matrix(H)),
    )


def naive_stationary(H: Hypergraph) -> np.ndarray:
    """Degree fraction d(v) / sum_u d(u).

    This ignores the vertex weights, so it is generally *not* stationary; it
    coincides with the true distribution only in special cases such as
    trivial weights. Kept as the counterexample generator.
    """
    d, _ = degrees(H)
    return d / d.sum()


def rho_normalized(H: Hypergraph, result: StationaryResult | None = None) -> Hypergraph:
    """Rescale each edge's vertex weights so its own per-edge constant
    becomes 1; afterwards pi_v = sum of omega(e) * gamma_e(v) over incident
    edges, already summing to 1 over V. ``result`` is ``stationary_rho(H)``,
    solved here when not given."""
    if result is None:
        result = stationary_rho(H)
    _, delta = degrees(H)
    return rescale_edges(H, result.rho / delta)
