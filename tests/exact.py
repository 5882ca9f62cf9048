"""Exact walk matrices, stationary distributions and per-edge constants in
rational arithmetic: the reference that tests/test_exact.py checks every
float route against.

Every float is an exact rational, so the lazy walk of a hypergraph has an
exact P[v, w] = sum over edges e holding both of
(omega(e) / d(v)) * (gamma_e(w) / delta(e)), and an exact pi, the solution
of pi P = pi with sum pi = 1, whose per-edge constants are exact too. All
are formed here from the ``Fraction`` of each omega and gamma, pi by
Gauss-Jordan elimination. The numbers grow with each elimination step, so
this is meant for n <= 12.
"""

from fractions import Fraction

MAX_VERTICES = 12


def _exact_parts(H):
    """H's CSR member indices, its omega and gamma as Fractions, each edge's
    range of CSR entries, and the degrees d(v) = sum of omega(e) over the
    edges holding v, as Fractions."""
    n = H.n_vertices
    if n > MAX_VERTICES:
        raise ValueError(f"exact arithmetic is meant for at most {MAX_VERTICES} vertices")
    indptr, indices = H.indptr.tolist(), H.indices.tolist()
    omega = [Fraction(w) for w in H.omega.tolist()]
    gamma = [Fraction(g) for g in H.gamma.tolist()]
    edges = [range(indptr[e], indptr[e + 1]) for e in range(H.n_edges)]
    d = [Fraction(0)] * n
    for e, entries in enumerate(edges):
        for k in entries:
            d[indices[k]] += omega[e]
    return indices, omega, gamma, edges, d


def exact_transition(H) -> list[list[Fraction]]:
    """P of H's lazy walk, entry by entry, as Fractions."""
    indices, omega, gamma, edges, d = _exact_parts(H)
    n = H.n_vertices
    P = [[Fraction(0)] * n for _ in range(n)]
    for e, entries in enumerate(edges):
        delta = sum(gamma[k] for k in entries)
        for k in entries:
            leave = omega[e] / d[indices[k]]
            row = P[indices[k]]
            for j in entries:
                row[indices[j]] += leave * gamma[j] / delta
    return P


def exact_stationary(H) -> list[Fraction]:
    """The pi of H's lazy walk, as Fractions. A connected hypergraph's lazy
    walk is irreducible, so it is unique."""
    return exact_fixed_point(exact_transition(H))


def exact_rho(H, pi: list[Fraction]) -> list[Fraction]:
    """The per-edge constants of an exact pi of H, as Fractions:
    rho_e = sum over v in e of pi_v / d(v), the paper's definition, so
    sum_e rho_e * omega(e) = sum_v pi_v = 1."""
    indices, _, _, edges, d = _exact_parts(H)
    return [sum(pi[indices[k]] / d[indices[k]] for k in entries) for entries in edges]


def exact_fixed_point(P: list[list[Fraction]]) -> list[Fraction]:
    """The pi with pi P = pi and sum pi = 1 of an irreducible stochastic P
    of Fractions: the system (P^T - I) pi = 0 with its last equation
    replaced by sum pi = 1, solved by Gauss-Jordan elimination."""
    n = len(P)
    rows = [[P[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    rows.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        scale = head[col]
        head[:] = [x / scale for x in head]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
    return [row[n] for row in rows]


def exact_cheeger(H) -> Fraction:
    """The Cheeger constant of H's lazy walk, as a Fraction: the least
    boundary flow sum over x in S, y not in S of pi_x P[x, y], over pi(S),
    among the nonempty proper subsets S with pi(S) <= 1/2, by enumerating
    every subset."""
    P = exact_transition(H)
    pi = exact_fixed_point(P)
    n = len(pi)
    best = None
    for mask in range(1, (1 << n) - 1):
        inside = [x for x in range(n) if mask >> x & 1]
        mass = sum(pi[x] for x in inside)
        if mass > Fraction(1, 2):
            continue
        flow = sum(pi[x] * P[x][y] for x in inside for y in range(n) if not mask >> y & 1)
        if best is None or flow / mass < best:
            best = flow / mass
    return best


# The smallest normal float. Below it a float carries fewer digits, so an
# exact mass there is measured against it: a float of 0.0 for a mass of
# 1e-600 has no error, and one of 0.0 for 5e-321 an error of 2.2e-13.
SMALLEST_NORMAL = Fraction(2.0 ** -1022)


def entrywise_error(pi, exact: list[Fraction]) -> float:
    """max over v of |pi_v - exact_v| / exact_v, formed exactly and rounded
    once, with exact_v no smaller than SMALLEST_NORMAL; every exact_v of a
    connected hypergraph's walk is positive."""
    return float(max(abs(Fraction(p) - x) / max(x, SMALLEST_NORMAL)
                     for p, x in zip(pi.tolist(), exact)))

