"""Output oracles: recompute what each command claims, independently of
hyperwalk, with numpy (and scipy for Kendall tau).

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct. Inputs are read from the generated JSON files, never
through the program under test.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9


@dataclass
class Incidence:
    """Flat incidence of a hypergraph: one entry per (edge, member) pair."""

    names: list[str]
    edge: np.ndarray    # edge index of each pair
    vert: np.ndarray    # vertex index of each pair
    gamma: np.ndarray   # vertex weight of each pair
    omega: np.ndarray   # edge weights

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.omega)

    @property
    def d(self) -> np.ndarray:
        return np.bincount(self.vert, weights=self.omega[self.edge], minlength=self.n)

    @property
    def delta(self) -> np.ndarray:
        return np.bincount(self.edge, weights=self.gamma, minlength=self.m)

    def pi_times_p(self, pi: np.ndarray) -> np.ndarray:
        """pi P in O(nnz): mass leaving through each edge, spread by gamma."""
        through = self.omega * np.bincount(
            self.edge, weights=(pi / self.d)[self.vert], minlength=self.m)
        return np.bincount(self.vert, weights=(through / self.delta)[self.edge] * self.gamma,
                           minlength=self.n)

    def dense_walk(self) -> np.ndarray:
        R = np.zeros((self.m, self.n))
        W = np.zeros((self.n, self.m))
        R[self.edge, self.vert] = self.gamma
        W[self.vert, self.edge] = self.omega[self.edge]
        return (W / self.d[:, None]) @ (R / self.delta[:, None])


def incidence(doc: dict) -> Incidence:
    names = list(doc["vertices"])
    index = {v: i for i, v in enumerate(names)}
    edge, vert, gamma, omega = [], [], [], []
    for k, e in enumerate(doc["edges"]):
        omega.append(e["weight"])
        for v, g in e["members"].items():
            edge.append(k)
            vert.append(index[v])
            gamma.append(g)
    return Incidence(names, np.array(edge), np.array(vert), np.array(gamma, dtype=float),
                     np.array(omega, dtype=float))


def stationary_of(P: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum pi = 1, by least squares on the stacked system."""
    n = len(P)
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def walk_laplacian(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    flow = pi[:, None] * P
    return np.diag(pi) - (flow + flow.T) / 2.0


def _close(a, b, tol=TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def _vector(mapping: dict, names: list[str]) -> np.ndarray | None:
    if sorted(mapping) != sorted(names):
        return None
    return np.array([mapping[v] for v in names], dtype=float)


# -- stationary ------------------------------------------------------------------

def check_stationary(h: Incidence, doc: dict) -> list[str]:
    pi = _vector(doc["pi"], h.names)
    if pi is None:
        return ["pi does not list every vertex exactly once"]
    problems = []
    residual = float(np.abs(h.pi_times_p(pi) - pi).max())
    if not residual <= TOL:
        problems.append(f"max|pi P - pi| = {residual:.3e} > {TOL:.0e}")
    if not pi.min() >= 0.0:
        problems.append(f"negative pi entry {pi.min():.3e}")
    if not _close(pi.sum(), 1.0):
        problems.append(f"sum pi = {pi.sum()!r}")
    return problems


def check_stationary_agree(h: Incidence, a: dict, b: dict) -> list[str]:
    gap = float(np.abs(_vector(a["pi"], h.names) - _vector(b["pi"], h.names)).max())
    return [] if gap <= TOL else [f"auto and direct pi differ by {gap:.3e}"]


# -- spectral --------------------------------------------------------------------

def cheeger_ratios(P: np.ndarray, pi: np.ndarray):
    """Boundary flow over pi(S) for every proper nonempty subset S (bitmask
    = index + 1), inf where pi(S) > 1/2."""
    n = len(pi)
    masks = np.arange(1, (1 << n) - 1)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    pi_s = inside @ pi
    flow = ((inside @ (pi[:, None] * P)) * (1.0 - inside)).sum(axis=1)
    return np.where(pi_s <= 0.5, flow / pi_s, np.inf)


def check_spectral(h: Incidence, doc: dict) -> list[str]:
    P = h.dense_walk()
    pi = stationary_of(P)
    L = walk_laplacian(P, pi)
    evals = np.linalg.eigvalsh(L)
    scale = 1.0 / np.sqrt(pi)
    lam = float(np.linalg.eigvalsh(L * scale[:, None] * scale[None, :])[1])
    ratios = cheeger_ratios(P, pi)
    phi = float(ratios.min())
    problems = []

    got = np.array(doc["eigenvalues"], dtype=float)
    if got.shape != evals.shape or not np.abs(got - evals).max() <= TOL:
        problems.append("Laplacian eigenvalues differ from eigvalsh")
    ineq = doc["cheeger_inequality"]
    for label, value, want in (("lambda", doc["lambda"], lam),
                               ("cheeger_inequality.lambda", ineq["lambda"], lam),
                               ("lambda_unnormalized", doc["lambda_unnormalized"], evals[1]),
                               ("cheeger", doc["cheeger"], phi),
                               ("cheeger_inequality.phi", ineq["phi"], phi)):
        if not _close(value, want):
            problems.append(f"{label} = {value!r}, oracle {want!r}")

    # The argmin must be a minimizer; when the oracle's minimizer is unique
    # by more than the tolerance, it must be that one.
    index = {v: i for i, v in enumerate(h.names)}
    try:
        mask = sum(1 << index[v] for v in doc["cheeger_argmin"])
    except KeyError:
        mask = 0
    if not 0 < mask < (1 << h.n) - 1 or not ratios[mask - 1] <= phi + TOL:
        problems.append(f"cheeger_argmin {doc['cheeger_argmin']} is not a minimizer")
    elif np.count_nonzero(ratios <= phi + TOL) == 1 and mask - 1 != int(ratios.argmin()):
        problems.append("cheeger_argmin differs from the unique minimizer")

    holds = (phi * phi / 2.0 - TOL) <= lam <= (2.0 * phi + TOL)
    if ineq["holds"] is not holds:
        problems.append(f"cheeger_inequality.holds = {ineq['holds']!r}, oracle {holds}")
    bound = doc["mixing_bound"]
    if type(bound) is not int or bound < 0:
        problems.append(f"mixing_bound {bound!r} is not a non-negative int")
    return problems


# -- reduce --mode sandwich ------------------------------------------------------------

def check_sandwich(h: Incidence, doc: dict) -> list[str]:
    P = h.dense_walk()
    pi = stationary_of(P)
    lam_h = float(np.linalg.eigvalsh(walk_laplacian(P, pi))[1])
    # Per-edge constants from pi: rho_e = sum over members of pi_v / d(v).
    # Rescaling edge e by rho_e / delta(e) makes its constant 1 and its
    # degree rho_e, so the clique expansion weight of edge e on (u, v) is
    # omega_e gamma'_u gamma'_v / rho_e.
    rho = np.bincount(h.edge, weights=(pi / h.d)[h.vert], minlength=h.m)
    scaled = h.gamma * (rho / h.delta)[h.edge]
    G = np.zeros((h.n, h.n))
    for k in range(h.m):
        sel = h.edge == k
        idx, g = h.vert[sel], scaled[sel]
        G[np.ix_(idx, idx)] += np.outer(g, g) * (h.omega[k] / rho[k])
    P_g = G / G.sum(axis=1)[:, None]
    pi_g = stationary_of(P_g)
    lam_g = float(np.linalg.eigvalsh(walk_laplacian(P_g, pi_g))[1])
    hi = np.zeros(h.n)
    lo = np.full(h.n, np.inf)
    np.maximum.at(hi, h.vert, scaled)
    np.minimum.at(lo, h.vert, scaled)
    c = float((hi / lo).max())
    holds = (lam_h / c - TOL) <= lam_g <= (c * lam_h + TOL)

    verdict = doc["verdict"]
    problems = []
    for label, want in (("lambda_hypergraph", lam_h), ("lambda_graph", lam_g),
                        ("stationary_deviation", float(np.abs(pi_g - pi).max()))):
        if not _close(verdict[label], want):
            problems.append(f"{label} = {verdict[label]!r}, oracle {want!r}")
    if not _close(verdict["c"], c, TOL * c):
        problems.append(f"c = {verdict['c']!r}, oracle {c!r}")
    if verdict["holds"] is not holds:
        problems.append(f"holds = {verdict['holds']!r}, oracle {holds}")
    return problems


# -- rankagg ---------------------------------------------------------------------------

METHODS = ("hypergraph-rwr", "clique-rwr", "mc3")
SAMPLE_TRIALS = (0, 15, 29)
BETA = 0.4


def generate_matches(n: int, sigma: float, p: float, seed: int):
    """The synthetic match draw of the rank-aggregation experiment: draw
    matches until every player appears and the matches connect them."""
    rng = np.random.default_rng(seed)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    covered = np.zeros(n, dtype=bool)
    components = n
    matches = []
    while not covered.all() or components > 1:
        mask = rng.random(n) < p
        if mask.sum() < 2:
            continue
        players = np.flatnonzero(mask) + 1
        scores = rng.uniform(1.0 / 3.0, 3.0) * rng.normal(0.2 * players, sigma)
        matches.append((players, scores))
        covered[players - 1] = True
        root = find(players[0] - 1)
        for i in players[1:]:
            r = find(i - 1)
            if r != root:
                parent[r] = root
                components -= 1
    return matches


def hypergraph_rwr_tau(n: int, sigma: float, p: float, seed: int) -> tuple[float, float]:
    """Unweighted Kendall tau of the hypergraph restart-walk ranking against
    the true order, and the largest tau change that near-ties in the
    stationary vector could explain."""
    from scipy.stats import kendalltau

    matches = generate_matches(n, sigma, p, seed)
    R = np.zeros((len(matches), n))
    W = np.zeros((n, len(matches)))
    for k, (players, scores) in enumerate(matches):
        R[k, players - 1] = np.exp(scores)
        W[players - 1, k] = np.std(scores) + 1.0
    P = (W / W.sum(axis=1)[:, None]) @ (R / R.sum(axis=1)[:, None])
    pi = stationary_of((1.0 - BETA) * P + BETA / n)
    order = sorted(range(1, n + 1), key=lambda i: (-pi[i - 1], i))
    position = np.empty(n)
    position[np.array(order) - 1] = np.arange(n)
    tau = float(kendalltau(position, -np.arange(1, n + 1)).statistic)
    gaps = np.abs(pi[:, None] - pi[None, :])
    near_ties = (np.count_nonzero(gaps <= TOL * pi.max()) - n) // 2
    return tau, near_ties * 4.0 / (n * (n - 1))


def check_rankagg(text: str, n: int, sigma: float, p: float, trials: int,
                  seed: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = [(r["method"], r["trial"]) for r in rows]
    want = [(m, str(t)) for t in range(trials) for m in METHODS]
    if sorted(keys) != sorted(want):
        return [f"expected one row per method and trial, got {len(rows)} rows"]
    problems = []
    for r in rows:
        if float(r["p"]) != p:
            problems.append(f"row {r['method']},{r['trial']}: p = {r['p']}")
        for col in ("tau_weighted", "tau_unweighted"):
            if not -1.0 <= float(r[col]) <= 1.0:
                problems.append(f"row {r['method']},{r['trial']}: {col} = {r[col]}")
    by_key = dict(zip(keys, rows))
    for t in SAMPLE_TRIALS:
        if t >= trials:
            continue
        tau, slack = hypergraph_rwr_tau(n, sigma, p, seed + t)
        got = float(by_key[("hypergraph-rwr", str(t))]["tau_unweighted"])
        if not math.isclose(got, tau, rel_tol=0.0, abs_tol=TOL + slack):
            problems.append(f"trial {t}: hypergraph-rwr tau_unweighted {got!r}, oracle {tau!r}")
    return problems
