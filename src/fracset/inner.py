"""Inner convex problem: c1*max(f) + <f, c2> + mu*TV(f) over the unit ball.

The feasible set is {f >= 0, ||f||_2 <= 1} and TV(f) = sum_e w_e |f_u - f_v|.
The problem is solved through its dual

    - min_{ |alpha_e| <= 1, v in simplex }  0.5 || P_+( -c1 v - c2 - (mu/2) A alpha ) ||^2,

where (A alpha)_i = sum_j w_ij (alpha_ij - alpha_ji) with alpha stored once
per undirected edge (the antisymmetry is structural), and P_+ is the
projection onto the nonnegative orthant.  The dual is minimized with FISTA:
v is re-minimized exactly each step via a simplex projection, alpha takes an
accelerated projected-gradient step with step size 1/L.  The primal optimum
of the modified problem (objective plus 0.5||f||^2) is recovered as
z = P_+(...), and the homogeneous problem's solution is z / ||z||_2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "InnerProblem",
    "InnerSolution",
    "lipschitz_estimate",
    "objective_value",
    "simplex_project",
    "solve_inner",
]


class InnerProblem:
    """The convex piece c1*max(f) + <f, c2> + mu*TV(f) on a fixed edge set.

    Each side of a ratio keeps one such piece explicit, and each outer step
    solves the one formed from both sides; ``objective_value`` evaluates it.
    """

    __slots__ = ("c1", "c2", "mu", "edge_u", "edge_v", "edge_w")

    def __init__(self, c1, c2, mu, edge_u, edge_v, edge_w):
        if c1 < 0:
            raise ValueError("the max-coefficient must be non-negative")
        if mu < 0:
            raise ValueError("the TV coefficient must be non-negative")
        self.c1 = float(c1)
        self.c2 = np.asarray(c2, dtype=float)
        self.mu = float(mu)
        self.edge_u = np.asarray(edge_u, dtype=np.int64)
        self.edge_v = np.asarray(edge_v, dtype=np.int64)
        self.edge_w = np.asarray(edge_w, dtype=float)

    @property
    def m(self):
        return int(self.c2.size)


class InnerSolution:
    """Primal/dual outcome of one inner solve."""

    __slots__ = ("f", "value", "modified_value", "dual_value", "gap",
                 "iterations", "converged", "alpha", "v")

    def __init__(self, f, value, modified_value, dual_value, gap,
                 iterations, converged, alpha, v):
        self.f = f
        self.value = value                  # homogeneous objective at f
        self.modified_value = modified_value  # objective + 0.5||z||^2 at z
        self.dual_value = dual_value        # concave dual value (lower bound)
        self.gap = gap
        self.iterations = iterations
        self.converged = converged
        self.alpha = alpha
        self.v = v


def simplex_project(x):
    """Euclidean projection onto {v >= 0, sum v = 1}.

    Sort-based water filling: v_i = max(x_i - tau, 0) with tau chosen so the
    result sums to one.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, x.size + 1)
    rho = np.nonzero(u - css / ks > 0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


def objective_value(problem, f):
    """Homogeneous objective c1*max(f) + <f, c2> + mu*TV(f)."""
    f = np.asarray(f, dtype=float)
    total = float(np.dot(problem.c2, f))
    if problem.c1 and f.size:
        total += problem.c1 * float(f.max())
    if problem.mu and problem.edge_w.size:
        total += problem.mu * float(np.dot(
            problem.edge_w, np.abs(f[problem.edge_u] - f[problem.edge_v])))
    return total


def lipschitz_estimate(problem, iterations=30, safety=1.1):
    """Upper bound on the Lipschitz constant of the dual gradient.

    Power iteration on the composite linear map (alpha, v) -> (mu/2) A alpha
    + c1 v gives its squared operator norm; the dual gradient is that map
    composed with a 1-Lipschitz projection, so the squared norm bounds L.
    The safety factor covers power-iteration underestimation.
    """
    m = problem.m
    if m == 0:
        return 0.0
    eu, ev, ew = problem.edge_u, problem.edge_v, problem.edge_w
    w2 = 2.0 * ew
    mu, c1 = problem.mu, problem.c1
    c1sq = c1 * c1
    # Deterministic, symmetry-breaking start.
    y = 1.0 + 0.01 * np.arange(m) / max(m, 1)
    y /= np.linalg.norm(y)
    sigma_sq = 0.0
    for _ in range(iterations):
        if ew.size and mu:
            t = mu * ew * (y[eu] - y[ev])          # (mu/2) * A^T y per edge
            bt = (np.bincount(eu, weights=w2 * t, minlength=m)
                  - np.bincount(ev, weights=w2 * t, minlength=m))
            y_new = 0.5 * mu * bt + c1sq * y
        else:
            y_new = c1sq * y
        norm = np.linalg.norm(y_new)
        if norm <= 0.0:
            sigma_sq = c1sq
            break
        sigma_sq = norm
        y = y_new / norm
    return safety * max(sigma_sq, c1sq)


def _certificate(problem, alpha, v):
    """Primal/dual values at a feasible dual point.

    Returns (z, v_used, modified_primal, dual_value, gap).  ``alpha`` must be
    inside the unit box; the simplex block is re-minimized exactly so the
    certificate is valid even between momentum steps.
    """
    m = problem.m
    eu, ev, ew = problem.edge_u, problem.edge_v, problem.edge_w
    if ew.size and problem.mu:
        w2a = 2.0 * ew * alpha
        q = (np.bincount(eu, weights=w2a, minlength=m)
             - np.bincount(ev, weights=w2a, minlength=m))
        base = -problem.c2 - (0.5 * problem.mu) * q
    else:
        base = -problem.c2.copy()
    if problem.c1 > 0.0:
        v = simplex_project(np.maximum(base / problem.c1, 0.0))
        x = base - problem.c1 * v
    else:
        x = base
    z = np.maximum(x, 0.0)
    znorm_sq = float(np.dot(z, z))
    modified = objective_value(problem, z) + 0.5 * znorm_sq
    dual = -0.5 * znorm_sq
    return z, v, modified, dual, modified - dual


def solve_inner(problem, tol=1e-6, max_iter=20000, warm=None, check_every=5):
    """Minimize the inner objective over the nonnegative part of the unit ball.

    Stops when the duality gap of the modified problem drops below
    tol * max(1, |dual|), or at ``max_iter`` (returning the best certified
    iterate, flagged non-converged).  ``warm`` is an optional (alpha, v) pair
    from a previous solve on the same edge structure.
    """
    m = problem.m
    if m == 0:
        raise ValueError("inner problem over zero vertices")
    eu, ev, ew = problem.edge_u, problem.edge_v, problem.edge_w
    c1, c2, mu = problem.c1, problem.c2, problem.mu
    n_e = ew.size

    def _package(z, alpha, v, modified, dual, gap, iters, converged):
        nz = float(np.linalg.norm(z))
        f = z / nz if nz > 0 else np.zeros(m)
        return InnerSolution(f, objective_value(problem, f), modified, dual,
                             gap, iters, converged, alpha, v)

    # Without coupling through alpha or v the dual point is unique and exact.
    if (n_e == 0 or mu == 0.0) and c1 == 0.0:
        z = np.maximum(-c2, 0.0)
        znorm_sq = float(np.dot(z, z))
        return _package(z, np.zeros(n_e), np.full(m, 1.0 / m),
                        -0.5 * znorm_sq, -0.5 * znorm_sq, 0.0, 0, True)

    if warm is not None and warm[0] is not None and warm[0].size == n_e:
        alpha = np.clip(np.asarray(warm[0], dtype=float), -1.0, 1.0)
        v = np.asarray(warm[1], dtype=float)
    else:
        alpha = np.zeros(n_e)
        v = np.full(m, 1.0 / m)
    L = lipschitz_estimate(problem)
    if L <= 0.0:
        L = 1.0
    inv_step = mu / L
    w2 = 2.0 * ew
    half_mu = 0.5 * mu
    tk = 1.0
    beta_prev = alpha.copy()
    best = None
    iters = 0
    converged = False
    for k in range(1, max_iter + 1):
        iters = k
        if n_e and mu:
            w2a = w2 * alpha
            q = (np.bincount(eu, weights=w2a, minlength=m)
                 - np.bincount(ev, weights=w2a, minlength=m))
            base = -c2 - half_mu * q
        else:
            base = -c2
        if c1 > 0.0:
            v = simplex_project(np.maximum(base / c1, 0.0))
            x = base - c1 * v
        else:
            x = base
        z = np.maximum(x, 0.0)
        if n_e and mu:
            beta = np.clip(alpha + inv_step * ew * (z[eu] - z[ev]), -1.0, 1.0)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            alpha = beta + ((tk - 1.0) / t_next) * (beta - beta_prev)
            beta_prev = beta
            tk = t_next
        else:
            beta = alpha
        if k % check_every == 0 or k == max_iter:
            zc, vc, modified, dual, gap = _certificate(problem, beta, v)
            if best is None or gap < best[0]:
                best = (gap, zc, vc, beta.copy(), modified, dual, k)
            if gap <= tol * max(1.0, abs(dual)):
                converged = True
                break
            if n_e == 0 or mu == 0.0:
                # alpha is inert; the v-minimization above is already exact.
                converged = gap <= tol * max(1.0, abs(dual))
                break
    gap, zc, vc, beta_c, modified, dual, _ = best
    return _package(zc, beta_c, vc, modified, dual, gap, iters, converged)
