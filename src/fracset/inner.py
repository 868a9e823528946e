"""Inner convex problem: c1*max(f) + <f, c2> + mu*TV(f) over the unit ball.

The feasible set is {f >= 0, ||f||_2 <= 1} and TV(f) = sum_e w_e |f_u - f_v|.
The problem is solved through its dual

    - min_{ |alpha_e| <= 1, v in simplex }  0.5 || P_+( -c1 v - c2 - (mu/2) A alpha ) ||^2,

where (A alpha)_i = sum_j w_ij (alpha_ij - alpha_ji) with alpha stored once
per undirected edge (the antisymmetry is structural), and P_+ is the
projection onto the nonnegative orthant.  The simplex block v is minimized
out exactly by a simplex projection, so the dual is a function of the edge
duals alpha alone, and FISTA takes accelerated projected-gradient steps on
alpha with step size 1/L.  The primal optimum of the modified problem
(objective plus 0.5||f||^2) is recovered as z = P_+(...), and the
homogeneous problem's solution is z / ||z||_2.

Every few steps a certificate evaluates the primal point z and the dual
value D = -0.5||z||^2 of the current dual iterate.  The homogeneous optimum
is at least -sqrt(-2D), and a solve stops at the first certificate that
settles what the caller asks: the duality gap is below its tolerance; or,
with a stall level eps, sqrt(-2D) <= eps, so no point has objective below
-eps; or, with a descent share rho, z / ||z|| has objective
<= -rho*sqrt(-2D), within the factor rho of the best descent any point can
give.

L = 1.1*(mu^2/4) sigma^2(A), where sigma^2(A) depends on the edges only and
c1 does not enter (see ``lipschitz_bound``).  ``edge_norm_sq`` computes
sigma^2(A) once for an edge set, and every problem on those edges can then
reuse it instead of repeating the power iteration.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "InnerProblem",
    "InnerSolution",
    "edge_norm_sq",
    "lipschitz_bound",
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
    result sums to one, found in coordinates shifted by max(x): the top entry
    is then always in the support, and no magnitude of x cancels the mass.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(x)
    top = u[-1]
    u = (u - top)[::-1]
    css = u.cumsum()
    css -= 1.0
    rho = (u * _ranks(x.size) > css).nonzero()[0][-1]
    out = x - top
    out -= css[rho] / (rho + 1.0)
    return np.maximum(out, 0.0, out=out)


@functools.lru_cache(maxsize=64)
def _ranks(n):
    """1, 2, ..., n as floats, shared read-only by every projection of size n."""
    ks = np.arange(1.0, n + 1.0)
    ks.flags.writeable = False
    return ks


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


def lipschitz_bound(problem, sigma_sq, safety=1.1):
    """Lipschitz constant of the dual gradient in the edge duals alpha.

    The simplex block is minimized out exactly, so with
    y = -c2 - (mu/2) A alpha the dual objective is g(y) where

        g(y) = min_{v in simplex} 0.5 ||P_+(y - c1 v)||^2
             = 0.5 dist^2(y, R_-^m + c1 * simplex),

    half the squared distance to a convex set: 1-smooth, with gradient
    y - proj(y) = z, the primal point.  The chain rule gives the gradient
    -(mu/2) A^T z in alpha, which is therefore (mu^2/4) sigma^2(A)-Lipschitz
    whatever c1 is.  The safety factor covers a sigma^2(A) from power
    iteration, which can only underestimate.
    """
    mu = problem.mu
    return safety * (0.25 * mu * mu * sigma_sq)


def lipschitz_estimate(problem, safety=1.1):
    """Upper bound on the Lipschitz constant of the dual gradient.

    Power iteration on A A^T gives sigma^2(A), which ``lipschitz_bound``
    turns into L = safety * (mu^2/4) sigma^2(A): with the simplex block
    minimized out, the dual is 0.5 dist^2(y, R_-^m + c1 * simplex) at
    y = -c2 - (mu/2) A alpha, which is 1-smooth in y, so c1 does not enter
    and the estimate is 0 when mu is 0.

    The start is pseudo-random because a smooth start can miss the top
    eigenvector: a ramp has no share of it on a two-edge path, where 30
    steps from a ramp read sigma^2 as 4 instead of 12.  From a start whose
    share of the top eigenvector is c, k steps read at least c^(1/k)
    sigma^2, so 100 steps stay within the 1.1 safety factor unless
    c < 1e-4.
    """
    m = problem.m
    if m == 0:
        return 0.0
    eu, ev, ew = problem.edge_u, problem.edge_v, problem.edge_w
    sigma_sq = 0.0
    if ew.size and problem.mu:
        w2 = 2.0 * ew
        # Deterministic, symmetry-breaking start.
        y = np.random.default_rng(0).standard_normal(m)
        y /= np.linalg.norm(y)
        for _ in range(100):
            t = w2 * (y[eu] - y[ev])                   # A^T y per edge
            y_new = (np.bincount(eu, weights=w2 * t, minlength=m)
                     - np.bincount(ev, weights=w2 * t, minlength=m))
            norm = np.linalg.norm(y_new)
            if norm <= 0.0:
                break
            sigma_sq = norm
            y = y_new / norm
    return lipschitz_bound(problem, sigma_sq, safety)


def edge_norm_sq(problem):
    """sigma^2(A) of the problem's edges: one value for every problem on them.

    It is the Lipschitz constant, without safety factor, of the pure-TV
    problem with mu = 2 and c1 = 0, so ``lipschitz_estimate`` computes it.
    """
    probe = InnerProblem(0.0, np.zeros(problem.m), 2.0, problem.edge_u,
                         problem.edge_v, problem.edge_w)
    return lipschitz_estimate(probe, safety=1.0)


def _primal_map(problem):
    """The dual-to-primal map of a problem: alpha -> (v, z).

    At the edge duals alpha the simplex block v is minimized exactly (any
    point of the simplex is a minimizer when c1 = 0, and the uniform one is
    returned), and z = P_+(-c2 - (mu/2) A alpha - c1 v).
    """
    m, c1 = problem.m, problem.c1
    eu, ev, ew = problem.edge_u, problem.edge_v, problem.edge_w
    coupled = bool(ew.size and problem.mu)
    w2 = 2.0 * ew
    half_mu = 0.5 * problem.mu
    neg_c2 = -problem.c2
    uniform = np.full(m, 1.0 / m)

    def primal(alpha):
        if coupled:
            w2a = w2 * alpha
            q = np.bincount(eu, weights=w2a, minlength=m)
            q -= np.bincount(ev, weights=w2a, minlength=m)
            q *= half_mu
            base = neg_c2 - q
        else:
            base = neg_c2
        if c1 > 0.0:
            x = base / c1
            v = simplex_project(np.maximum(x, 0.0, out=x))
            x = c1 * v
            np.subtract(base, x, out=x)
            return v, np.maximum(x, 0.0, out=x)
        return uniform, np.maximum(base, 0.0)

    return primal


def _certificate(problem, primal, alpha):
    """Primal/dual values at a feasible dual point.

    Returns (z, v, modified_primal, dual_value, gap), with ``primal`` the
    problem's ``_primal_map``.  ``alpha`` must be inside the unit box; the
    simplex block is minimized exactly, so the certificate is valid even
    between momentum steps.
    """
    v, z = primal(alpha)
    znorm_sq = float(np.dot(z, z))
    modified = objective_value(problem, z) + 0.5 * znorm_sq
    dual = -0.5 * znorm_sq
    return z, v, modified, dual, modified - dual


def solve_inner(problem, tol=1e-6, max_iter=20000, warm=None, check_every=5,
                descent=None, edge_sigma_sq=None, stall=None):
    """Minimize the inner objective over the nonnegative part of the unit ball.

    Every ``check_every`` steps a certificate gives the primal point z and the
    dual value D; the homogeneous optimum is at least -sqrt(-2D).  The solve
    stops when the duality gap of the modified problem drops below
    tol * max(1, |D|), or at ``max_iter`` (returning the best certified
    iterate, flagged non-converged).  It also stops, converged, at the first
    certificate with -2D <= ``stall``^2, when a stall level is given: then no
    point has objective below -stall, and the returned point need not be
    optimal.  With ``descent`` = rho in (0, 1] it stops, converged, at the
    first certificate whose point z/||z|| has objective <= -rho * sqrt(-2D),
    at least the share rho of the best possible descent.  The stall test
    comes first.  ``warm`` is an optional edge-dual vector alpha from a
    previous solve on the same edge structure.  ``edge_sigma_sq`` is
    ``edge_norm_sq`` of the problem's edges, when the caller has it; without
    it the solve runs ``lipschitz_estimate``.
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

    if warm is not None and np.size(warm) == n_e:
        alpha = np.clip(np.asarray(warm, dtype=float), -1.0, 1.0)
    else:
        alpha = np.zeros(n_e)
    if edge_sigma_sq is None:
        L = lipschitz_estimate(problem)
    else:
        L = lipschitz_bound(problem, edge_sigma_sq)
    if L <= 0.0:
        L = 1.0
    coupled = bool(n_e and mu)
    step_w = (mu / L) * ew
    primal = _primal_map(problem)
    tk = 1.0
    beta_prev = alpha.copy()
    best = None
    iters = 0
    converged = False
    for k in range(1, max_iter + 1):
        iters = k
        _, z = primal(alpha)
        if coupled:
            # beta = clip(alpha + (mu/L) w (z_u - z_v), -1, 1), in place
            beta = z[eu]
            beta -= z[ev]
            beta *= step_w
            beta += alpha
            np.maximum(beta, -1.0, out=beta)
            np.minimum(beta, 1.0, out=beta)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            alpha = beta - beta_prev
            alpha *= (tk - 1.0) / t_next
            alpha += beta
            beta_prev = beta
            tk = t_next
        else:
            beta = alpha
        if k % check_every == 0 or k == max_iter:
            zc, vc, modified, dual, gap = _certificate(problem, primal, beta)
            if stall is not None and -2.0 * dual <= stall * stall:
                return _package(zc, beta, vc, modified, dual, gap, k, True)
            if descent is not None and dual < 0.0:
                # phi(z/||z||) = (modified - 0.5||z||^2)/||z||, ||z|| = sqrt(-2D)
                znorm = math.sqrt(-2.0 * dual)
                if (modified + dual) / znorm <= -descent * znorm:
                    return _package(zc, beta, vc, modified, dual, gap, k, True)
            if best is None or gap < best[0]:
                best = (gap, zc, vc, beta, modified, dual)
            if gap <= tol * max(1.0, abs(dual)):
                converged = True
                break
            if not coupled:
                # alpha is inert; the v-minimization above is already exact.
                break
    gap, zc, vc, beta_c, modified, dual = best
    return _package(zc, beta_c, vc, modified, dual, gap, iters, converged)
