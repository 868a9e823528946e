"""Inner convex problem: c1*max(f) + <f, c2> + mu*TV(f) over the unit ball.

The feasible set is {f >= 0, ||f||_2 <= 1} and TV(f) = sum_e w_e |f_u - f_v|.
The problem is solved through its dual

    - min_{ |alpha_e| <= 1, v in simplex }  0.5 || P_+( -c1 v - c2 - (mu/2) A alpha ) ||^2,

where (A alpha)_i = sum_j w_ij (alpha_ij - alpha_ji) with alpha stored once
per undirected edge (the antisymmetry is structural), and P_+ is the
projection onto the nonnegative orthant.  The simplex block v is minimized
out exactly, so the dual is a function of the edge duals alpha alone, and
FISTA takes accelerated projected-gradient steps on alpha, with a step
size per edge.  With p = P_+(-c2 - (mu/2) A alpha), the minimizing v gives
the primal point z = min(p, l) for the water level l with
sum max(p - l, 0) = c1, or z = 0 when sum p <= c1: steps and certificates
take z in this level form, without forming v.  The returned point is formed
from the same p in the projection form z = P_+(p - c1 v), with
v = ``simplex_project``(p / c1); its rounding keeps capped entries distinct
for the threshold sweep, where the level form ties them.  z is the primal
optimum of the modified problem (objective plus 0.5||f||^2), and the
homogeneous problem's solution is z / ||z||_2.

Every few steps a certificate evaluates the primal point z and the dual
value D = -0.5||z||^2 of the current dual iterate.  The homogeneous optimum
is at least -sqrt(-2D), and a solve stops at the first certificate that
settles what the caller asks: the duality gap is below its tolerance; or,
with a stall level eps, sqrt(-2D) <= eps, so no point has objective below
-eps; or, with a descent share rho, z / ||z|| has objective
<= -rho*sqrt(-2D), within the factor rho of the best descent any point can
give.

Every edge dual takes its own step 1/L_e, with L_e = mu^2 w_e (d_u + d_v)
for d the weighted degrees of the problem's graph (see
``lipschitz_estimate``): diagonal preconditioning (Pock & Chambolle, ICCV
2011), which needs no norm estimate, and c1 does not enter it.
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
    """The convex piece c1*max(f) + <f, c2> + mu*TV(f) on a graph.

    f has one entry per vertex of ``graph``, and TV is taken on its edges.
    Each side of a ratio keeps one such piece explicit, and each outer step
    solves the one formed from both sides; ``objective_value`` evaluates it.
    """

    __slots__ = ("c1", "c2", "mu", "graph")

    def __init__(self, c1, c2, mu, graph):
        if c1 < 0:
            raise ValueError("the max-coefficient must be non-negative")
        if mu < 0:
            raise ValueError("the TV coefficient must be non-negative")
        self.c1 = float(c1)
        self.c2 = np.asarray(c2, dtype=float)
        if self.c2.shape != (graph.n,):
            raise ValueError(f"expected {graph.n} linear coefficients")
        self.mu = float(mu)
        self.graph = graph

    @property
    def m(self):
        return self.graph.n


class InnerSolution:
    """Primal/dual outcome of one inner solve."""

    __slots__ = ("f", "value", "dual_value", "gap", "iterations",
                 "converged", "alpha")

    def __init__(self, f, value, dual_value, gap, iterations, converged,
                 alpha):
        self.f = f
        self.value = value                  # homogeneous objective at f
        self.dual_value = dual_value        # concave dual value (lower bound)
        self.gap = gap
        self.iterations = iterations
        self.converged = converged
        self.alpha = alpha


def simplex_project(x):
    """Euclidean projection onto {v >= 0, sum v = 1}.

    Sort-based water filling: v_i = max(x_i - tau, 0) with tau chosen so the
    result sums to one, found in coordinates shifted by max(x): the top entry
    is then always in the support, and no magnitude of x cancels the mass.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot project an empty vector")
    top, shift = _water_level(x, 1.0, np.arange(1.0, x.size + 1.0))
    out = x - top
    out -= shift
    return np.maximum(out, 0.0, out=out)


def _water_level(x, mass, ranks):
    """(top, shift) of the level tau = top + shift with
    sum max(x - tau, 0) = ``mass``, from one sort shifted by top = max(x);
    ``ranks`` is 1, 2, ..., x.size as floats, made once by the caller.  Both
    are Python floats; the work is in place on one sorted copy, so a small x
    costs few numpy calls."""
    u = x.copy()
    u.sort()
    top = u.item(-1)
    d = u[::-1]
    d -= top
    css = d.cumsum()
    css -= mass
    d *= ranks
    rho = (d > css).nonzero()[0].item(-1)
    return top, css.item(rho) / (rho + 1.0)


def objective_value(problem, f):
    """Homogeneous objective c1*max(f) + <f, c2> + mu*TV(f)."""
    f = np.asarray(f, dtype=float)
    total = float(np.dot(problem.c2, f))
    if problem.c1 and f.size:
        total += problem.c1 * float(f.max())
    g = problem.graph
    if problem.mu and g.num_edges:
        total += problem.mu * float(np.dot(
            g.edge_w, np.abs(f[g.edge_u] - f[g.edge_v])))
    return total


def lipschitz_estimate(problem):
    """Per-edge Lipschitz bounds L_e = mu^2 w_e (d_u + d_v) of the dual gradient.

    d is the weighted degree of the problem's graph.  The simplex block
    is minimized out exactly, so with y = -c2 - (mu/2) A alpha the dual
    objective is g(y) where

        g(y) = min_{v in simplex} 0.5 ||P_+(y - c1 v)||^2
             = 0.5 dist^2(y, R_-^m + c1 * simplex),

    half the squared distance to a convex set: 1-smooth, with gradient
    y - proj(y) = z, the primal point.  The chain rule gives the gradient
    -(mu/2) A^T z in alpha, whose Hessian bound (mu^2/4) A^T A has entries
    of size mu^2 w_e w_f between edges e, f that share a vertex.  Its
    absolute row sums are the L_e, so diag(L) - (mu^2/4) A^T A is diagonally
    dominant and diag(L) bounds it by Gershgorin, whatever c1 is.  L is 0
    when mu is 0.  A graph's edge weights are positive, but L_e still
    underflows to 0 on an edge whose mu^2 w_e (d_u + d_v) is below the
    smallest double, as for an isolated edge of weight 1e-170.
    """
    g = problem.graph
    deg = g.degrees
    return (problem.mu * problem.mu) * g.edge_w * (deg[g.edge_u] + deg[g.edge_v])


def _level_map(problem):
    """alpha -> z in level form (module docstring), for steps and certificates.

    The one map from edge duals to the primal side: it forms
    p = P_+(-c2 - (mu/2) A alpha), and with ``capped=False`` returns p
    itself.  The level is ``simplex_project``'s, ``_water_level`` with the
    mass c1.
    """
    m, c1 = problem.m, problem.c1
    g = problem.graph
    eu, ev = g.edge_u, g.edge_v
    coupled = bool(g.num_edges and problem.mu)
    mu_w = problem.mu * g.edge_w
    neg_c2 = -problem.c2
    ranks = np.arange(1.0, m + 1.0)
    bincount, subtract, maximum, minimum = (
        np.bincount, np.subtract, np.maximum, np.minimum)

    def primal(alpha, capped=True):
        if coupled:
            mwa = mu_w * alpha
            p = bincount(eu, mwa, m)
            p -= bincount(ev, mwa, m)
            subtract(neg_c2, p, out=p)
        else:
            p = neg_c2.copy()
        maximum(p, 0.0, out=p)
        if capped and c1 > 0.0:
            top, shift = _water_level(p, c1, ranks)
            level = top + shift
            if level <= 0.0:
                return np.zeros(m)
            minimum(p, level, out=p)
        return p

    return primal


def solve_inner(problem, tol=1e-6, max_iter=20000, warm=None, check_every=5,
                descent=None, stall=None):
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
    previous solve on the same edge structure; one of another length
    raises ValueError.  Each edge dual steps by
    1/L_e with L_e from ``lipschitz_estimate``; an edge whose L_e
    underflows to 0 takes no step.  Steps and certificates take
    z in level form; the returned point is formed once, in projection form
    from the p of the returned dual point, and f, the values and the gap
    are those of that z.
    """
    m = problem.m
    if m == 0:
        raise ValueError("inner problem over zero vertices")
    g = problem.graph
    eu, ev, ew = g.edge_u, g.edge_v, g.edge_w
    mu, n_e, c1 = problem.mu, ew.size, problem.c1
    primal = _level_map(problem)

    def _package(alpha, iters, converged):
        z = primal(alpha, capped=False)
        if c1 > 0.0:
            z -= c1 * simplex_project(z / c1)
            np.maximum(z, 0.0, out=z)
        dual = -0.5 * float(np.dot(z, z))
        obj = objective_value(problem, z)
        nz = float(np.linalg.norm(z))
        # the objective is one-homogeneous: its value at z / ||z|| is obj / ||z||
        f, value = (z / nz, obj / nz) if nz > 0 else (np.zeros(m), 0.0)
        return InnerSolution(f, value, dual, (obj - dual) - dual, iters,
                             converged, alpha)

    if warm is None:
        alpha = np.zeros(n_e)
    elif np.size(warm) == n_e:
        alpha = np.clip(np.asarray(warm, dtype=float), -1.0, 1.0)
    else:
        raise ValueError(f"expected a warm start of {n_e} edge duals")
    # Without coupling through alpha, v is minimized exactly: z is optimal.
    if n_e == 0 or mu == 0.0:
        return _package(alpha, 0, True)
    L = lipschitz_estimate(problem)
    step_w = np.divide(mu * ew, L, out=np.zeros(n_e), where=L > 0.0)
    tk = 1.0
    beta_prev = alpha.copy()
    best_gap, best = math.inf, alpha
    iters = 0
    converged = False
    # the ufuncs of a step, bound once: at a few dozen edges a step costs
    # what its numpy calls cost
    subtract, maximum, minimum, sqrt = (
        np.subtract, np.maximum, np.minimum, math.sqrt)
    for k in range(1, max_iter + 1):
        iters = k
        z = primal(alpha)
        # beta = clip(alpha + (mu w / L) (z_u - z_v), -1, 1), in place
        beta = z[eu]
        beta -= z[ev]
        beta *= step_w
        beta += alpha
        maximum(beta, -1.0, out=beta)
        minimum(beta, 1.0, out=beta)
        t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * tk * tk))
        alpha = subtract(beta, beta_prev)
        alpha *= (tk - 1.0) / t_next
        alpha += beta
        beta_prev = beta
        tk = t_next
        if k % check_every == 0 or k == max_iter:
            # Certificate at the feasible point beta: v is minimized exactly,
            # so it holds between momentum steps too.
            z = primal(beta)
            dual = -0.5 * float(z.dot(z))
            modified = objective_value(problem, z) - dual
            gap = modified - dual
            if stall is not None and -2.0 * dual <= stall * stall:
                return _package(beta, k, True)
            if descent is not None and dual < 0.0:
                # phi(z/||z||) = (modified - 0.5||z||^2)/||z||, ||z|| = sqrt(-2D)
                znorm = math.sqrt(-2.0 * dual)
                if (modified + dual) / znorm <= -descent * znorm:
                    return _package(beta, k, True)
            if gap < best_gap:
                best_gap, best = gap, beta
            if gap <= tol * max(1.0, abs(dual)):
                converged = True
                break
    return _package(best, iters, converged)
