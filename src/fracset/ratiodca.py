"""Descent solver for constrained ratios of one-homogeneous d.c. functions.

The outer loop linearizes the concave parts of numerator and denominator at
the current iterate and solves one inner convex problem per step over the
nonnegative part of the unit ball:

    min_u  R1(u) - <u, r2(f)> + lam * ( S2(u) - <u, s1(f)> ),

where lam is the current ratio.  The ratio strictly decreases until the
inner optimum reaches zero.  The final vector is turned into a set by
optimal thresholding of the penalized set ratio; constraint feasibility is
then enforced by geometrically increasing the penalty weight gamma, capped
at a sufficient bound computed from the best feasible set seen, at which
point the thresholded result is guaranteed feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import GammaSchedule, SuffixFeasibility, gamma_sufficient, theta_of
from .graph import as_index_array
from .inner import InnerProblem, objective_value, solve_inner
from .lovasz import NoFeasibleThreshold, SetFunctionDC, optimal_threshold

__all__ = [
    "ConstrainedRatioProblem",
    "DescentViolation",
    "InfeasibleProblem",
    "Solution",
    "SolverConfig",
    "extension_values",
    "ratio_dca",
    "ratio_dca_multistart",
    "solve_with_gamma_schedule",
]


class InfeasibleProblem(RuntimeError):
    """The constraint configuration admits no usable set."""


class DescentViolation(RuntimeError):
    """The ratio increased across an outer step (inner tolerance too loose)."""


@dataclass
class SolverConfig:
    """Outer/inner tolerances, multistart, RNG, and penalty schedule."""

    outer_tol: float = 1e-4
    inner_tol: float = 1e-6
    max_outer: int = 100
    inner_max_iter: int = 20000
    inner_check_every: int = 5
    plateau_tol: float = 1e-10
    initializations: int = 10
    seed: int = 0
    gamma: GammaSchedule = field(default_factory=GammaSchedule)

    def __post_init__(self):
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.initializations < 1:
            raise ValueError("at least one initialization is required")


@dataclass
class Solution:
    """Result of one solve: continuous vector, thresholded set, and diagnostics."""

    f: np.ndarray
    set_ids: np.ndarray
    lam: float                # continuous penalized ratio at f
    value: float              # unpenalized set ratio of set_ids
    penalized_value: float
    feasible: tuple
    gamma: float
    trace: tuple
    init_id: int
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class ConstrainedRatioProblem:
    """A (possibly seed-reduced) constrained set-ratio in d.c. form.

    Continuous data lives on the active vertices (the complement of the seed
    block); set-level evaluators map any reduced set A back to the full-graph
    set A u seed.  ``numerator`` and ``denominator`` are SetFunctionDC whose
    set functions are sweepable reduced evaluators of the penalized ratio.
    ``seed_offsets[i]`` is the volume the seed block contributes to
    ``constraints[i]``.
    """

    graph: object
    seed_ids: np.ndarray
    active_ids: np.ndarray
    numerator: SetFunctionDC
    denominator: SetFunctionDC
    constraints: tuple
    seed_offsets: tuple
    gamma: float
    unpenalized_numerator: object
    denominator_full: object
    denominator_max: float

    @property
    def m(self):
        return int(self.active_ids.size)

    def expand(self, positions):
        """Active-vertex positions -> sorted full-graph ids including the seed."""
        ids = self.active_ids[np.asarray(positions, dtype=np.int64)]
        return np.sort(np.concatenate([self.seed_ids, ids]))

    def indicator(self, subset):
        """Indicator over active positions of a full-graph set minus the seed."""
        idx = as_index_array(subset, self.graph.n)
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[idx] = True
        return mask[self.active_ids].astype(float)

    def penalty_total(self, subset):
        return sum(c.violation(subset) for c in self.constraints)

    def unpenalized_value(self, subset):
        den = self.denominator_full(subset)
        if den <= 0:
            return math.inf
        return self.unpenalized_numerator(subset) / den

    def penalized_value(self, subset):
        den = self.denominator_full(subset)
        if den <= 0:
            return math.inf
        num = self.unpenalized_numerator(subset)
        return (num + self.gamma * self.penalty_total(subset)) / den

    def feasibility(self, subset):
        return tuple(c.satisfied(subset) for c in self.constraints)

    def set_solution(self, C, f, init_id):
        """Solution that is the fixed set C, reported with the vector f."""
        pen = self.penalized_value(C)
        return Solution(
            f=f, set_ids=C, lam=pen, value=self.unpenalized_value(C),
            penalized_value=pen, feasible=self.feasibility(C),
            gamma=self.gamma, trace=(), init_id=init_id, iterations=0,
            converged=True)

    def seed_solution(self, init_id=-1):
        """Solution for the bare seed set, or None when its ratio is undefined."""
        C = self.seed_ids
        if C.size == 0 or self.denominator_full(C) <= 0:
            return None
        return self.set_solution(C.copy(), np.zeros(self.m), init_id)

    def reduced_feasibility(self):
        """Sweepable feasibility predicate over reduced (active-position) sets."""
        return SuffixFeasibility(
            (c.weights[self.active_ids], off, c.bound, c.upper)
            for c, off in zip(self.constraints, self.seed_offsets))


def extension_values(problem, f):
    """Exact continuous numerator and denominator extension values at f."""
    r2v = problem.numerator.linearized(f)
    s1v = problem.denominator.linearized(f)
    r = objective_value(problem.numerator.kept, f) - float(np.dot(f, r2v))
    s = float(np.dot(f, s1v)) - objective_value(problem.denominator.kept, f)
    return r, s


def continuous_ratio(problem, f):
    r, s = extension_values(problem, f)
    if s <= 0:
        return math.inf
    return r / s


def _threshold_and_finish(problem, f, lam, trace, init_id, converged):
    try:
        sweep = optimal_threshold(f, problem.numerator.set_function,
                                  problem.denominator.set_function)
        best_set = problem.expand(sweep.best_set)
        best_pen = problem.penalized_value(best_set)
    except ValueError:
        best_set, best_pen = None, math.inf
    seed_sol = problem.seed_solution(init_id)
    if seed_sol is not None and seed_sol.penalized_value <= best_pen:
        best_set, best_pen = seed_sol.set_ids, seed_sol.penalized_value
    if best_set is None:
        raise InfeasibleProblem("no candidate set with positive denominator")
    return Solution(
        f=f, set_ids=best_set, lam=lam, value=problem.unpenalized_value(best_set),
        penalized_value=best_pen, feasible=problem.feasibility(best_set),
        gamma=problem.gamma, trace=tuple(trace), init_id=init_id,
        iterations=len(trace) - 1, converged=converged)


def _whole_seed(problem, init_id):
    """Answer when the seed covers every vertex: the seed set itself."""
    sol = problem.seed_solution(init_id)
    if sol is None:
        raise InfeasibleProblem(
            "the seed covers the whole graph but its ratio is undefined")
    return sol


def ratio_dca(problem, f0, cfg=None, init_id=0):
    """Monotone-descent minimization of the penalized continuous ratio.

    Starting from a nonnegative nonzero f0, repeatedly solves the linearized
    inner problem; the ratio trace is strictly decreasing (a plateau or a
    zero inner optimum terminates).  The returned set comes from optimal
    thresholding of the final iterate, compared against the bare seed set.
    """
    cfg = cfg or SolverConfig()
    if problem.m == 0:
        return _whole_seed(problem, init_id)
    f = np.maximum(np.asarray(f0, dtype=float), 0.0).copy()
    if f.shape != (problem.m,):
        raise ValueError(f"expected a start vector of length {problem.m}")
    nrm = float(np.linalg.norm(f))
    if nrm <= 0:
        raise ValueError("start vector must be nonnegative and nonzero")
    f /= nrm
    r, s = extension_values(problem, f)
    if s <= 0:
        raise ValueError("start vector has a nonpositive denominator extension")
    lam = r / s
    trace = [lam]
    warm = None
    num, den = problem.numerator, problem.denominator
    rk, sk = num.kept, den.kept
    converged = False
    for _ in range(cfg.max_outer):
        r2v = num.linearized(f)
        s1v = den.linearized(f)
        step = InnerProblem(rk.c1 + lam * sk.c1,
                            rk.c2 - r2v + lam * (sk.c2 - s1v),
                            rk.mu + lam * sk.mu, rk.edge_u, rk.edge_v, rk.edge_w)
        inner = solve_inner(step, tol=cfg.inner_tol, max_iter=cfg.inner_max_iter,
                            warm=warm, check_every=cfg.inner_check_every)
        warm = (inner.alpha, inner.v)
        if inner.value >= -cfg.plateau_tol:
            converged = True
            break
        r_new, s_new = extension_values(problem, inner.f)
        if s_new <= 0:
            converged = True
            break
        lam_new = r_new / s_new
        if lam_new >= lam:
            if lam_new > lam * (1.0 + 1e-6) + 1e-12:
                raise DescentViolation(
                    f"ratio increased from {lam:.12g} to {lam_new:.12g}; "
                    "inner tolerance too loose")
            converged = True
            break
        drop = (lam - lam_new) / max(lam, 1e-300)
        f = inner.f
        lam = lam_new
        trace.append(lam_new)
        if drop < cfg.outer_tol:
            converged = True
            break
    return _threshold_and_finish(problem, f, lam, trace, init_id, converged)


def ratio_dca_multistart(problem, cfg=None, warm_starts=()):
    """Best-of-k solve: k i.i.d. uniform starts plus caller-supplied vectors.

    The winner has the smallest penalized set value; ties go to the lowest
    start index.  A warm start that is zero on all active vertices stands for
    the bare seed set and contributes it as a candidate directly.
    """
    cfg = cfg or SolverConfig()
    if problem.m == 0:
        return _whole_seed(problem, 0)
    starts = []
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.initializations)):
        starts.append((i, np.random.default_rng(child).random(problem.m)))
    for j, w in enumerate(warm_starts):
        starts.append((cfg.initializations + j, np.asarray(w, dtype=float)))

    def run(item):
        idx, f0 = item
        if not np.any(f0 > 0):
            sol = problem.seed_solution(idx)
            if sol is None:
                raise ValueError("empty warm start and no usable seed set")
            return sol
        return ratio_dca(problem, f0, cfg, init_id=idx)

    results, errors = [], []
    for item in starts:
        try:
            results.append(run(item))
        except DescentViolation:
            raise
        except Exception as exc:  # noqa: BLE001 - collected, re-raised below
            errors.append(exc)
    if not results:
        raise errors[0]
    results.sort(key=lambda sol: (sol.penalized_value, sol.init_id))
    return results[0]


def solve_with_gamma_schedule(builder, cfg=None, warm_starts=()):
    """Solve unconstrained first, then raise gamma until the set is feasible.

    ``builder(gamma)`` must return the problem with that penalty weight.  The
    schedule doubles gamma from max(floor, unconstrained ratio), capped at the
    sufficient bound computed from the best feasible set seen so far; at the
    cap that set's indicator is added as a warm start, which guarantees a
    feasible outcome.  Raises InfeasibleProblem when no feasible set is ever
    found.
    """
    cfg = cfg or SolverConfig()
    problem0 = builder(0.0)
    schedule = cfg.gamma
    theta = theta_of(problem0.constraints) if problem0.constraints else math.inf
    best_feasible = None

    def consider(subset):
        nonlocal best_feasible
        if subset is None:
            return
        subset = np.asarray(subset, dtype=np.int64)
        if subset.size == 0:
            return
        if not all(c.satisfied(subset) for c in problem0.constraints):
            return
        den = problem0.denominator_full(subset)
        if den <= 0:
            return
        num = problem0.unpenalized_numerator(subset)
        if best_feasible is None or num / den < best_feasible["value"]:
            best_feasible = {"set": subset, "value": num / den,
                             "num": num, "den": den}

    def harvest(problem, result):
        consider(result.set_ids)
        if problem.constraints and result.f is not None and result.f.size:
            try:
                sweep = optimal_threshold(
                    result.f, problem.numerator.set_function,
                    problem.denominator.set_function,
                    feasibility=problem.reduced_feasibility())
                consider(problem.expand(sweep.best_set))
            except (NoFeasibleThreshold, ValueError):
                pass

    consider(problem0.seed_ids)
    consider(np.arange(problem0.graph.n))
    result = ratio_dca_multistart(problem0, cfg, warm_starts)
    harvest(problem0, result)
    if all(result.feasible):
        return result

    gamma = schedule.first(result.value if math.isfinite(result.value) else 0.0)
    prev_f = result.f
    for _ in range(schedule.max_steps):
        cap = math.inf
        if best_feasible is not None and math.isfinite(theta):
            cap = gamma_sufficient(best_feasible["num"], best_feasible["den"],
                                   problem0.denominator_max, theta,
                                   schedule.margin)
        at_cap = gamma >= cap
        if at_cap:
            gamma = cap
        problem = builder(gamma)
        extra = list(warm_starts)
        if prev_f is not None and prev_f.size:
            extra.append(prev_f)
        if at_cap and best_feasible is not None:
            extra.append(problem.indicator(best_feasible["set"]))
        result = ratio_dca_multistart(problem, cfg, tuple(extra))
        harvest(problem, result)
        if all(result.feasible):
            return result
        prev_f = result.f
        if at_cap:
            if best_feasible is not None:
                # Numerical safety net: the best feasible set seen is itself
                # a valid answer at this gamma.
                C = best_feasible["set"]
                return problem.set_solution(C, problem.indicator(C), -1)
            break
        gamma = schedule.next(gamma)
    raise InfeasibleProblem("no feasible set found at any penalty weight")
