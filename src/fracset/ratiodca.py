"""Descent solver for constrained ratios of one-homogeneous d.c. functions.

The outer loop linearizes the concave parts of numerator and denominator at
the current iterate and solves one inner convex problem per step over the
nonnegative part of the unit ball:

    min_u  R1(u) - <u, r2(f)> + lam * ( S2(u) - <u, s1(f)> ),

where lam is the current ratio.  Any u with a negative inner objective
lowers the ratio, so each inner solve stops once it certifies sufficient
descent (``SUFFICIENT_DESCENT``) instead of running to the inner optimum.
It also stops once it certifies a stall: the inner objective Phi bounds the
ratio's model, R(u) - lam S(u) <= Phi(u), and when no point has
Phi < -OUTER_TOL * R(f), no step promises a relative drop of OUTER_TOL
measured at S(f) (the true ratio may still drop more than Phi promises).
The loop then ends without a step, as it does at a plateau or at a drop
below OUTER_TOL, so the ratio strictly decreases along the trace.  The
final vector is turned into a set by optimal thresholding of the penalized
set ratio; constraint feasibility is then enforced by raising the penalty
weight gamma, capped at a sufficient bound computed from the best feasible
set seen, at which point the thresholded result is guaranteed feasible.
After every infeasible round, the unpenalized one included, gamma jumps to
at least a share of the winner's break-even weight, computed from set
values alone: above it, the winner's penalized ratio exceeds that of the
best feasible set (the exact-penalty argument applied to one set); each
penalized round also at least doubles gamma.  Once a feasible set has been
seen, its indicator warm-starts every later round, and every round draws
its own random starts.

The tolerances, iteration caps and the schedule are module constants here
and ``solve_inner``'s defaults, the same for every solve; ``SolverConfig``
holds only what callers choose: the number of random starts and their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constraints import AllOf, gamma_sufficient, theta_of
from .graph import as_index_array
from .inner import InnerProblem, objective_value, solve_inner
from .lovasz import (NoFeasibleThreshold, SetFunctionDC, WeightedSum,
                     optimal_threshold)

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


# Share rho of the certified best descent at which an outer step's inner
# solve stops (see ``solve_inner``).
SUFFICIENT_DESCENT = 0.9
# Outer loop: stop at a relative ratio drop below OUTER_TOL, an inner value
# above -PLATEAU_TOL, or after MAX_OUTER steps.
OUTER_TOL = 1e-4
PLATEAU_TOL = 1e-10
MAX_OUTER = 100
# Gamma starts at GAMMA_FLOOR or more and at least doubles for at most
# GAMMA_ROUNDS.
GAMMA_FLOOR = 1e-3
GAMMA_ROUNDS = 60
# After an infeasible round, gamma jumps to at least GAMMA_JUMP times the
# winner's break-even weight: two doublings short of it, so the rounds just
# below the weight where the winner stops competing still run.
GAMMA_JUMP = 0.25


class InfeasibleProblem(RuntimeError):
    """The constraint configuration admits no usable set."""


class DescentViolation(RuntimeError):
    """The ratio increased across an outer step (inner tolerance too loose)."""


@dataclass
class SolverConfig:
    """Multistart: the number of random starts and the seed they are drawn
    from; every gamma round draws its own (see ``ratio_dca_multistart``)."""

    initializations: int = 10
    seed: int = 0

    def __post_init__(self):
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
    """A seed-reduced constrained set-ratio in d.c. form.

    Every set is A u seed, with A given as positions among the active
    vertices (the complement of the seed block); ``expand`` maps A to
    full-graph ids.  ``objective`` and ``denominator`` are SetFunctionDC whose
    set functions are sweepable reduced evaluators of the unpenalized ratio,
    zero on the empty A; ``seed_numerator`` and ``seed_denominator`` are the
    ratio's two sides at the bare seed (A empty).  ``score`` is the one
    set-level evaluator built from these.  ``reduced_constraints[i]`` is
    ``constraints[i]`` on the active vertices, with the seed block's volume as
    its offset.  ``edge_sigma_sq`` is sigma^2(A) of the active graph's edges.
    Only ``gamma`` depends on the penalty weight, so each gamma round uses
    ``with_gamma`` on one problem.
    """

    graph: object
    seed_ids: np.ndarray
    active_ids: np.ndarray
    objective: SetFunctionDC
    denominator: SetFunctionDC
    constraints: tuple
    reduced_constraints: tuple
    seed_numerator: float
    seed_denominator: float
    denominator_max: float
    edge_sigma_sq: float
    gamma: float = 0.0

    @property
    def m(self):
        return int(self.active_ids.size)

    def with_gamma(self, gamma):
        """The same problem with penalty weight gamma."""
        return replace(self, gamma=float(gamma))

    @cached_property
    def numerator(self):
        """objective + gamma * penalties in d.c. form.

        Each penalty splits as vol_h (upper bound) or cap*[A nonempty]
        (lower bound), minus min(cap, vol_h): the first part joins the
        objective's kept piece, the truncated volume is linearized on top of
        the objective's linearization.  A lower bound the seed already meets
        (cap 0) has a zero penalty and is left out; with no penalty left the
        numerator is the objective itself.
        """
        gamma = self.gamma
        penalties = [c for c in self.reduced_constraints
                     if gamma > 0 and (c.upper or c.cap > 0)]
        if not penalties:
            return self.objective
        k = self.objective.kept
        linear, fmax = k.c2, k.c1
        terms = [(1.0, self.objective.set_function)]
        for c in penalties:
            if c.upper:
                linear = linear + gamma * c.weights
            else:
                fmax += gamma * c.cap
            terms.append((gamma, c))

        def linearized(f):
            t = np.zeros(self.m)
            for c in penalties:
                t += c.subgradient(f)
            return self.objective.linearized(f) + gamma * t

        kept = InnerProblem(fmax, linear, k.mu, k.edge_u, k.edge_v, k.edge_w)
        return SetFunctionDC(WeightedSum(terms), kept, linearized)

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

    def score(self, positions):
        """Unpenalized numerator, denominator and per-constraint violations
        of the set A u seed, for A the given active positions."""
        A = np.asarray(positions, dtype=np.int64)
        if A.size:
            num = self.objective.set_function.value(A)
            den = self.denominator.set_function.value(A)
        else:
            num, den = self.seed_numerator, self.seed_denominator
        C = self.expand(A)
        return num, den, tuple(c.violation(C) for c in self.constraints)

    def set_solution(self, positions, f, init_id, trace=(), converged=True):
        """Solution that is the set A u seed, reported with the vector f.

        ``lam`` is the last ratio of ``trace``, or the set's own penalized
        value for a fixed set without one.  A set whose denominator is not
        positive has an undefined ratio, reported as inf.
        """
        num, den, violations = self.score(positions)
        value = pen = math.inf
        if den > 0:
            value = num / den
            pen = (num + self.gamma * sum(violations)) / den
        return Solution(
            f=f, set_ids=self.expand(positions), lam=trace[-1] if trace else pen,
            value=value, penalized_value=pen,
            feasible=tuple(v <= 0 for v in violations), gamma=self.gamma,
            trace=tuple(trace), init_id=init_id,
            iterations=max(len(trace) - 1, 0), converged=converged)


# No active positions: the set is the bare seed.
_BARE_SEED = np.empty(0, dtype=np.int64)


def _extension(problem, f):
    """Extension values at f and the linearized subgradients they use."""
    r2v = problem.numerator.linearized(f)
    s1v = problem.denominator.linearized(f)
    r = objective_value(problem.numerator.kept, f) - float(np.dot(f, r2v))
    s = float(np.dot(f, s1v)) - objective_value(problem.denominator.kept, f)
    return r, s, r2v, s1v


def extension_values(problem, f):
    """Exact continuous numerator and denominator extension values at f."""
    return _extension(problem, f)[:2]


def continuous_ratio(problem, f):
    r, s = extension_values(problem, f)
    if s <= 0:
        return math.inf
    return r / s


def _best_set(problem, candidates, f, init_id, trace=(), converged=True):
    """Solution for the best of the bare seed and the candidate position sets.

    Sets compare by penalized value, and the bare seed comes first, so ties
    go to it.  Raises InfeasibleProblem when no set has a defined ratio.
    """
    best = min((problem.set_solution(A, f, init_id, trace, converged)
                for A in (_BARE_SEED, *candidates)),
               key=lambda sol: sol.penalized_value)
    if math.isinf(best.penalized_value):
        raise InfeasibleProblem("no candidate set with positive denominator")
    return best


def ratio_dca(problem, f0, init_id=0):
    """Monotone-descent minimization of the penalized continuous ratio.

    Starting from a nonnegative nonzero f0, repeatedly solves the linearized
    inner problem; the ratio trace is strictly decreasing (a plateau, a zero
    inner optimum or an inner stall, where no step promises a relative drop
    of OUTER_TOL, terminates without a step).  The returned set comes from
    optimal thresholding of the final iterate, compared against the bare
    seed set.
    A start whose denominator extension is not positive gives no ratio to
    descend from, and returns the bare seed set.  The outer tolerances are
    the module constants; the inner solves use ``solve_inner``'s defaults.
    """
    f = np.maximum(np.asarray(f0, dtype=float), 0.0).copy()
    if f.shape != (problem.m,):
        raise ValueError(f"expected a start vector of length {problem.m}")
    nrm = float(np.linalg.norm(f))
    if nrm <= 0:
        raise ValueError("start vector must be nonnegative and nonzero")
    f /= nrm
    r, s, r2v, s1v = _extension(problem, f)
    if s <= 0:
        return _best_set(problem, (), f, init_id)
    lam = r / s
    trace = [lam]
    warm = None
    rk, sk = problem.numerator.kept, problem.denominator.kept
    sigma_sq = problem.edge_sigma_sq
    converged = False
    for _ in range(MAX_OUTER):
        step = InnerProblem(rk.c1 + lam * sk.c1,
                            rk.c2 - r2v + lam * (sk.c2 - s1v),
                            rk.mu + lam * sk.mu, rk.edge_u, rk.edge_v, rk.edge_w)
        stall = OUTER_TOL * r
        inner = solve_inner(step, warm=warm, descent=SUFFICIENT_DESCENT,
                            edge_sigma_sq=sigma_sq, stall=stall)
        warm = inner.alpha
        # A plateau, or a stall: no point promises a relative drop of
        # OUTER_TOL, since the inner value is at least -sqrt(-2D).
        if (inner.value >= -PLATEAU_TOL
                or -2.0 * inner.dual_value <= stall * stall):
            converged = True
            break
        r_new, s_new, r2v, s1v = _extension(problem, inner.f)
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
        r, lam = r_new, lam_new
        trace.append(lam_new)
        if drop < OUTER_TOL:
            converged = True
            break
    try:
        sweep = optimal_threshold(f, problem.numerator.set_function,
                                  problem.denominator.set_function)
        candidates = (sweep.best_set,)
    except ValueError:
        candidates = ()
    return _best_set(problem, candidates, f, init_id, trace, converged)


def ratio_dca_multistart(problem, cfg=None, warm_starts=(), round_index=0):
    """Best-of-k solve: k i.i.d. uniform starts plus caller-supplied vectors.

    The random starts come from SeedSequence(cfg.seed) in round 0 and from
    SeedSequence([cfg.seed, round_index]) in a later gamma round, so every
    round of a schedule draws fresh starts and a solve repeats exactly.  The
    winner has the smallest penalized set value; ties go to the lowest
    start index.  A start with no positive entry (every start when m == 0)
    stands for the bare seed set and contributes it as a candidate directly.
    A start that fails as ``ratio_dca`` may by design (ValueError,
    InfeasibleProblem) is dropped; when every start fails, the first error is
    raised.  Any other error, ``DescentViolation`` included, propagates.
    """
    cfg = cfg or SolverConfig()
    entropy = [cfg.seed, round_index] if round_index else cfg.seed
    starts = [np.random.default_rng(child).random(problem.m) for child in
              np.random.SeedSequence(entropy).spawn(cfg.initializations)]
    starts += [np.asarray(w, dtype=float) for w in warm_starts]
    results, errors = [], []
    for idx, f0 in enumerate(starts):
        try:
            if np.any(f0 > 0):
                results.append(ratio_dca(problem, f0, init_id=idx))
            else:
                results.append(_best_set(problem, (), np.zeros(problem.m), idx))
        except (ValueError, InfeasibleProblem) as exc:
            errors.append(exc)
    if not results:
        raise errors[0]
    results.sort(key=lambda sol: (sol.penalized_value, sol.init_id))
    return results[0]


def _break_even(problem, set_ids, lam_best):
    """Penalty weight at which the penalized ratio of set_ids, a set that
    violates some constraint, equals lam_best.  It comes from the set's
    unpenalized values alone, so it is defined at any gamma, 0 included."""
    num, den, violations = problem.score(
        np.flatnonzero(problem.indicator(set_ids)))
    return (lam_best * den - num) / sum(violations)


def solve_with_gamma_schedule(problem, cfg=None):
    """Solve unconstrained first, then raise gamma until the set is feasible.

    ``problem`` is built once; round 0 solves it at gamma 0 and each of at
    most GAMMA_ROUNDS later rounds solves ``problem.with_gamma(gamma)``.
    After an infeasible round with winner C, round 0 included, gamma jumps
    to at least GAMMA_JUMP gamma_C, where gamma_C = (lam_best den(C) -
    num(C)) / sum(violations(C)) is the weight at which C's penalized ratio
    ties the best feasible set seen (ratio lam_best; gamma_C is 0 without
    one).  So the first penalized gamma is max(GAMMA_FLOOR, value(C),
    GAMMA_JUMP gamma_C) and each later one max(2 gamma, GAMMA_JUMP gamma_C).
    Gamma is capped at the sufficient bound computed from the best feasible
    set seen so far.  Once that set exists, its indicator is a warm start
    of every later round (all zeros for the bare seed), so at the cap the
    outcome is guaranteed feasible.  Raises InfeasibleProblem when no
    feasible set is ever found.
    """
    problem0 = problem.with_gamma(0.0)
    theta = theta_of(problem0.constraints)
    best = None  # (positions, numerator, denominator) of the best feasible set

    def consider(A):
        nonlocal best
        num, den, violations = problem0.score(A)
        if den <= 0 or any(violations):
            return
        if best is None or num / den < best[1] / best[2]:
            best = (A, num, den)

    def harvest(problem, result):
        consider(np.flatnonzero(problem.indicator(result.set_ids)))
        if problem.constraints and result.f.size:
            try:
                sweep = optimal_threshold(
                    result.f, problem.numerator.set_function,
                    problem.denominator.set_function,
                    feasibility=AllOf(*problem.reduced_constraints))
                consider(sweep.best_set)
            except (NoFeasibleThreshold, ValueError):
                pass

    consider(_BARE_SEED)
    consider(np.arange(problem0.m))
    problem, extra, at_cap = problem0, [], False
    for round_index in range(GAMMA_ROUNDS + 1):
        result = ratio_dca_multistart(problem, cfg, extra, round_index)
        harvest(problem, result)
        if all(result.feasible):
            return result
        if at_cap:
            # Numerical safety net: the best feasible set seen is itself a
            # valid answer at this gamma.
            return problem.set_solution(best[0], extra[-1], -1)
        gamma = (2.0 * problem.gamma if round_index
                 else max(GAMMA_FLOOR, result.value))
        extra = [result.f] if result.f.size else []
        if best is not None:
            gamma = max(gamma, GAMMA_JUMP * _break_even(
                problem0, result.set_ids, best[1] / best[2]))
            if math.isfinite(theta):
                cap = gamma_sufficient(best[1], best[2],
                                       problem0.denominator_max, theta)
                at_cap, gamma = gamma >= cap, min(gamma, cap)
            extra.append(problem0.indicator(problem0.expand(best[0])))
        problem = problem0.with_gamma(gamma)
    raise InfeasibleProblem("no feasible set found at any penalty weight")
