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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import constraints as volume_constraints
from .constraints import gamma_sufficient, theta_of
from .graph import as_count, as_index_array, volume
from .inner import InnerProblem, objective_value, solve_inner
from .lovasz import (SeedBlock, SetFunctionDC, WeightedSum, optimal_threshold,
                     set_values)

__all__ = [
    "ConstrainedRatioProblem",
    "DescentViolation",
    "InfeasibleProblem",
    "Solution",
    "SolverConfig",
    "continuous_ratio",
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
        self.initializations = as_count(self.initializations,
                                        "initializations")
        if self.initializations < 1:
            raise ValueError("at least one initialization is required")
        self.seed = as_count(self.seed, "the seed")


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
    """A constrained set ratio over the sets that contain a seed block, in
    d.c. form.

    Every set is A u seed, with A given as positions among the active
    vertices (the complement of the seed block); ``expand`` maps A to
    full-graph ids.  ``objective`` and ``denominator`` are SetFunctionDC
    whose set functions are the unpenalized ratio's two sides on the whole
    graph, and ``constraints`` are whole-graph volume bounds; a sweep along
    a vector over the active vertices reads each of them through
    ``on_active``.  ``score`` is the one set-level evaluator built from
    these.  Only ``gamma`` depends on the penalty weight, so each gamma
    round uses ``with_gamma`` on one problem.  ``score`` does not depend on
    gamma either: ``scores`` holds every set's score, keyed on its
    positions, and ``with_gamma`` shares it, so a solve scores each set
    once.
    """

    seed_ids: np.ndarray
    active_ids: np.ndarray
    objective: SetFunctionDC
    denominator: SetFunctionDC
    constraints: tuple
    denominator_max: float
    gamma: float = 0.0
    scores: dict = field(default_factory=dict, repr=False)

    @property
    def m(self):
        return int(self.active_ids.size)

    def with_gamma(self, gamma):
        """The same problem with penalty weight gamma, sharing ``scores``."""
        return replace(self, gamma=float(gamma))

    def on_active(self, fn):
        """The whole-graph set function or predicate fn on active positions:
        fn(A u seed) for nonempty A, 0 for the empty A."""
        return SeedBlock(fn, self.active_ids, self.seed_ids)

    @cached_property
    def numerator(self):
        """objective + gamma * penalties in d.c. form.

        With h on the active vertices and cap = max(0, bound - vol_h(seed)),
        each penalty on A u seed, A nonempty, splits as vol_h(A) (upper
        bound; exact for bound >= vol_h(seed), which the builders ensure)
        or cap*[A nonempty] (lower bound), minus min(cap, vol_h(A)): the
        first part joins the objective's kept piece, the truncated volume
        is linearized on top of the objective's linearization.  A lower
        bound the seed already meets (cap 0) has a zero penalty and is left
        out; with no penalty left the numerator is the objective itself.
        The set function is the whole-graph objective plus gamma times each
        kept constraint's penalty.
        """
        gamma = self.gamma
        if gamma <= 0:
            return self.objective
        k = self.objective.kept
        linear, fmax = k.c2, k.c1
        terms = [(1.0, self.objective.set_function)]
        truncations = []  # (h on the active vertices, cap)
        for c in self.constraints:
            h = c.weights[self.active_ids]
            cap = max(0.0, c.bound - volume(c.weights, self.seed_ids))
            if c.upper:
                linear = linear + gamma * h
            elif cap > 0:
                fmax += gamma * cap
            else:
                continue
            terms.append((gamma, c))
            truncations.append((h, cap))
        if not truncations:
            return self.objective

        def linearized(f):
            t = np.zeros(self.m)
            for h, cap in truncations:
                t += volume_constraints.truncated_volume_subgradient(h, cap, f)
            return self.objective.linearized(f) + gamma * t

        kept = InnerProblem(fmax, linear, k.mu, k.graph)
        return SetFunctionDC(WeightedSum(terms), kept, linearized)

    def expand(self, positions):
        """Active-vertex positions -> sorted full-graph ids including the seed."""
        ids = self.active_ids[np.asarray(positions, dtype=np.int64)]
        return np.sort(np.concatenate([self.seed_ids, ids]))

    def indicator(self, subset):
        """Indicator over active positions of a full-graph set minus the seed."""
        mask = np.zeros(self.seed_ids.size + self.m, dtype=bool)
        mask[as_index_array(subset, mask.size)] = True
        return mask[self.active_ids].astype(float)

    def score(self, positions):
        """Unpenalized numerator, denominator and per-constraint violations
        of the set C = A u seed, for A the given active positions (the bare
        seed when A is empty), evaluated once per position list."""
        positions = np.asarray(positions, dtype=np.int64)
        key = positions.tobytes()
        found = self.scores.get(key)
        if found is None:
            C = self.expand(positions)
            num, den = set_values((self.objective.set_function,
                                   self.denominator.set_function),
                                  self.seed_ids.size + self.m, C)
            found = self.scores[key] = (
                num, den, tuple(c.violation(C) for c in self.constraints))
        return found

    def penalized_value(self, positions):
        """Penalized ratio of the set A u seed; inf when its denominator is
        not positive."""
        num, den, violations = self.score(positions)
        if den > 0:
            return (num + self.gamma * sum(violations)) / den
        return math.inf

    def set_solution(self, positions, f, init_id, trace=(), converged=True):
        """Solution that is the set A u seed, reported with the vector f.

        ``lam`` is the last ratio of ``trace``, or the set's own penalized
        value for a fixed set without one.  A set whose denominator is not
        positive has an undefined ratio, reported as inf.
        """
        num, den, violations = self.score(positions)
        value = num / den if den > 0 else math.inf
        pen = self.penalized_value(positions)
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
    go to it.  When no set has a defined ratio, the value is inf.
    """
    winner = min((_BARE_SEED, *candidates), key=problem.penalized_value)
    return problem.set_solution(winner, f, init_id, trace, converged)


def ratio_dca(problem, f0, init_id=0):
    """Monotone-descent minimization of the penalized continuous ratio.

    Starting from a nonnegative f0, repeatedly solves the linearized
    inner problem; the ratio trace is strictly decreasing (a plateau, a zero
    inner optimum or an inner stall, where no step promises a relative drop
    of OUTER_TOL, terminates without a step).  The returned set comes from
    optimal thresholding of the final iterate, compared against the bare
    seed set; the value is inf when neither has a defined ratio.
    A start with no positive entry, or whose denominator extension is not
    positive, gives no ratio to descend from, and returns the bare seed
    set; one of the wrong length or with a non-finite entry raises
    ValueError.  The outer tolerances are the module constants; the inner
    solves use ``solve_inner``'s defaults.
    """
    f = np.asarray(f0, dtype=float)
    if f.shape != (problem.m,) or not np.isfinite(f).all():
        raise ValueError(f"expected a finite start of length {problem.m}")
    f = np.maximum(f, 0.0)
    nrm = float(np.linalg.norm(f))
    if nrm <= 0:
        return _best_set(problem, (), f, init_id)
    f /= nrm
    r, s, r2v, s1v = _extension(problem, f)
    if s <= 0:
        return _best_set(problem, (), f, init_id)
    lam = r / s
    trace = [lam]
    warm = None
    rk, sk = problem.numerator.kept, problem.denominator.kept
    converged = False
    for _ in range(MAX_OUTER):
        step = InnerProblem(rk.c1 + lam * sk.c1,
                            rk.c2 - r2v + lam * (sk.c2 - s1v),
                            rk.mu + lam * sk.mu, rk.graph)
        stall = OUTER_TOL * r
        inner = solve_inner(step, warm=warm, descent=SUFFICIENT_DESCENT,
                            stall=stall)
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
    sweep = optimal_threshold(
        f, problem.on_active(problem.numerator.set_function),
        problem.on_active(problem.denominator.set_function))
    candidates = () if sweep is None else (sweep.best_set,)
    return _best_set(problem, candidates, f, init_id, trace, converged)


def ratio_dca_multistart(problem, cfg=None, warm_starts=(), round_index=0):
    """Best-of-k solve: k i.i.d. uniform starts plus caller-supplied vectors.

    The random starts come from SeedSequence(cfg.seed) in round 0 and from
    SeedSequence([cfg.seed, round_index]) in a later gamma round, so every
    round of a schedule draws fresh starts and a solve repeats exactly.  The
    winner has the smallest penalized set value; ties go to the lowest
    start index.  A start with no positive entry (every start when m == 0)
    stands for the bare seed set (see ``ratio_dca``).  Raises
    InfeasibleProblem when the winner has no defined ratio; an error in any
    start, ``DescentViolation`` included, propagates.
    """
    cfg = cfg or SolverConfig()
    entropy = [cfg.seed, round_index] if round_index else cfg.seed
    starts = [np.random.default_rng(child).random(problem.m) for child in
              np.random.SeedSequence(entropy).spawn(cfg.initializations)]
    starts += [np.asarray(w, dtype=float) for w in warm_starts]
    best = min((ratio_dca(problem, f0, init_id=idx)
                for idx, f0 in enumerate(starts)),
               key=lambda sol: sol.penalized_value)
    if math.isinf(best.penalized_value):
        raise InfeasibleProblem("no start reached a set with positive denominator")
    return best


def _break_even(score, lam_best):
    """Penalty weight at which the penalized ratio of a set that violates
    some constraint equals lam_best, from the set's unpenalized ``score``
    (numerator, denominator, violations) alone, so it is defined at any
    gamma, 0 included."""
    num, den, violations = score
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
    set seen so far, when ``theta_of`` proves a positive least violation
    (0 < theta < inf).  Once that set exists, its indicator is a warm start
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
        if den > 0 and not any(violations) and (
                best is None or num / den < best[1] / best[2]):
            best = (A, num, den)

    def harvest(result):
        """Consider an infeasible round's best feasible threshold set, and
        return the winner's score.  Every penalty is 0 on a feasible set, so
        the sweep reads the unpenalized ratio."""
        sweep = optimal_threshold(
            result.f, problem0.on_active(problem0.objective.set_function),
            problem0.on_active(problem0.denominator.set_function),
            [problem0.on_active(c) for c in problem0.constraints])
        if sweep is not None:
            consider(sweep.best_set)
        return problem0.score(np.flatnonzero(problem0.indicator(result.set_ids)))

    consider(_BARE_SEED)
    consider(np.arange(problem0.m))
    problem, extra, at_cap = problem0, [], False
    for round_index in range(GAMMA_ROUNDS + 1):
        result = ratio_dca_multistart(problem, cfg, extra, round_index)
        if all(result.feasible):
            return result
        score = harvest(result)
        if at_cap:
            # Numerical safety net: the best feasible set seen is itself a
            # valid answer at this gamma.
            return problem.set_solution(best[0], extra[-1], -1)
        gamma = (2.0 * problem.gamma if round_index
                 else max(GAMMA_FLOOR, result.value))
        extra = [result.f] if result.f.size else []
        if best is not None:
            gamma = max(gamma, GAMMA_JUMP * _break_even(score,
                                                        best[1] / best[2]))
            if 0 < theta < math.inf:
                cap = gamma_sufficient(best[1], best[2],
                                       problem0.denominator_max, theta)
                at_cap, gamma = gamma >= cap, min(gamma, cap)
            start = np.zeros(problem0.m)
            start[best[0]] = 1.0
            extra.append(start)
        problem = problem0.with_gamma(gamma)
    raise InfeasibleProblem("no feasible set found at any penalty weight")
