"""Exact-penalty encoding of volume constraints.

An upper bound vol_h(C) <= k gets the penalty max(0, vol_h(C) - k) on
nonempty sets, which splits as vol_h - min(k, vol_h): a difference of
submodular functions.  A lower bound vol_h(C) >= k is rewritten as
-vol_h(C) <= -k and splits as k * [C nonempty] - min(k, vol_h).  Both
penalties vanish exactly on feasible sets and on the empty set, so adding
gamma times their sum to the numerator leaves the ratio unchanged on the
feasible region; above a computable gamma the penalized and constrained
problems have the same minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import as_index_array
from .lovasz import ascending_order, suffix_flags

__all__ = [
    "GammaSchedule",
    "PenaltyDC",
    "SuffixFeasibility",
    "SeedContainment",
    "AllOf",
    "VolumeConstraint",
    "gamma_sufficient",
    "penalty_dc",
    "theta_of",
    "truncated_volume_subgradient",
]


class VolumeConstraint:
    """vol_h(C) <= bound (upper=True) or vol_h(C) >= bound (upper=False)."""

    __slots__ = ("weights", "bound", "upper")

    def __init__(self, weights, bound, upper=True):
        w = np.asarray(weights, dtype=float)
        if w.size and w.min() < 0:
            raise ValueError("constraint weights must be non-negative")
        if not math.isfinite(bound):
            raise ValueError("constraint bound must be finite")
        self.weights = w
        self.bound = float(bound)
        self.upper = bool(upper)

    def violation(self, subset):
        """Penalty value: the constraint excess on nonempty sets, 0 on the empty set."""
        idx = as_index_array(subset, self.weights.size)
        if idx.size == 0:
            return 0.0
        vol = float(self.weights[idx].sum())
        if self.upper:
            return max(0.0, vol - self.bound)
        return max(0.0, self.bound - vol)

    def satisfied(self, subset, tol=0.0):
        return self.violation(subset) <= tol

    def __repr__(self):
        op = "<=" if self.upper else ">="
        return f"VolumeConstraint(vol_h {op} {self.bound})"


def truncated_volume_subgradient(weights, cap, f):
    """Greedy subgradient of the Lovász extension of min(cap, vol_h).

    Along the ascending sort with suffix sets A_1 (all) down to A_m and
    A_{m+1} empty, the component for the i-th smallest entry is
        0                     if vol_h(A_{i+1}) > cap,
        cap - vol_h(A_{i+1})  if vol_h(A_i) >= cap and vol_h(A_{i+1}) <= cap,
        h_{j_i}               if vol_h(A_i) < cap,
    which is exactly min(cap, vol(A_i)) - min(cap, vol(A_{i+1})).  Satisfies
    <f, t> = lovasz_value(min(cap, vol_h), f) and 0 <= t <= h componentwise.
    """
    h = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    if cap < 0:
        raise ValueError("truncation level must be non-negative")
    order = ascending_order(f)
    hs = h[order]
    sv = np.cumsum(hs[::-1])[::-1]
    sv_next = sv - hs
    out = np.where(sv_next > cap, 0.0,
                   np.where(sv < cap, hs, cap - sv_next))
    out = np.clip(out, 0.0, hs)
    t = np.empty(f.size)
    t[order] = out
    return t


class PenaltyDC:
    """Difference-of-submodular split of one volume penalty.

    value(C) = [modular vol_h(C) if upper else 0] + pmax_coefficient * [C nonempty]
               - min(cap, vol_h(C)).
    """

    __slots__ = ("weights", "cap", "modular", "pmax_coefficient")

    def __init__(self, weights, cap, modular, pmax_coefficient):
        self.weights = np.asarray(weights, dtype=float)
        self.cap = float(cap)
        self.modular = bool(modular)
        self.pmax_coefficient = float(pmax_coefficient)

    def value(self, subset):
        idx = as_index_array(subset, self.weights.size)
        if idx.size == 0:
            return 0.0
        vol = float(self.weights[idx].sum())
        lhs = (vol if self.modular else 0.0) + self.pmax_coefficient
        return lhs - min(self.cap, vol)

    def subgradient(self, f):
        return truncated_volume_subgradient(self.weights, self.cap, f)


def penalty_dc(constraint):
    """Difference-of-submodular decomposition of a volume penalty.

    Upper bound: vol_h - min(k, vol_h).  Lower bound: k * nonempty-indicator
    - min(k, vol_h); a lower bound with k <= 0 is vacuous and yields the zero
    penalty.
    """
    k = constraint.bound
    if constraint.upper:
        if k < 0:
            raise ValueError("upper volume bound must be non-negative")
        return PenaltyDC(constraint.weights, cap=k, modular=True,
                         pmax_coefficient=0.0)
    if k <= 0:
        return PenaltyDC(constraint.weights, cap=0.0, modular=False,
                         pmax_coefficient=0.0)
    return PenaltyDC(constraint.weights, cap=k, modular=False,
                     pmax_coefficient=k)


def theta_of(constraints, grid_denominator=10**6):
    """Lower bound on the smallest constraint violation over infeasible sets.

    Weights are rounded to multiples of 1/grid_denominator; every achievable
    volume is then a multiple of g = gcd(rounded weights)/grid_denominator,
    so any value strictly above (below) the bound is at least one grid step
    past the nearest grid point.  Constraints that no set can violate are
    ignored; returns inf when none can be violated at all.
    """
    best = math.inf
    rho = int(grid_denominator)
    for c in constraints:
        ints = np.rint(c.weights * rho).astype(np.int64)
        ints = ints[ints > 0]
        k = c.bound
        if ints.size == 0:
            # All weights round to zero: every volume is 0.
            if c.upper:
                if k < 0:
                    best = min(best, -k)
            elif k > 0:
                best = min(best, k)
            continue
        grid = float(np.gcd.reduce(ints)) / rho
        if c.upper:
            if float(ints.sum()) / rho <= k:
                continue  # no achievable volume exceeds the bound
            steps = math.floor(k / grid + 1e-9)
            theta = (steps + 1) * grid - k
        else:
            if grid >= k:
                # smallest nonempty volume already satisfies the bound
                continue
            steps = math.ceil(k / grid - 1e-9)
            theta = k - (steps - 1) * grid
        if theta <= 1e-12 * max(1.0, abs(k)):
            theta = grid
        best = min(best, theta)
    return best


def gamma_sufficient(ratio_numerator, ratio_denominator, denominator_max,
                     theta, margin=0.01):
    """Penalty weight above which penalized and constrained problems coincide.

    Given a feasible set with numerator/denominator values (R0, S0 > 0), any
    gamma strictly above R0 * max_C S(C) / (theta * S0) makes every minimizer
    of the penalized ratio feasible; the returned value adds a multiplicative
    margin to make the inequality strict.
    """
    if ratio_denominator <= 0:
        raise ValueError("feasible reference set must have positive denominator")
    if theta <= 0 or not math.isfinite(theta):
        raise ValueError("theta must be positive and finite")
    bound = ratio_numerator * denominator_max / (theta * ratio_denominator)
    return bound * (1.0 + margin)


@dataclass
class GammaSchedule:
    """Penalty-weight escalation: unconstrained first, then geometric growth.

    The first positive weight is max(floor, unconstrained ratio); each step
    multiplies by ``growth``.  The solve loop caps the sequence at the
    sufficient bound computed from the best feasible set seen so far, where
    feasibility of the thresholded improvement is guaranteed.
    """

    floor: float = 1e-3
    growth: float = 2.0
    margin: float = 0.01
    max_steps: int = 60

    def first(self, unconstrained_ratio):
        base = unconstrained_ratio if math.isfinite(unconstrained_ratio) else 0.0
        return max(self.floor, base)

    def next(self, gamma):
        return gamma * self.growth


# ---------------------------------------------------------------------------
# Sweepable feasibility predicates.


class SuffixFeasibility:
    """AND of volume constraints evaluated on suffix sets with a seed offset.

    ``parts`` is a sequence of (weights, offset, bound, upper) tuples, where
    the weights live on the sweep's vertex domain and offset is the volume of
    the folded-out seed block.
    """

    def __init__(self, parts):
        self.parts = tuple(
            (np.asarray(w, dtype=float), float(off), float(b), bool(up))
            for w, off, b, up in parts)

    def __call__(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        for w, off, b, up in self.parts:
            vol = float(w[idx].sum()) + off
            if up:
                if vol > b:
                    return False
            elif vol < b:
                return False
        return True

    def suffix_flags(self, order):
        flags = np.ones(order.size, dtype=bool)
        for w, off, b, up in self.parts:
            vols = np.cumsum(w[order][::-1])[::-1] + off
            flags &= (vols <= b) if up else (vols >= b)
        return flags


class SeedContainment:
    """Predicate: the set contains every listed vertex."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.int64)

    def __call__(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return bool(np.isin(self.seeds, idx).all())

    def suffix_flags(self, order):
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = np.arange(order.size)
        cutoff = pos[self.seeds].min() if self.seeds.size else order.size - 1
        return np.arange(order.size) <= cutoff


class AllOf:
    """Conjunction of sweepable predicates."""

    def __init__(self, *predicates):
        self.predicates = predicates

    def __call__(self, idx):
        return all(p(idx) for p in self.predicates)

    def suffix_flags(self, order):
        flags = np.ones(order.size, dtype=bool)
        for p in self.predicates:
            flags &= suffix_flags(p, order)
        return flags
