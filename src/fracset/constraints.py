"""Exact-penalty encoding of volume constraints.

An upper bound vol_h(C) <= k gets the penalty max(0, vol_h(C) - k) on
nonempty sets, which splits as vol_h - min(k, vol_h): a difference of
submodular functions.  A lower bound vol_h(C) >= k is rewritten as
-vol_h(C) <= -k and splits as k * [C nonempty] - min(k, vol_h).  Both
penalties vanish exactly on feasible sets and on the empty set, so adding
gamma times their sum to the numerator leaves the ratio unchanged on the
feasible region; above a computable gamma the penalized and constrained
problems have the same minimizers.  ``VolumeConstraint`` is the one encoding
of such a bound: feasibility test, sweepable penalty, sweep predicate and
d.c. split, with a folded-out seed block carried as its ``offset``.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import as_index_array
from .lovasz import ascending_order, suffix_flags

__all__ = [
    "AllOf",
    "SeedContainment",
    "VolumeConstraint",
    "gamma_sufficient",
    "theta_of",
    "truncated_volume_subgradient",
]


class VolumeConstraint:
    """vol_h(C) + offset <= bound (upper=True) or >= bound (upper=False).

    As a set function, ``violation`` (alias ``value``) is the exact penalty;
    as a predicate, ``satisfied`` (also its call); ``suffix_values`` and
    ``suffix_flags`` serve threshold sweeps; ``cap`` and ``subgradient`` the
    d.c. split.  ``offset`` is the volume of a seed block folded out of the
    vertex domain (see ``problems._reduce_seed``), 0 on the full graph.
    """

    __slots__ = ("weights", "bound", "upper", "offset")

    def __init__(self, weights, bound, upper=True, offset=0.0):
        w = np.asarray(weights, dtype=float)
        if w.size and w.min() < 0:
            raise ValueError("constraint weights must be non-negative")
        if not math.isfinite(bound):
            raise ValueError("constraint bound must be finite")
        self.weights = w
        self.bound = float(bound)
        self.upper = bool(upper)
        self.offset = float(offset)

    def violation(self, subset):
        """Penalty value: the constraint excess on nonempty sets, 0 on the empty set."""
        idx = as_index_array(subset, self.weights.size)
        if idx.size == 0:
            return 0.0
        vol = float(self.weights[idx].sum()) + self.offset
        if self.upper:
            return max(0.0, vol - self.bound)
        return max(0.0, self.bound - vol)

    value = violation

    def satisfied(self, subset, tol=0.0):
        return self.violation(subset) <= tol

    __call__ = satisfied

    def _suffix_volumes(self, order):
        return np.cumsum(self.weights[order][::-1])[::-1] + self.offset

    def suffix_values(self, order):
        """Penalty values of the nested sets order[i:]."""
        vols = self._suffix_volumes(order)
        if self.upper:
            return np.maximum(0.0, vols - self.bound)
        return np.maximum(0.0, self.bound - vols)

    def suffix_flags(self, order):
        """Whether each nested set order[i:] satisfies the constraint."""
        vols = self._suffix_volumes(order)
        return (vols <= self.bound) if self.upper else (vols >= self.bound)

    @property
    def cap(self):
        """k' = max(0, bound - offset): on nonempty sets the penalty is
        vol_h - min(k', vol_h) (upper; exact for bound >= offset, which the
        builders ensure) or k' - min(k', vol_h) (lower; 0 when k' = 0).
        """
        return max(0.0, self.bound - self.offset)

    def subgradient(self, f):
        """Subgradient at f of the extension of min(cap, vol_h), the split's concave part."""
        return truncated_volume_subgradient(self.weights, self.cap, f)

    def __repr__(self):
        op = "<=" if self.upper else ">="
        off = f" + {self.offset}" if self.offset else ""
        return f"VolumeConstraint(vol_h{off} {op} {self.bound})"


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


def theta_of(constraints):
    """Lower bound on the smallest constraint violation over infeasible sets.

    Weights are rounded to multiples of 1/rho with rho = 10^6; every
    achievable volume is then a multiple of g = gcd(rounded weights)/rho,
    so any value strictly above (below) the bound is at least one grid step
    past the nearest grid point.  Constraints that no set can violate are
    ignored; returns inf when none can be violated at all.
    """
    best = math.inf
    rho = 10**6
    for c in constraints:
        ints = np.rint(c.weights * rho).astype(np.int64)
        ints = ints[ints > 0]
        k = c.bound - c.offset
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
                     theta):
    """Penalty weight above which penalized and constrained problems coincide.

    Given a feasible set with numerator/denominator values (R0, S0 > 0), any
    gamma strictly above R0 * max_C S(C) / (theta * S0) makes every minimizer
    of the penalized ratio feasible; the returned value adds a 1% margin to
    make the inequality strict.
    """
    if ratio_denominator <= 0:
        raise ValueError("feasible reference set must have positive denominator")
    if theta <= 0 or not math.isfinite(theta):
        raise ValueError("theta must be positive and finite")
    bound = ratio_numerator * denominator_max / (theta * ratio_denominator)
    return bound * 1.01


# ---------------------------------------------------------------------------
# Sweepable feasibility predicates.


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
