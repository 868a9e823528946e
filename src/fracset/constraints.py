"""Exact-penalty encoding of volume constraints.

An upper bound vol_h(C) <= k gets the penalty max(0, vol_h(C) - k) on
nonempty sets, which splits as vol_h - min(k, vol_h): a difference of
submodular functions.  A lower bound vol_h(C) >= k is rewritten as
-vol_h(C) <= -k and splits as k * [C nonempty] - min(k, vol_h).  Both
penalties vanish exactly on feasible sets and on the empty set, so adding
gamma times their sum to the numerator leaves the ratio unchanged on the
feasible region; above a computable gamma the penalized and constrained
problems have the same minimizers.  ``VolumeConstraint`` is the one encoding
of such a bound on the whole graph: feasibility test, sweepable penalty and
sweep predicate.  The d.c. split on the sets that contain a seed block
lives in ``ratiodca.ConstrainedRatioProblem.numerator``, and reads its
concave part through ``truncated_volume_subgradient``.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import as_index_array, volume
from .lovasz import greedy_subgradient, suffix_sums

__all__ = [
    "SeedContainment",
    "VolumeConstraint",
    "gamma_sufficient",
    "theta_of",
    "truncated_volume_subgradient",
]


class VolumeConstraint:
    """vol_h(C) <= bound (upper=True) or >= bound (upper=False).

    ``violation`` is the penalty of one set and ``satisfied`` the
    feasibility test; ``suffix_values`` (the penalty as a set function) and
    ``suffix_flags`` serve threshold sweeps.  ``violation``, ``satisfied``
    and ``suffix_flags`` read an excess of at most ``tol`` = 1e-12*|bound|
    as rounding, so a set whose decimal volume equals the bound is feasible
    (0.1 + 0.2 exceeds 0.3 by 5.6e-17).
    """

    __slots__ = ("weights", "bound", "upper", "tol")

    def __init__(self, weights, bound, upper=True):
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ValueError("constraint weights must be finite")
        if w.size and w.min() < 0:
            raise ValueError("constraint weights must be non-negative")
        if not math.isfinite(bound):
            raise ValueError("constraint bound must be finite")
        self.weights = w
        self.bound = float(bound)
        self.upper = bool(upper)
        self.tol = 1e-12 * abs(self.bound)

    def _excess(self, vols):
        """How far volumes lie past the bound."""
        return vols - self.bound if self.upper else self.bound - vols

    def violation(self, subset):
        """Penalty value: the constraint excess past ``tol`` on nonempty sets,
        0 on the empty set."""
        idx = as_index_array(subset, self.weights.size)
        excess = self._excess(volume(self.weights, idx))
        return excess if idx.size and excess > self.tol else 0.0

    def satisfied(self, subset):
        return self.violation(subset) <= 0.0

    def suffix_values(self, order):
        """Penalty values of the nested sets order[i:], without ``tol``: the
        exact difference of the d.c. split's two parts."""
        return np.maximum(0.0, self._excess(suffix_sums(self.weights[order])))

    def suffix_flags(self, order):
        """Whether each nested set order[i:] satisfies the constraint."""
        return self._excess(suffix_sums(self.weights[order])) <= self.tol

    def __repr__(self):
        op = "<=" if self.upper else ">="
        return f"VolumeConstraint(vol_h {op} {self.bound})"


class _TruncatedVolume:
    """min(cap, vol_h) for cap >= 0, as the suffix values a sweep reads."""

    def __init__(self, weights, cap):
        self.weights = weights
        self.cap = cap

    def suffix_values(self, order):
        return np.minimum(self.cap, suffix_sums(self.weights[order]))


def truncated_volume_subgradient(weights, cap, f):
    """Greedy subgradient of the Lovász extension of min(cap, vol_h).

    Satisfies <f, t> = lovasz_value(min(cap, vol_h), f) and, up to
    rounding, 0 <= t <= h componentwise.
    """
    if cap < 0:
        raise ValueError("truncation level must be non-negative")
    return greedy_subgradient(
        _TruncatedVolume(np.asarray(weights, dtype=float), cap), f)


def theta_of(constraints):
    """Lower bound on the smallest constraint violation over infeasible sets.

    Weights are rounded to multiples of 1/rho with rho = 10^6; every
    achievable volume then lies within the weights' total rounding of a
    multiple of g = gcd(rounded weights)/rho, so no violation is less than
    that of the first grid point more than the constraint's ``tol`` past the
    bound, less the rounding.  A weight more than 1e-6/rho off the grid
    breaks that argument: a volume may then miss the bound by arbitrarily
    little, so a constraint with such a weight that some set can violate
    gives 0, no positive bound.  Constraints that no set can violate are
    ignored; returns inf when none can be violated at all.
    """
    best = math.inf
    rho = 10**6
    for c in constraints:
        k, tol = c.bound, c.tol
        if c.satisfied(np.arange(c.weights.size) if c.upper
                       else np.argsort(c.weights)[:1]):
            continue  # the largest (smallest nonempty) volume satisfies it
        scaled = c.weights * rho
        ints = np.rint(scaled)
        off = np.abs(scaled - ints)
        if np.any(off > 1e-6):
            return 0.0
        dev = float(off.sum()) / rho
        ints = ints[ints > 0].astype(np.int64)
        # a lower bound's shortfall k - vol is the excess of -vol over -k
        k_past = k if c.upper else -k
        if ints.size == 0:
            least = -k_past   # every volume is within dev of 0
        else:
            grid = float(np.gcd.reduce(ints)) / rho
            least = _least_excess(k_past, tol - dev, grid)
        # every violation exceeds tol
        best = min(best, max(least - dev, tol))
    return best


def _least_excess(k, tol, grid):
    """The least j*grid - k over the integers j with j*grid - k > tol."""
    j = math.floor((k + tol) / grid) + 1
    # the division may round j one step off either way
    if (j - 1) * grid - k > tol:
        j -= 1
    elif j * grid - k <= tol:
        j += 1
    return j * grid - k


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
    """Sweep predicate: the set contains every listed vertex."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.int64)

    def suffix_flags(self, order):
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = np.arange(order.size)
        cutoff = pos[self.seeds].min() if self.seeds.size else order.size - 1
        return np.arange(order.size) <= cutoff
