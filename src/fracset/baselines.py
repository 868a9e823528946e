"""Lazy-random-walk baseline and the exhaustive brute-force oracle."""

from __future__ import annotations

import numpy as np

from .graph import as_index_array
from .lovasz import NoFeasibleThreshold, _value_fn, optimal_threshold

__all__ = ["OracleResult", "brute_force", "lrw_cluster", "lrw_step"]


class OracleResult:
    """Exact constrained optimum from full enumeration."""

    __slots__ = ("best_set", "best_value", "enumerated", "feasible_count")

    def __init__(self, best_set, best_value, enumerated, feasible_count):
        self.best_set = best_set
        self.best_value = best_value
        self.enumerated = enumerated
        self.feasible_count = feasible_count

    @property
    def infeasible(self):
        return self.best_set is None


def brute_force(graph, numerator, denominator, constraints=(), seed=(),
                mode="min", n_cap=20):
    """Exact optimum of numerator(C)/denominator(C) over supersets of the seed.

    Enumerates all 2^(n-|seed|) supersets, checks every constraint exactly,
    and skips sets with nonpositive denominator.  ``mode`` is "min" or "max".
    The hard cap on n keeps the enumeration at desk scale.
    """
    n = graph.n
    if n > n_cap:
        raise ValueError(f"brute force capped at {n_cap} vertices (got {n})")
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    num = _value_fn(numerator)
    den = _value_fn(denominator)
    seed_idx = np.unique(as_index_array(seed, n))
    rest = np.setdiff1d(np.arange(n), seed_idx)
    k = rest.size
    sign = 1.0 if mode == "min" else -1.0
    best_val = np.inf
    best_set = None
    feasible = 0
    for mask in range(1 << k):
        chosen = [int(rest[b]) for b in range(k) if (mask >> b) & 1]
        subset = np.concatenate([seed_idx, np.asarray(chosen, dtype=np.int64)])
        subset.sort()
        if not all(c.satisfied(subset) for c in constraints):
            continue
        feasible += 1
        d = den(subset)
        if d <= 0:
            continue
        val = sign * num(subset) / d
        if val < best_val:
            best_val = val
            best_set = subset
    return OracleResult(best_set,
                        None if best_set is None else sign * best_val,
                        1 << k, feasible)


def lrw_step(graph, p):
    """One lazy step p -> 0.5 (I + W D^-1) p; zero-degree vertices hold their mass."""
    d = graph.degrees
    ratio = np.divide(p, d, out=np.zeros_like(p), where=d > 0)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    pushed = np.zeros_like(p)
    if ew.size:
        pushed += np.bincount(eu, weights=ew * ratio[ev], minlength=graph.n)
        pushed += np.bincount(ev, weights=ew * ratio[eu], minlength=graph.n)
    nxt = 0.5 * (p + pushed)
    stuck = d <= 0
    nxt[stuck] += 0.5 * p[stuck]
    return nxt


def lrw_cluster(graph, seeds, numerator, denominator, feasibility=None,
                max_steps=1000, normalize_by_degree=False):
    """Lazy-random-walk clustering with constrained optimal thresholding.

    Starts from the uniform distribution on the seed set, iterates the lazy
    walk, and at every step sweeps the walk vector (optionally divided by the
    degrees) for the best feasible threshold set under the given ratio.
    Returns (set, value, step) for the best set over all steps; stops when
    one step moves less than 1e-10 of mass in L1 (stationarity) or after
    ``max_steps``.  Raises NoFeasibleThreshold if no step produced a
    feasible set.
    """
    seed_idx = np.unique(as_index_array(seeds, graph.n))
    if seed_idx.size == 0:
        raise ValueError("seed set must be non-empty")
    if np.any(graph.degrees[seed_idx] <= 0):
        raise ValueError("every seed vertex needs positive degree")
    p = np.zeros(graph.n)
    p[seed_idx] = 1.0 / seed_idx.size
    best = None

    def sweep(vec, step):
        nonlocal best
        try:
            res = optimal_threshold(vec, numerator, denominator, feasibility)
        except (NoFeasibleThreshold, ValueError):
            return
        if best is None or res.best_value < best[1]:
            best = (res.best_set, res.best_value, step)

    def sweep_vector():
        if normalize_by_degree:
            return np.divide(p, graph.degrees,
                             out=np.zeros_like(p), where=graph.degrees > 0)
        return p

    sweep(sweep_vector(), 0)
    for step in range(1, max_steps + 1):
        nxt = lrw_step(graph, p)
        delta = float(np.abs(nxt - p).sum())
        p = nxt
        sweep(sweep_vector(), step)
        if delta < 1e-10:
            break
    if best is None:
        raise NoFeasibleThreshold("the walk never produced a feasible threshold set")
    return best
