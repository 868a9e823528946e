"""Lazy-random-walk baseline and the exhaustive brute-force oracle."""

from __future__ import annotations

import numpy as np

from .graph import as_index_array
from .lovasz import optimal_threshold

__all__ = ["OracleResult", "brute_force", "lrw_cluster", "lrw_step"]

# The largest graph ``brute_force`` enumerates: 2^20 sets.
BRUTE_FORCE_MAX_N = 20
# ``brute_force`` reads its sets off one reused boolean table of
# 2^BRUTE_FORCE_BLOCK_BITS rows by n columns: 80 KiB at n = BRUTE_FORCE_MAX_N.
BRUTE_FORCE_BLOCK_BITS = 12


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


def brute_force(graph, numerator, denominator, constraints=(), seed=()):
    """Exact minimum of numerator(C)/denominator(C) over supersets of the seed.

    The numerator and denominator are plain callables on sorted index
    arrays, so the oracle can be handed textbook formulas that share no
    code with the sweeps it checks.  Enumerates all 2^k supersets, where k
    is the number of non-seed vertices, checks every constraint exactly
    on each, and skips sets with nonpositive denominator.  Only ``graph.n``
    is read.  The hard cap of BRUTE_FORCE_MAX_N vertices keeps the
    enumeration at desk scale.

    Sets come in mask order, mask = 0 .. 2^k - 1, where bit b of the mask
    holds the b-th non-seed vertex in ascending id order.  Each set is a
    fresh sorted int64 array.  A set replaces the best one only when its
    ratio is strictly lower, so ties go to the first set in mask order.
    The masks are the rows of one boolean table of 2^BRUTE_FORCE_BLOCK_BITS
    rows by n columns, reused block after block: the seed columns are
    always True, the low bits vary down the rows, and the high bits are
    set once per block.
    """
    n = graph.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_MAX_N} vertices (got {n})")
    constraints = tuple(constraints)
    seed_idx = np.unique(as_index_array(seed, n))
    rest = np.setdiff1d(np.arange(n), seed_idx)
    k = rest.size
    low, high = rest[:BRUTE_FORCE_BLOCK_BITS], rest[BRUTE_FORCE_BLOCK_BITS:]
    table = np.zeros((1 << low.size, n), dtype=bool)
    table[:, seed_idx] = True
    table[:, low] = np.arange(1 << low.size)[:, None] >> np.arange(low.size) & 1
    best_val = np.inf
    best_set = None
    feasible = 0
    for block in range(1 << high.size):
        table[:, high] = block >> np.arange(high.size) & 1
        for row in table:
            subset = row.nonzero()[0]
            if not all(c.satisfied(subset) for c in constraints):
                continue
            feasible += 1
            d = denominator(subset)
            if d <= 0:
                continue
            val = numerator(subset) / d
            if val < best_val:
                best_val = val
                best_set = subset
    return OracleResult(best_set, None if best_set is None else best_val,
                        1 << k, feasible)


def lrw_step(graph, p):
    """One lazy step p -> 0.5 (I + W D^-1) p; zero-degree vertices hold their mass."""
    d = graph.degrees
    ratio = np.divide(p, d, out=np.zeros_like(p), where=d > 0)
    nxt = 0.5 * (p + graph.neighbor_sum(ratio))
    stuck = d <= 0
    nxt[stuck] += 0.5 * p[stuck]
    return nxt


def lrw_cluster(graph, seeds, numerator, denominator, predicates=(),
                max_steps=1000, normalize_by_degree=False):
    """Lazy-random-walk clustering with constrained optimal thresholding.

    Starts from the uniform distribution on the seed set, iterates the lazy
    walk, and at every step sweeps the walk vector (optionally divided by the
    degrees) for the best threshold set under the given ratio that passes
    every predicate.  Returns (set, value, step) for the best set over all
    steps, or None when no step produced a qualifying set; stops when one
    step moves less than 1e-10 of mass in L1 (stationarity) or after
    ``max_steps``.
    """
    seed_idx = np.unique(as_index_array(seeds, graph.n))
    if seed_idx.size == 0:
        raise ValueError("seed set must be non-empty")
    predicates = tuple(predicates)
    if np.any(graph.degrees[seed_idx] <= 0):
        raise ValueError("every seed vertex needs positive degree")
    p = np.zeros(graph.n)
    p[seed_idx] = 1.0 / seed_idx.size
    best = None

    def sweep(vec, step):
        nonlocal best
        res = optimal_threshold(vec, numerator, denominator, predicates)
        if res is not None and (best is None or res.best_value < best[1]):
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
    return best
