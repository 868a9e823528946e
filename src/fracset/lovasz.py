"""Lovász extensions: evaluation, greedy subgradients, and optimal thresholding.

A set function here is an object with value 0 on the empty set and one
method, ``suffix_values(order)``, which returns the values of the nested
sets {order[i:], i = 0..m-1} in O(m log m + edges) total; a single set's
value is ``set_values``, read from one such sweep.  A feasibility predicate
likewise provides ``suffix_flags(order)``.  Every sweep along a vector f
(the ascending sort, the suffix values and flags, greedy subgradients and
thresholding) lives in this module and goes through these hooks, so each
sweep runs in near-linear time.  Set functions are defined on a whole
graph; ``SeedBlock`` reads one on the sets A u J that contain a fixed seed
block J.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "Assoc",
    "Balance",
    "Cut",
    "ModularVolume",
    "SeedBlock",
    "SetFunctionDC",
    "SweepResult",
    "WeightedSum",
    "greedy_subgradient",
    "lovasz_value",
    "optimal_threshold",
    "set_values",
]


def ascending_order(f):
    """Stable ascending argsort; ties keep index order, so sweeps are deterministic."""
    return np.argsort(f, kind="stable")


def suffix_sums(x):
    """x[i:].sum() for every i, as one running sum from the end."""
    return np.cumsum(x[::-1])[::-1]


def lovasz_value(fn, f):
    """Value of the Lovász extension of ``fn`` at ``f``.

    With f sorted ascending and C_i the set of entries >= f_(i), the value is
    sum_i fn(C_(i+1)) (f_(i+1) - f_(i)) + fn(V) f_(1).  Reproduces fn(C) at
    every indicator vector 1_C, and the result does not depend on how ties
    are ordered.
    """
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        return 0.0
    order = ascending_order(f)
    vals = fn.suffix_values(order)
    fs = f[order]
    return float(vals[0] * fs[0] + np.dot(vals[1:], fs[1:] - fs[:-1]))


def set_values(fns, m, idx):
    """Values of the set functions ``fns``, each on an m-vertex domain, at
    the set ``idx``.

    One sweep order puts idx after every other vertex, so each value is the
    suffix value where idx begins; the empty set gives 0.0.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return [0.0] * len(fns)
    inside = np.zeros(m, dtype=bool)
    inside[idx] = True
    order = ascending_order(inside)
    start = m - int(inside.sum())
    return [float(fn.suffix_values(order)[start]) for fn in fns]


def greedy_subgradient(fn, f):
    """Greedy vector s with s[j_i] = fn(A_i) - fn(A_{i+1}) along the ascending sort.

    Satisfies <f, s> = lovasz_value(fn, f) for any set function with
    fn(empty) = 0, and is a subgradient of the Lovász extension whenever fn
    is submodular.
    """
    f = np.asarray(f, dtype=float)
    order = ascending_order(f)
    vals = fn.suffix_values(order)
    nxt = np.empty_like(vals)
    if vals.size:
        nxt[:-1] = vals[1:]
        nxt[-1] = 0.0
    s = np.empty(f.size)
    s[order] = vals - nxt
    return s


class SweepResult:
    """Outcome of an optimal-thresholding sweep."""

    __slots__ = ("best_set", "best_value")

    def __init__(self, best_set, best_value):
        self.best_set = best_set
        self.best_value = best_value


def optimal_threshold(f, numerator, denominator, predicates=()):
    """Best ratio numerator(C)/denominator(C) over the threshold sets of f.

    The candidates are the distinct super-level sets {j : f_j >= t} with a
    positive denominator that pass every predicate (an object with
    ``suffix_flags``).  Ties are resolved toward the smallest set.  Returns
    None when no candidate qualifies; an empty f has none.
    """
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        return None
    order = ascending_order(f)
    fs = f[order]
    keep = np.empty(f.size, dtype=bool)
    keep[0] = True
    keep[1:] = fs[1:] > fs[:-1]
    nums = numerator.suffix_values(order)
    dens = denominator.suffix_values(order)
    keep &= dens > 0.0
    for p in predicates:
        keep &= p.suffix_flags(order)
    starts = np.flatnonzero(keep)
    if starts.size == 0:
        return None
    vals = nums[starts] / dens[starts]
    # the last start reaching the minimum: ties go to the smallest set
    best = np.flatnonzero(vals == vals.min())[-1]
    best_i, best_val = starts[best], vals[best]
    return SweepResult(np.sort(order[best_i:]), float(best_val))


# ---------------------------------------------------------------------------
# Standard set functions with incremental sweeps.


class ModularVolume:
    """vol_w(C)."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def suffix_values(self, order):
        return suffix_sums(self.weights[order])


def _suffix_internal_weight(graph, order):
    """Edge weight inside each nested set order[i:] of a full vertex order.

    An edge lies inside order[i:] iff both its ends have rank >= i, so each
    edge is counted at the rank min(pos u, pos v) and ``suffix_sums``
    collects the suffixes.
    """
    m = order.size
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m)
    key = np.minimum(pos[graph.edge_u], pos[graph.edge_v])
    per_rank = np.bincount(key, weights=graph.edge_w, minlength=m)
    return suffix_sums(per_rank)


class Cut:
    """cut(C, V \\ C), as vol_d(C) - 2 * (edge weight inside C)."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def suffix_values(self, order):
        vols = suffix_sums(self.graph.degrees[order])
        # A cut is never negative; vol - 2 internal can round below 0.
        return np.maximum(
            vols - 2.0 * _suffix_internal_weight(self.graph, order), 0.0)


class Assoc:
    """assoc(C): twice the edge weight inside C."""

    def __init__(self, graph: Graph):
        self.graph = graph

    def suffix_values(self, order):
        return 2.0 * _suffix_internal_weight(self.graph, order)


class Balance:
    """vol_w(C) * vol_w(V \\ C), zero on the empty set.

    The complement's volume is summed over the vertices outside C, so it is
    exactly 0 when C is every vertex.  Submodular: a concave transform of a
    modular function.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def suffix_values(self, order):
        w = self.weights[order]
        return suffix_sums(w) * np.concatenate(([0.0], np.cumsum(w[:-1])))


class SeedBlock:
    """The set function or predicate ``fn`` read on the sets A u J.

    ``fn`` lives on a whole vertex set, split into ``rest`` and the seed
    block ``seed`` = J; A is a set of positions in ``rest``.  A sweep along
    an order of ``rest`` reads fn's sweep along rest[order] followed by J
    and keeps its first len(rest) entries, the sets A u J with A nonempty.
    So the value is fn(A u J) on nonempty A and 0 on the empty A, the
    convention every sweep and extension here assumes.  Submodularity of
    fn carries over: lowering the empty set's value to 0 preserves it.
    """

    def __init__(self, fn, rest, seed):
        self.fn = fn
        self.rest = np.asarray(rest, dtype=np.int64)
        self.seed = np.asarray(seed, dtype=np.int64)

    def _whole(self, order):
        return np.concatenate((self.rest[order], self.seed))

    def suffix_values(self, order):
        return self.fn.suffix_values(self._whole(order))[:self.rest.size]

    def suffix_flags(self, order):
        return self.fn.suffix_flags(self._whole(order))[:self.rest.size]


class WeightedSum:
    """Linear combination sum_k coeff_k * fn_k of set functions."""

    def __init__(self, terms):
        self.terms = tuple((float(c), fn) for c, fn in terms)

    def suffix_values(self, order):
        total = np.zeros(order.size)
        for c, fn in self.terms:
            total += c * fn.suffix_values(order)
        return total


# ---------------------------------------------------------------------------
# D.c. structure.


class SetFunctionDC:
    """One side of a ratio in difference-of-convex form.

    ``set_function`` is the underlying set function on the whole graph
    (read by ``set_values``, and on the sets A u J of a seed block J by
    threshold sweeps through ``SeedBlock``); ``kept`` is the convex piece
    c1*max(f) + <c2, f> + mu*TV(f) that stays explicit in every inner
    problem, an ``inner.InnerProblem`` on the subgraph the active vertices
    (those outside J) induce, one ``Graph`` that both sides and every outer
    step share; ``linearized`` maps f to a subgradient of the remaining
    convex piece, which the outer loop replaces by its linearization.  The
    greedy subgradient identity <f, linearized(f)> = (that piece's
    extension at f) makes the extension value of A -> set_function(A u J)
    exactly computable:

        numerator:    kept(f) - <f, linearized(f)>
        denominator:  <f, linearized(f)> - kept(f)
    """

    def __init__(self, set_function, kept, linearized):
        self.set_function = set_function
        self.kept = kept
        self.linearized = linearized
