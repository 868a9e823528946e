"""Lovász extensions: evaluation, greedy subgradients, and optimal thresholding.

A set function here is anything mapping an index array of vertices to a float
with value 0 on the empty set.  It may be a plain callable, or an object with
a ``value`` method and an optional ``suffix_values(order)`` fast path that
returns the values of the nested sets {order[i:], i = 0..m-1} in
O(m log m + edges) total.  The fast path is what makes threshold sweeps run
in near-linear time; plain callables fall back to one evaluation per
threshold, which is fine at small scale.

Several classes below take a constant ``offset`` (or similar) that multiplies
the nonempty-set indicator.  These carry the constants produced when a fixed
seed block is folded out of a problem, so that the reduced set function is
still zero on the empty set.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, cut_value

__all__ = [
    "ModularVolume",
    "NoFeasibleThreshold",
    "NonemptyIndicator",
    "SeededAssoc",
    "SeededBalance",
    "SeededCut",
    "SetFunctionDC",
    "SweepResult",
    "TruncatedVolume",
    "WeightedSum",
    "ascending_order",
    "greedy_subgradient",
    "lovasz_value",
    "optimal_threshold",
    "suffix_flags",
    "suffix_values",
]


class NoFeasibleThreshold(RuntimeError):
    """No threshold set passed the feasibility predicate."""


def _value_fn(fn):
    return fn.value if hasattr(fn, "value") else fn


def ascending_order(f):
    """Stable ascending argsort; ties keep index order, so sweeps are deterministic."""
    return np.argsort(f, kind="stable")


def suffix_values(fn, order):
    """Values of fn on the nested sets order[i:], i = 0..m-1."""
    hook = getattr(fn, "suffix_values", None)
    if hook is not None:
        return np.asarray(hook(order), dtype=float)
    value = _value_fn(fn)
    return np.array([value(order[i:]) for i in range(order.size)], dtype=float)


def suffix_flags(predicate, order):
    """Feasibility flags of the nested sets order[i:]; all-true when predicate is None."""
    if predicate is None:
        return np.ones(order.size, dtype=bool)
    hook = getattr(predicate, "suffix_flags", None)
    if hook is not None:
        return np.asarray(hook(order), dtype=bool)
    return np.array([bool(predicate(order[i:])) for i in range(order.size)])


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
    vals = suffix_values(fn, order)
    fs = f[order]
    return float(vals[0] * fs[0] + np.dot(vals[1:], fs[1:] - fs[:-1]))


def greedy_subgradient(fn, f):
    """Greedy vector s with s[j_i] = fn(A_i) - fn(A_{i+1}) along the ascending sort.

    Satisfies <f, s> = lovasz_value(fn, f) for any set function with
    fn(empty) = 0, and is a subgradient of the Lovász extension whenever fn
    is submodular.
    """
    f = np.asarray(f, dtype=float)
    order = ascending_order(f)
    vals = suffix_values(fn, order)
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


def optimal_threshold(f, numerator, denominator, feasibility=None):
    """Best ratio numerator(C)/denominator(C) over the threshold sets of f.

    The candidates are the distinct super-level sets {j : f_j >= t}.  Sets
    with nonpositive denominator are skipped; when a feasibility predicate is
    given, only sets passing it are considered.  Ties are resolved toward the
    smallest set.  Raises NoFeasibleThreshold when the predicate rejects
    every candidate, and ValueError when every candidate has a nonpositive
    denominator.
    """
    f = np.asarray(f, dtype=float)
    if f.size == 0:
        raise ValueError("cannot threshold an empty vector")
    order = ascending_order(f)
    fs = f[order]
    first = np.empty(f.size, dtype=bool)
    first[0] = True
    first[1:] = fs[1:] > fs[:-1]
    starts = np.nonzero(first)[0]
    nums = suffix_values(numerator, order)
    dens = suffix_values(denominator, order)
    flags = suffix_flags(feasibility, order)
    best_i = -1
    best_val = np.inf
    saw_positive = False
    for i in starts:
        d = dens[i]
        if d <= 0.0:
            continue
        saw_positive = True
        if not flags[i]:
            continue
        val = nums[i] / d
        if val <= best_val:
            best_val = val
            best_i = int(i)
    if best_i < 0:
        if not saw_positive:
            raise ValueError("every threshold set has a nonpositive denominator")
        raise NoFeasibleThreshold("no threshold set satisfies the constraints")
    return SweepResult(np.sort(order[best_i:]), float(best_val))


# ---------------------------------------------------------------------------
# Standard set functions with incremental sweeps.


class ModularVolume:
    """vol_w(A) + offset * [A nonempty]."""

    def __init__(self, weights, offset=0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.offset = float(offset)

    def value(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self.weights[idx].sum()) + self.offset

    def suffix_values(self, order):
        return np.cumsum(self.weights[order][::-1])[::-1] + self.offset


class NonemptyIndicator:
    """1 on nonempty sets, 0 on the empty set; its Lovász extension is max(f)."""

    def value(self, idx):
        return 1.0 if np.asarray(idx).size else 0.0

    def suffix_values(self, order):
        return np.ones(order.size)


class TruncatedVolume:
    """min(cap, vol_w(A)); submodular for cap >= 0."""

    def __init__(self, weights, cap):
        if cap < 0:
            raise ValueError("truncation level must be non-negative")
        self.weights = np.asarray(weights, dtype=float)
        self.cap = float(cap)

    def value(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return min(self.cap, float(self.weights[idx].sum()))

    def suffix_values(self, order):
        vols = np.cumsum(self.weights[order][::-1])[::-1]
        return np.minimum(self.cap, vols)


def _suffix_internal_weight(subgraph, order):
    """Edge weight inside each nested set order[i:] of a full vertex order.

    An edge lies inside order[i:] iff both its ends have rank >= i, so each
    edge is counted at the rank min(pos u, pos v) and a reverse cumulative
    sum collects the suffixes.
    """
    m = order.size
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m)
    key = np.minimum(pos[subgraph.edge_u], pos[subgraph.edge_v])
    per_rank = np.bincount(key, weights=subgraph.edge_w, minlength=m)
    return np.cumsum(per_rank[::-1])[::-1]


class SeededCut:
    """cut(A u J, complement) on the reduced vertex set, zero on the empty set.

    ``subgraph`` is the induced graph on the active vertices, ``boundary[i]``
    the weight from active vertex i into the seed block, and ``boundary_cut``
    the cut between the seed block and all active vertices.  For nonempty A
    the value is cut_active(A) + boundary_cut - sum(boundary[A]).
    """

    def __init__(self, subgraph: Graph, boundary, boundary_cut):
        self.subgraph = subgraph
        self.boundary = np.asarray(boundary, dtype=float)
        self.boundary_cut = float(boundary_cut)

    def value(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return (cut_value(self.subgraph, idx) + self.boundary_cut
                - float(self.boundary[idx].sum()))

    def suffix_values(self, order):
        vols = np.cumsum(self.subgraph.degrees[order][::-1])[::-1]
        cuts = vols - 2.0 * _suffix_internal_weight(self.subgraph, order)
        bsum = np.cumsum(self.boundary[order][::-1])[::-1]
        # A cut is never negative; vol - 2 internal can round below 0.
        return np.maximum(cuts + self.boundary_cut - bsum, 0.0)


class SeededAssoc:
    """assoc(A u J) on the reduced vertex set, zero on the empty set.

    For nonempty A: assoc_active(A) + 2 sum(boundary[A]) + base, with ``base``
    the association internal to the seed block.
    """

    def __init__(self, subgraph: Graph, boundary, base):
        self.subgraph = subgraph
        self.boundary = np.asarray(boundary, dtype=float)
        self.base = float(base)

    def value(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        mask = np.zeros(self.subgraph.n, dtype=bool)
        mask[idx] = True
        internal = mask[self.subgraph.edge_u] & mask[self.subgraph.edge_v]
        return (2.0 * float(self.subgraph.edge_w[internal].sum())
                + 2.0 * float(self.boundary[idx].sum()) + self.base)

    def suffix_values(self, order):
        assoc = 2.0 * _suffix_internal_weight(self.subgraph, order)
        bsum = np.cumsum(self.boundary[order][::-1])[::-1]
        return assoc + 2.0 * bsum + self.base


class SeededBalance:
    """(vol_w(A) + offset) * vol_w(domain \\ A), zero on the empty set.

    The domain is every vertex of ``weights``; the complement's volume is
    summed over the vertices outside A, so it is exactly 0 when A is the
    whole domain.  Submodular: a concave transform of a modular function,
    with the empty-set value lowered to 0 (which preserves submodularity).
    """

    def __init__(self, weights, offset):
        self.weights = np.asarray(weights, dtype=float)
        self.offset = float(offset)

    def value(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        rest = np.ones(self.weights.size, dtype=bool)
        rest[idx] = False
        return ((float(self.weights[idx].sum()) + self.offset)
                * float(self.weights[rest].sum()))

    def suffix_values(self, order):
        w = self.weights[order]
        vols = np.cumsum(w[::-1])[::-1] + self.offset
        return vols * np.concatenate(([0.0], np.cumsum(w[:-1])))


class WeightedSum:
    """Linear combination sum_k coeff_k * fn_k of set functions."""

    def __init__(self, terms):
        self.terms = tuple((float(c), fn) for c, fn in terms)

    def value(self, idx):
        return sum(c * _value_fn(fn)(idx) for c, fn in self.terms)

    def suffix_values(self, order):
        total = np.zeros(order.size)
        for c, fn in self.terms:
            total += c * suffix_values(fn, order)
        return total


# ---------------------------------------------------------------------------
# D.c. structure.


class SetFunctionDC:
    """One side of a ratio in difference-of-convex form.

    ``set_function`` evaluates the underlying set function (used by threshold
    sweeps); ``kept`` is the convex piece c1*max(f) + <c2, f> + mu*TV(f) that
    stays explicit in every inner problem, an ``inner.InnerProblem`` on the
    reduced graph's edges; ``linearized`` maps f to a subgradient of the
    remaining convex piece, which the outer loop replaces by its
    linearization.  The greedy subgradient identity
    <f, linearized(f)> = (that piece's extension at f) makes the extension
    value exactly computable:

        numerator:    kept(f) - <f, linearized(f)>
        denominator:  <f, linearized(f)> - kept(f)
    """

    def __init__(self, set_function, kept, linearized):
        self.set_function = set_function
        self.kept = kept
        self.linearized = linearized
