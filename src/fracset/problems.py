"""Problem builders: seeded maximum-density and local balanced-cut ratios.

Both applications are instances of minimizing a ratio of non-negative set
functions subject to volume bounds and a seed-containment constraint.  The
seed constraint is folded out exactly: optimizing over A in the complement of
the seed J, with C = A u J, constants like vol(J) and assoc(J) ride along on
the nonempty-set indicator (whose extension is max(f)), and boundary weights
d_i^J = sum_{j in J} w_ij become modular terms.  Volume penalties enter the
numerator with weight gamma as differences of submodular functions.

The unconstrained maximum-density problem is convex-over-concave, so the
descent scheme degenerates to parametric root finding; each parametric
subproblem is an s-t minimum cut, solved exactly here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import VolumeConstraint, penalty_dc
from .graph import (Graph, as_index_array, as_vertex_weights, assoc_value,
                    cut_value, volume)
from .inner import InnerProblem
from .lovasz import (LowerPenalty, ModularVolume, SeededAssoc, SeededBalance,
                     SeededCut, SetFunctionDC, UpperPenalty, WeightedSum,
                     greedy_subgradient)
from .maxflow import FlowNetwork
from .ratiodca import (ConstrainedRatioProblem, InfeasibleProblem,
                       solve_with_gamma_schedule)

__all__ = [
    "DensityProblemSpec",
    "NCutProblemSpec",
    "build_local_ncut",
    "build_max_density",
    "dinkelbach_max_density",
    "solve_local_ncut",
    "solve_max_density",
]


@dataclass
class DensityProblemSpec:
    """Maximize assoc(C)/vol_g(C) s.t. lower <= vol_h(C) <= upper and seed in C.

    Solved in minimization form vol_g(C)/assoc(C).  ``g`` and ``h`` default
    to all-ones (cardinality).  Bounds may each be None.
    """

    seed: tuple = ()
    g: np.ndarray | None = None
    h: np.ndarray | None = None
    lower: float | None = None
    upper: float | None = None


@dataclass
class NCutProblemSpec:
    """Minimize cut(C)/(vol_d(C) vol_d(complement)) s.t. vol_d(C) <= bound, seed in C."""

    seed: tuple = ()
    bound: float | None = None


@dataclass(frozen=True, eq=False)
class _SeedReduction:
    """A problem folded onto the active vertices outside its seed block J.

    ``boundary[i]`` is d_i^J = sum_{j in J} w_ij for active vertex i,
    ``offsets[k]`` the volume vol_h(J) of constraint k, and ``penalties``
    the (d.c. split, sweepable penalty) pairs of the constraints that enter
    the numerator with weight ``gamma``, both on active vertices.
    """

    seed: np.ndarray
    active: np.ndarray
    subgraph: Graph
    boundary: np.ndarray
    offsets: tuple
    gamma: float
    penalties: tuple

    def kept(self, linear, fmax=0.0, tv=0.0):
        """Convex piece fmax*max(f) + <linear, f> + tv*TV(f) on the active graph."""
        sub = self.subgraph
        return InnerProblem(fmax, linear, tv, sub.edge_u, sub.edge_v, sub.edge_w)

    def numerator(self, set_function, linear, fmax, tv, linearized_base):
        """set_function + gamma * penalties in d.c. form.

        Each penalty splits as modular*vol_h + pmax_coefficient*[A nonempty]
        - min(cap, vol_h): the first two parts join the kept piece
        fmax*max(f) + <linear, f> + tv*TV(f), the truncated volume is
        linearized on top of ``linearized_base``.
        """
        gamma = self.gamma
        terms = [(1.0, set_function)]
        for dc, sweep in self.penalties:
            if dc.modular:
                linear = linear + gamma * dc.weights
            fmax += gamma * dc.pmax_coefficient
            terms.append((gamma, sweep))

        def linearized(f):
            t = np.zeros(self.active.size)
            for dc, _ in self.penalties:
                t += dc.subgradient(f)
            return linearized_base + gamma * t

        return SetFunctionDC(WeightedSum(terms), self.kept(linear, fmax, tv),
                             linearized)


def _reduce_seed(graph, seed, constraints, gamma):
    """Fold the seed block out of a problem with volume constraints.

    The seed is deduplicated; the active vertices are the rest, with their
    induced subgraph and boundary weights.  At gamma > 0 each constraint
    vol_h(A u J) <= k (or >= k) becomes the penalty of vol_h(A) <= k -
    vol_h(J) on the active vertices; a lower bound the seed already meets
    is vacuous and dropped.
    """
    seed = np.unique(as_index_array(seed, graph.n))
    seed_mask = np.zeros(graph.n, dtype=bool)
    seed_mask[seed] = True
    active = np.nonzero(~seed_mask)[0]
    sub, _ = graph.induced_subgraph(active)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    boundary = np.zeros(graph.n)
    if ew.size:
        su = seed_mask[eu]
        sv = seed_mask[ev]
        sel = sv & ~su
        boundary += np.bincount(eu[sel], weights=ew[sel], minlength=graph.n)
        sel = su & ~sv
        boundary += np.bincount(ev[sel], weights=ew[sel], minlength=graph.n)
    offsets = tuple(volume(c.weights, seed) for c in constraints)
    penalties = []
    for c, off in zip(constraints, offsets):
        reduced = c.bound - off
        if gamma <= 0 or (not c.upper and reduced <= 0):
            continue
        w = c.weights[active]
        dc = penalty_dc(VolumeConstraint(w, max(0.0, reduced), upper=c.upper))
        sweep = (UpperPenalty if c.upper else LowerPenalty)(w, c.bound, off)
        penalties.append((dc, sweep))
    return _SeedReduction(seed, active, sub, boundary[active], offsets,
                          float(gamma), tuple(penalties))


def build_max_density(graph: Graph, spec: DensityProblemSpec, gamma=0.0):
    """Assemble the seed-reduced constrained density problem at penalty gamma.

    On active vertices, the kept convex numerator piece is
    <g + gamma*h, f> + vol_g(J) max(f) (+ gamma*k1' max(f) for a lower
    bound), its linearized complement is gamma times the truncated-volume
    subgradients; the denominator keeps the active-graph TV and linearizes
    <d + d^J, f> + assoc(J) max(f).
    """
    n = graph.n
    g = as_vertex_weights(spec.g if spec.g is not None else np.ones(n), n)
    h = as_vertex_weights(spec.h if spec.h is not None else np.ones(n), n)
    if graph.num_edges == 0:
        raise InfeasibleProblem("graph has no edges; association is identically zero")
    if spec.lower is not None and spec.upper is not None and spec.lower > spec.upper:
        raise ValueError("lower volume bound exceeds the upper bound")
    constraints = []
    if spec.upper is not None:
        constraints.append(VolumeConstraint(h, spec.upper, upper=True))
    if spec.lower is not None:
        constraints.append(VolumeConstraint(h, spec.lower, upper=False))
    red = _reduce_seed(graph, spec.seed, constraints, gamma)
    seed, active = red.seed, red.active
    if spec.upper is not None and spec.upper < volume(h, seed) - 1e-12:
        raise InfeasibleProblem("upper volume bound below the seed volume")
    assoc_j = assoc_value(graph, seed)
    vol_gj = volume(g, seed)
    g_act = g[active]
    m = active.size

    numerator = red.numerator(ModularVolume(g_act, vol_gj), g_act, vol_gj, 0.0,
                              np.zeros(m))
    s1_base = graph.degrees[active] + red.boundary

    def s1(f):
        s = s1_base.copy()
        if assoc_j > 0 and f.size:
            s[int(np.argmax(f))] += assoc_j
        return s

    denominator = SetFunctionDC(SeededAssoc(red.subgraph, red.boundary, assoc_j),
                                red.kept(np.zeros(m), tv=1.0), s1)
    return ConstrainedRatioProblem(
        graph=graph, seed_ids=seed, active_ids=active,
        numerator=numerator, denominator=denominator,
        constraints=tuple(constraints), seed_offsets=red.offsets,
        gamma=float(gamma),
        unpenalized_numerator=lambda C: volume(g, C),
        denominator_full=lambda C: assoc_value(graph, C),
        denominator_max=assoc_value(graph, np.arange(n)))


def build_local_ncut(graph: Graph, spec: NCutProblemSpec, gamma=0.0):
    """Assemble the seed-reduced local balanced-cut problem at penalty gamma.

    The numerator keeps TV on the active graph plus cut(J, V\\J) max(f) plus
    the penalty's modular part, and linearizes d^J plus the truncated-volume
    subgradient.  The denominator (vol(C) vol(complement)) is submodular on
    reduced sets, so nothing is kept and s1 is its greedy subgradient.
    """
    d = graph.degrees
    constraints = ()
    if spec.bound is not None:
        constraints = (VolumeConstraint(d, spec.bound, upper=True),)
    red = _reduce_seed(graph, spec.seed, constraints, gamma)
    seed, active = red.seed, red.active
    if seed.size == 0:
        raise ValueError("the local cut problem requires a non-empty seed set")
    vol_total = float(d.sum())
    vol_dj = volume(d, seed)
    if vol_dj >= vol_total:
        raise InfeasibleProblem("the seed set already covers the graph volume")
    if spec.bound is not None and vol_dj >= spec.bound:
        raise InfeasibleProblem("volume bound does not exceed the seed volume")
    dj = red.boundary
    cut_j = float(dj.sum())
    m = active.size

    numerator = red.numerator(SeededCut(red.subgraph, dj, cut_j), np.zeros(m),
                              cut_j, 1.0, dj)
    balance = SeededBalance(d[active], vol_dj, vol_total)

    def s1(f):
        return greedy_subgradient(balance, f)

    def den_full(C):
        vol = volume(d, C)
        return vol * (vol_total - vol)

    return ConstrainedRatioProblem(
        graph=graph, seed_ids=seed, active_ids=active,
        numerator=numerator,
        denominator=SetFunctionDC(balance, red.kept(np.zeros(m)), s1),
        constraints=constraints, seed_offsets=red.offsets, gamma=float(gamma),
        unpenalized_numerator=lambda C: cut_value(graph, C),
        denominator_full=den_full,
        denominator_max=0.25 * vol_total * vol_total)


def solve_max_density(graph, spec, cfg=None, warm_starts=()):
    """Constrained density solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(
        lambda gamma: build_max_density(graph, spec, gamma), cfg, warm_starts)


def solve_local_ncut(graph, spec, cfg=None, warm_starts=()):
    """Local balanced-cut solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(
        lambda gamma: build_local_ncut(graph, spec, gamma), cfg, warm_starts)


def _parametric_cut(graph, g, lam):
    """Minimize vol_g(C) - lam * assoc(C) over all C via one s-t min-cut.

    Capacities: source->j with 2*lam*d_j, j->sink with 2*g_j, and 2*lam*w_ij
    inside the graph; the cut for a candidate C equals
    2*lam*vol_d(V) + 2*(vol_g(C) - lam*assoc(C)), so the minimum-cut source
    side minimizes the parametric objective.
    """
    n = graph.n
    net = FlowNetwork(n + 2)
    s, t = n, n + 1
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        cap = 2.0 * lam * w
        net.add_edge(int(u), int(v), cap, cap)
    for j in range(n):
        net.add_edge(s, j, 2.0 * lam * graph.degrees[j], 0.0)
        net.add_edge(j, t, 2.0 * g[j], 0.0)
    flow = net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    members = np.nonzero(side[:n])[0]
    sub_value = 0.5 * flow - lam * float(graph.degrees.sum())
    return members, sub_value


def dinkelbach_max_density(graph, g=None, tol=1e-9, max_iter=100):
    """Globally optimal unconstrained density: minimize vol_g(C)/assoc(C).

    Parametric root finding: at each weight lam, the subproblem
    min_C vol_g(C) - lam*assoc(C) is an s-t minimum cut; lam strictly
    decreases until the subproblem value reaches zero, which certifies
    global optimality.  Returns (set, ratio); the maximum density is
    assoc/vol_g = 1/ratio.
    """
    if graph.num_edges == 0:
        raise ValueError("density is undefined on a graph without edges")
    g = as_vertex_weights(g if g is not None else np.ones(graph.n), graph.n)
    everything = np.arange(graph.n)
    best = everything
    lam = volume(g, everything) / assoc_value(graph, everything)
    scale = max(1.0, float(g.sum()))
    for _ in range(max_iter):
        members, sub_value = _parametric_cut(graph, g, lam)
        if sub_value >= -tol * scale or members.size == 0:
            break
        assoc = assoc_value(graph, members)
        if assoc <= 0:
            break
        lam_new = volume(g, members) / assoc
        if lam_new >= lam - tol * max(1.0, lam):
            break
        best, lam = members, lam_new
    return best, lam
