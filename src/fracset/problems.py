"""Problem builders: seeded maximum-density and local balanced-cut ratios.

Both applications are instances of minimizing a ratio of non-negative set
functions subject to volume bounds and a seed-containment constraint.  The
seed constraint is handled exactly: the solver optimizes over A in the
complement of the seed J, on the sets C = A u J.  The set functions and
volume constraints are defined on the whole graph and read on those sets
through ``lovasz.SeedBlock``.  Only the d.c. pieces are written on the
active vertices: constants like vol(J) and assoc(J) ride along on the
nonempty-set indicator (whose extension is max(f)), and boundary weights
d_i^J = sum_{j in J} w_ij become modular terms.  A builder assembles this
data once, with the unpenalized numerator as the problem's objective, and
``ConstrainedRatioProblem.score`` evaluates every set, the bare seed
included, from the whole-graph set functions.  The penalty weight gamma
only enters through ``ConstrainedRatioProblem.with_gamma``, whose numerator
adds gamma times each penalty as a difference of submodular functions.

The unconstrained maximum-density problem is convex-over-concave, so the
descent scheme degenerates to parametric root finding; each parametric
subproblem is an s-t minimum cut, solved exactly here.  Batch peeling gives
the root finding a near-optimal start, and that start's ratio bounds a core
outside of which no optimal set has a vertex.  Peeling the core and pruning
with the lower ratio it finds repeat until peeling finds none; each core
still holds every optimal set, since every ratio is a set's and so no lower
than the optimum.  These passes and the cuts on the last core, one flow
network per cut, all run on the survivors' edge arrays, and no graph is
built; the start is then often optimal, and one cut certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import VolumeConstraint
from .graph import (Graph, as_index_array, as_vertex_weights, assoc_value,
                    edges_among, volume, weighted_degrees)
from .inner import InnerProblem
from .lovasz import (Assoc, Balance, Cut, ModularVolume, SeedBlock,
                     SetFunctionDC, greedy_subgradient)
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


# Dinkelbach stops when the subproblem value is within DINKELBACH_TOL *
# vol_g(V) of zero or lam drops by less than a DINKELBACH_TOL fraction, and
# after at most DINKELBACH_MAX_STEPS cuts.  Both tests scale with the weights.
DINKELBACH_TOL = 1e-9
DINKELBACH_MAX_STEPS = 100
# A peeling pass keeps the vertices whose inner degree times the pass's ratio
# exceeds PEEL_FACTOR times their g-weight.
PEEL_FACTOR = 1.5


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


def _reduce_seed(graph, seed, constraints):
    """Split the vertices into the seed block J and the active rest.

    Returns (seed, active, subgraph, boundary): the deduplicated seed; the
    active vertices, the rest; their induced subgraph, on which the d.c.
    pieces are built; and ``boundary[i]`` = d_i^J = sum_{j in J} w_ij for
    active vertex i.  Nothing here depends on the penalty weight, so one
    reduction serves every gamma of a solve.  A volume grows with the set,
    so a constraint that J (an upper bound) or V (a lower bound) breaks
    holds on no set that contains J: InfeasibleProblem names it.
    """
    seed = np.unique(as_index_array(seed, graph.n))
    for c in constraints:
        if not c.satisfied(seed if c.upper else np.arange(graph.n)):
            raise InfeasibleProblem(f"no superset of the seed meets {c}")
    seed_mask = np.zeros(graph.n, dtype=bool)
    seed_mask[seed] = True
    active = np.nonzero(~seed_mask)[0]
    sub, _ = graph.induced_subgraph(active)
    boundary = graph.neighbor_sum(seed_mask)
    return seed, active, sub, boundary[active]


def build_max_density(graph: Graph, spec: DensityProblemSpec):
    """Assemble the seed-reduced constrained density problem.

    On active vertices, the objective vol_g(A u J) is the kept convex piece
    <g, f> + vol_g(J) max(f) with nothing linearized; the denominator keeps
    the active-graph TV and linearizes <d + d^J, f> + assoc(J) max(f).
    Raises InfeasibleProblem as ``_reduce_seed`` does, and when the bare
    seed is the only set within the upper bound but has no association, so
    that no feasible set has a defined ratio.
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
    seed, active, sub, boundary = _reduce_seed(graph, spec.seed, constraints)
    assoc_j = assoc_value(graph, seed)
    # J holds no edge of the graph, so some vertex is active; if the
    # lightest active vertex does not fit beside J, no other does
    if assoc_j <= 0 and spec.upper is not None and not constraints[0].satisfied(
            np.append(seed, active[np.argmin(h[active])])):
        raise InfeasibleProblem("only the bare seed fits under the upper "
                                "bound, and its association is zero")
    vol_gj = volume(g, seed)
    g_act = g[active]

    no_linear = np.zeros(active.size)
    objective = SetFunctionDC(ModularVolume(g),
                              InnerProblem(vol_gj, g_act, 0.0, sub),
                              lambda f: no_linear)
    s1_base = graph.degrees[active] + boundary

    def s1(f):
        s = s1_base.copy()
        if assoc_j > 0 and f.size:
            s[int(np.argmax(f))] += assoc_j
        return s

    denominator = SetFunctionDC(Assoc(graph),
                                InnerProblem(0.0, no_linear, 1.0, sub), s1)
    return ConstrainedRatioProblem(
        seed_ids=seed, active_ids=active, objective=objective,
        denominator=denominator, constraints=tuple(constraints),
        denominator_max=assoc_value(graph, np.arange(n)))


def build_local_ncut(graph: Graph, spec: NCutProblemSpec):
    """Assemble the seed-reduced local balanced-cut problem.

    The objective cut(A u J) keeps TV on the active graph plus
    cut(J, V\\J) max(f), and linearizes d^J.  The denominator
    vol(C) vol(complement) is submodular on the sets A u J, so nothing is
    kept and s1 is its greedy subgradient there.
    """
    d = graph.degrees
    constraints = ()
    if spec.bound is not None:
        constraints = (VolumeConstraint(d, spec.bound, upper=True),)
    seed, active, sub, dj = _reduce_seed(graph, spec.seed, constraints)
    if seed.size == 0:
        raise ValueError("the local cut problem requires a non-empty seed set")
    vol_total = float(d.sum())
    if volume(d, seed) >= vol_total:
        raise InfeasibleProblem("the seed set already covers the graph volume")
    cut_j = float(dj.sum())
    zeros = np.zeros(active.size)

    objective = SetFunctionDC(Cut(graph),
                              InnerProblem(cut_j, zeros, 1.0, sub), lambda f: dj)
    balance = Balance(d)
    on_active = SeedBlock(balance, active, seed)

    def s1(f):
        return greedy_subgradient(on_active, f)

    return ConstrainedRatioProblem(
        seed_ids=seed, active_ids=active, objective=objective,
        denominator=SetFunctionDC(balance, InnerProblem(0.0, zeros, 0.0, sub),
                                  s1),
        constraints=constraints, denominator_max=0.25 * vol_total * vol_total)


def solve_max_density(graph, spec, cfg=None):
    """Constrained density solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(build_max_density(graph, spec), cfg)


def solve_local_ncut(graph, spec, cfg=None):
    """Local balanced-cut solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(build_local_ncut(graph, spec), cfg)


def _min_cut(part, g, lam):
    """(keep, value): the least minimizer of vol_g(C) - lam * assoc(C) over
    all C inside the survivors ``part``, as a mask over ``part.ids``, and
    that minimum.

    One s-t network on R = ``part.ids``, relabelled 0..|R|-1, holds the
    subproblem's capacities divided by lam: source->j with 2*deg_R(j),
    2*w_ij both ways inside R, and j->sink with 2*g_j/lam.  The cut for a
    candidate C equals 2*vol_d(R) + 2*(vol_g(C)/lam - assoc(C)), so the
    minimum-cut source side minimizes the subproblem, whose value is
    lam*(0.5*flow - vol_d(R)).

    The network starts with min(2*deg_R(j), 2*g_j/lam) pushed along each
    path source->j->sink, the path of two arcs that needs no search;
    max-flow then routes only the flow that has to cross edges of R.  Every
    maximum flow leaves the same vertices reachable from the source, the
    least minimizer of the subproblem, so the pre-push moves no answer.
    One ``add_edge`` call builds the network, in this edge order: R's edges
    in edge order, then source->j for every j, then j->sink for every j.
    """
    n = part.ids.size
    s, t = n, n + 1
    j = np.arange(n)
    source, sink = 2.0 * part.degrees, 2.0 * g[part.ids] * (1.0 / lam)
    pushed = np.minimum(source, sink)
    w = 2.0 * part.w
    net = FlowNetwork(n + 2)
    net.add_edge(
        np.concatenate((np.searchsorted(part.ids, part.u), np.full(n, s), j)),
        np.concatenate((np.searchsorted(part.ids, part.v), j, np.full(n, t))),
        np.concatenate((w, source - pushed, sink - pushed)),
        np.concatenate((w, pushed, pushed)))
    # cumsum adds in vertex order; np.sum's pairwise order would move the
    # last bits of the value that Dinkelbach's stopping test reads
    flow = float(np.cumsum(pushed)[-1]) + net.max_flow(s, t)
    keep = net.min_cut_source_side()[:n]
    return keep, lam * (0.5 * flow - float(part.degrees.sum()))


class _Survivors(NamedTuple):
    """A vertex set R of an n-vertex graph, the edges it induces and its
    inner degrees.

    ``ids`` lists R sorted; (u, v, w) are R's edges in the graph's own ids
    and edge order, so a pass over R needs no subgraph: the ids it keeps
    pick the edges that remain, and a cut relabels them (``_min_cut``).
    ``degrees`` holds deg_R(v) for v in ids, summed once where the set is
    made by ``weighted_degrees`` over R's edges in edge order: bit for bit
    the degrees of the subgraph R induces.
    """

    n: int
    ids: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    degrees: np.ndarray

    @classmethod
    def whole(cls, graph):
        """R = every vertex of ``graph``, with the graph's own degrees."""
        return cls(graph.n, np.arange(graph.n), graph.edge_u, graph.edge_v,
                   graph.edge_w, graph.degrees)

    def keep(self, keep):
        """The survivors ids[keep], a boolean mask over ids."""
        ids = self.ids[keep]
        mask = np.zeros(self.n, dtype=bool)
        mask[ids] = True
        u, v, w = edges_among(mask, self.u, self.v, self.w)
        return _Survivors(self.n, ids, u, v, w,
                          weighted_degrees(self.n, u, v, w)[ids])


def _ratio(g_r, part):
    """vol_g(R)/assoc(R) of the survivors R from g_r = g[R.ids], bit for bit
    the ratio of ``volume`` and ``assoc_value``: the same sums in order."""
    return float(g_r.sum()) / (2.0 * float(part.w.sum()))


def _peel(g, part):
    """(set, ratio) of the lowest ratio vol_g/assoc met by batch peeling.

    Each pass scores the surviving set R, starting from ``part``, by
    ``_ratio`` and drops every vertex with deg_R(v)*lam <= PEEL_FACTOR*g_v,
    lam being R's ratio.  The g-weighted mean of deg_R*lam/g over R is 1,
    so every pass drops a vertex, and with positive g at least a third of
    R's g-volume (Charikar, APPROX 2000, and the batch form of Bahmani,
    Kumar & Vassilvitskii, PVLDB 2012).  (None, inf) when ``part`` has no
    edge.
    """
    best, best_lam = None, np.inf
    while part.w.size:
        g_r = g[part.ids]
        lam = _ratio(g_r, part)
        if lam < best_lam:
            best, best_lam = part.ids, lam
        part = part.keep(part.degrees * lam > PEEL_FACTOR * g_r)
    return best, best_lam


def _dense_core(g, lam, part):
    """The survivors left after repeatedly dropping, from the survivors R
    (``part`` first), every v with 2*deg_R(v)*lam < g_v.

    Removing a vertex v from an optimal set C cannot lower its ratio lam*,
    so 2*deg_C(v)*lam* >= g_v.  While C lies inside R, deg_R(v) >=
    deg_C(v); so for lam >= lam* no vertex of any optimal set inside
    ``part`` is dropped.  The 1e-9 slack covers rounding in lam and in the
    degrees.  ``dinkelbach_max_density`` prunes only with ratios of sets,
    each at least lam*, and only survivors that hold every optimal set, so
    every core it visits holds them all.
    """
    while True:
        keep = 2.0 * part.degrees * lam * (1.0 + 1e-9) >= g[part.ids]
        if keep.all():
            return part
        part = part.keep(keep)


def dinkelbach_max_density(graph, g=None):
    """Globally optimal unconstrained density: minimize vol_g(C)/assoc(C).

    Parametric root finding: at each weight lam, the subproblem
    min_C vol_g(C) - lam*assoc(C) is an s-t minimum cut; lam strictly
    decreases until the subproblem value reaches zero, which certifies
    global optimality.  Returns (set, ratio); the maximum density is
    assoc/vol_g = 1/ratio.

    Before any cut, peeling and pruning alternate to a fixed point: peel
    the graph (``_peel``), prune it to the core the best ratio lam defines
    (``_dense_core``), peel that core, and while its peeling finds a lower
    ratio, prune the core again with it (a prune that drops nothing ends
    the loop too: peeling the same set again finds the same ratio).  Every
    lam is the ratio of a set, so lam >= lam*, and pruning any set that
    holds every optimal set with such a lam keeps them all: each core holds
    every optimal set.  Often the start is then optimal, and one cut
    certifies it.  The passes and the cuts run on the survivors' edge
    arrays, with no graph built: each cut builds a flow network of its own
    on the last core (``_min_cut``), and a cut's ratio is ``_ratio`` of the
    survivors it keeps, the graph's sums bit for bit.
    """
    if graph.num_edges == 0:
        raise ValueError("density is undefined on a graph without edges")
    g = as_vertex_weights(g if g is not None else np.ones(graph.n), graph.n)
    part = _Survivors.whole(graph)
    best, lam = _peel(g, part)
    # No set has a negative ratio.  Peeling drops a vertex of zero g-weight
    # only at ratio 0 or once it has no neighbour left, so it reaches ratio
    # 0 whenever some set has it, and every lam below is positive.
    if lam <= 0:
        return best, lam
    while True:
        core = _dense_core(g, lam, part)
        if core is part:  # peeling it again would find lam again
            break
        part = core
        peeled, peeled_lam = _peel(g, part)
        if not peeled_lam < lam:
            break
        best, lam = peeled, peeled_lam
    scale = float(g.sum())
    for _ in range(DINKELBACH_MAX_STEPS):
        keep, sub_value = _min_cut(part, g, lam)
        if sub_value >= -DINKELBACH_TOL * scale:
            break
        cut = part.keep(keep)
        if cut.w.size == 0:  # no edge left, so no association
            break
        lam_new = _ratio(g[cut.ids], cut)
        if lam_new >= lam * (1.0 - DINKELBACH_TOL):
            break
        best, lam = cut.ids, lam_new
    return best, lam
