"""Problem builders: seeded maximum-density and local balanced-cut ratios.

Both applications are instances of minimizing a ratio of non-negative set
functions subject to volume bounds and a seed-containment constraint.  The
seed constraint is folded out exactly: optimizing over A in the complement of
the seed J, with C = A u J, constants like vol(J) and assoc(J) ride along on
the nonempty-set indicator (whose extension is max(f)), and boundary weights
d_i^J = sum_{j in J} w_ij become modular terms.  Each volume constraint is
carried onto the active vertices as a VolumeConstraint whose offset is the
seed volume.  A builder assembles this data once, with the unpenalized
numerator as the problem's objective and the two sides of the ratio at the
bare seed (A empty) as plain numbers; this reduced ratio is the only
encoding of the problem, and ``ConstrainedRatioProblem.score`` evaluates
every set through it.  The penalty weight gamma only enters through
``ConstrainedRatioProblem.with_gamma``, whose numerator adds gamma times
each penalty as a difference of submodular functions.

The unconstrained maximum-density problem is convex-over-concave, so the
descent scheme degenerates to parametric root finding; each parametric
subproblem is an s-t minimum cut, solved exactly here.  Batch peeling gives
the root finding a near-optimal start, and that start's ratio bounds a core
outside of which no optimal set has a vertex, so the cuts run on the core
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import VolumeConstraint
from .graph import (Graph, as_index_array, as_vertex_weights, assoc_value,
                    volume)
from .inner import InnerProblem, edge_norm_sq
from .lovasz import (ModularVolume, SeededAssoc, SeededBalance, SeededCut,
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


@dataclass(frozen=True, eq=False)
class _SeedReduction:
    """A problem folded onto the active vertices outside its seed block J.

    ``boundary[i]`` is d_i^J = sum_{j in J} w_ij for active vertex i, and
    ``constraints[k]`` is constraint k on the active vertices, with the seed
    volume vol_h(J) as its offset.  Nothing here depends on the penalty
    weight, so one reduction serves every gamma of a solve.
    """

    seed: np.ndarray
    active: np.ndarray
    subgraph: Graph
    boundary: np.ndarray
    constraints: tuple

    def kept(self, linear, fmax=0.0, tv=0.0):
        """Convex piece fmax*max(f) + <linear, f> + tv*TV(f) on the active graph."""
        sub = self.subgraph
        return InnerProblem(fmax, linear, tv, sub.edge_u, sub.edge_v, sub.edge_w)


def _reduce_seed(graph, seed, constraints):
    """Fold the seed block out of a problem with volume constraints.

    The seed is deduplicated; the active vertices are the rest, with their
    induced subgraph and boundary weights.  Each constraint
    vol_h(A u J) <= k (or >= k) becomes the same bound on the active
    vertices with offset vol_h(J).
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
    reduced = tuple(
        VolumeConstraint(c.weights[active], c.bound, c.upper,
                         volume(c.weights, seed))
        for c in constraints)
    return _SeedReduction(seed, active, sub, boundary[active], reduced)


def build_max_density(graph: Graph, spec: DensityProblemSpec):
    """Assemble the seed-reduced constrained density problem.

    On active vertices, the objective vol_g(A u J) is the kept convex piece
    <g, f> + vol_g(J) max(f) with nothing linearized; the denominator keeps
    the active-graph TV and linearizes <d + d^J, f> + assoc(J) max(f).
    Raises InfeasibleProblem when the bare seed is the only set within the
    upper bound but has no association, so that no feasible set has a
    defined ratio.
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
    red = _reduce_seed(graph, spec.seed, constraints)
    seed, active = red.seed, red.active
    assoc_j = assoc_value(graph, seed)
    if spec.upper is not None:
        vol_hj = volume(h, seed)
        if spec.upper < vol_hj - 1e-12:
            raise InfeasibleProblem("upper volume bound below the seed volume")
        if assoc_j <= 0 and np.all(h[active] > spec.upper - vol_hj + 1e-12):
            raise InfeasibleProblem("only the bare seed fits under the upper "
                                    "bound, and its association is zero")
    vol_gj = volume(g, seed)
    g_act = g[active]
    m = active.size

    no_linear = np.zeros(m)
    objective = SetFunctionDC(ModularVolume(g_act, vol_gj),
                              red.kept(g_act, vol_gj), lambda f: no_linear)
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
        objective=objective, denominator=denominator,
        constraints=tuple(constraints), reduced_constraints=red.constraints,
        seed_numerator=vol_gj, seed_denominator=assoc_j,
        denominator_max=assoc_value(graph, np.arange(n)),
        edge_sigma_sq=edge_norm_sq(objective.kept))


def build_local_ncut(graph: Graph, spec: NCutProblemSpec):
    """Assemble the seed-reduced local balanced-cut problem.

    The objective cut(A u J) keeps TV on the active graph plus
    cut(J, V\\J) max(f), and linearizes d^J.  The denominator
    (vol(C) vol(complement)) is submodular on reduced sets, so nothing is
    kept and s1 is its greedy subgradient.
    """
    d = graph.degrees
    constraints = ()
    if spec.bound is not None:
        constraints = (VolumeConstraint(d, spec.bound, upper=True),)
    red = _reduce_seed(graph, spec.seed, constraints)
    seed, active = red.seed, red.active
    if seed.size == 0:
        raise ValueError("the local cut problem requires a non-empty seed set")
    vol_dj = volume(d, seed)
    vol_total = float(d.sum())
    if vol_dj >= vol_total:
        raise InfeasibleProblem("the seed set already covers the graph volume")
    if spec.bound is not None and vol_dj >= spec.bound:
        raise InfeasibleProblem("volume bound does not exceed the seed volume")
    dj = red.boundary
    cut_j = float(dj.sum())
    m = active.size

    objective = SetFunctionDC(SeededCut(red.subgraph, dj, cut_j),
                              red.kept(np.zeros(m), cut_j, 1.0), lambda f: dj)
    balance = SeededBalance(d[active], vol_dj)

    def s1(f):
        return greedy_subgradient(balance, f)

    return ConstrainedRatioProblem(
        graph=graph, seed_ids=seed, active_ids=active,
        objective=objective,
        denominator=SetFunctionDC(balance, red.kept(np.zeros(m)), s1),
        constraints=constraints, reduced_constraints=red.constraints,
        seed_numerator=cut_j, seed_denominator=vol_dj * (vol_total - vol_dj),
        denominator_max=0.25 * vol_total * vol_total,
        edge_sigma_sq=edge_norm_sq(objective.kept))


def solve_max_density(graph, spec, cfg=None):
    """Constrained density solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(build_max_density(graph, spec), cfg)


def solve_local_ncut(graph, spec, cfg=None):
    """Local balanced-cut solve with the gamma feasibility schedule."""
    return solve_with_gamma_schedule(build_local_ncut(graph, spec), cfg)


def _parametric_cut(graph, g):
    """Minimizers of vol_g(C) - lam * assoc(C) over all C, for falling lam.

    Returns ``cut(lam) -> (members, value)``, backed by one s-t network that
    holds the lam-subproblem's capacities divided by lam: source->j with
    2*d_j, 2*w_ij both ways inside the graph, and j->sink with 2*g_j/lam.
    The cut for a candidate C equals 2*vol_d(V) + 2*(vol_g(C)/lam - assoc(C)),
    so the minimum-cut source side minimizes the subproblem, whose value is
    lam*(0.5*flow - vol_d(V)).  Only the sink arcs depend on lam, and they
    grow as lam falls: each call raises them and augments the flow of the
    call before.  A lam above the previous one raises ValueError.
    """
    n = graph.n
    net = FlowNetwork(n + 2)
    s, t = n, n + 1
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        net.add_edge(int(u), int(v), 2.0 * w, 2.0 * w)
    sink = []  # (arc j->sink, 2*g_j)
    for j in range(n):
        net.add_edge(s, j, 2.0 * graph.degrees[j])
        sink.append((net.add_edge(j, t, 0.0), 2.0 * float(g[j])))
    vol_d = float(graph.degrees.sum())
    inv_lam, flow = 0.0, 0.0

    def cut(lam):
        nonlocal inv_lam, flow
        inv = 1.0 / lam
        if inv < inv_lam:
            raise ValueError("the parametric cut takes a non-increasing lam")
        for e, c in sink:
            net.cap[e] += c * (inv - inv_lam)
        inv_lam = inv
        flow += net.max_flow(s, t)
        members = np.nonzero(net.min_cut_source_side()[:n])[0]
        return members, lam * (0.5 * flow - vol_d)

    return cut


def _inner_degrees(graph, alive):
    """Weighted degree of every vertex inside the vertex mask ``alive``."""
    inside = alive[graph.edge_u] & alive[graph.edge_v]
    w = np.where(inside, graph.edge_w, 0.0)
    return (np.bincount(graph.edge_u, w, graph.n)
            + np.bincount(graph.edge_v, w, graph.n))


def _peel(graph, g):
    """The set of lowest ratio vol_g/assoc met by batch peeling.

    Each pass scores the surviving set R and drops every vertex with
    deg_R(v)*lam <= PEEL_FACTOR*g_v, lam being R's ratio.  The g-weighted
    mean of deg_R*lam/g over R is 1, so every pass drops a vertex, and with
    positive g at least a third of R's g-volume (Charikar, APPROX 2000, and
    the batch form of Bahmani, Kumar & Vassilvitskii, PVLDB 2012).
    """
    alive = np.ones(graph.n, dtype=bool)
    best, best_lam = None, np.inf
    while True:
        deg = _inner_degrees(graph, alive)
        assoc = deg.sum()
        if assoc <= 0:
            return best
        lam = g[alive].sum() / assoc
        if lam < best_lam:
            best, best_lam = np.nonzero(alive)[0], lam
        alive &= deg * lam > PEEL_FACTOR * g


def _dense_core(graph, g, lam):
    """Vertices left after repeatedly dropping, from the survivors R, every
    v with 2*deg_R(v)*lam < g_v.

    Removing a vertex v from an optimal set C cannot lower its ratio lam*,
    so 2*deg_C(v)*lam* >= g_v.  While C lies inside R, deg_R(v) >=
    deg_C(v); so for lam >= lam* no vertex of any optimal set is dropped.
    The 1e-9 slack covers rounding in lam and in the degrees.
    """
    alive = np.ones(graph.n, dtype=bool)
    while True:
        drop = alive & (2.0 * _inner_degrees(graph, alive) * lam
                        * (1.0 + 1e-9) < g)
        if not drop.any():
            return np.nonzero(alive)[0]
        alive &= ~drop


def dinkelbach_max_density(graph, g=None):
    """Globally optimal unconstrained density: minimize vol_g(C)/assoc(C).

    Parametric root finding: at each weight lam, the subproblem
    min_C vol_g(C) - lam*assoc(C) is an s-t minimum cut; lam strictly
    decreases until the subproblem value reaches zero, which certifies
    global optimality.  The first lam is the ratio of the set that batch
    peeling finds (``_peel``), and the cuts run on the subgraph induced by
    the core that lam defines (``_dense_core``), which holds every optimal
    set.  All steps share one flow network (see ``_parametric_cut``), which
    keeps its flow from one lam to the next.  Returns (set, ratio); the
    maximum density is assoc/vol_g = 1/ratio.
    """
    if graph.num_edges == 0:
        raise ValueError("density is undefined on a graph without edges")
    g = as_vertex_weights(g if g is not None else np.ones(graph.n), graph.n)
    best = _peel(graph, g)
    lam = volume(g, best) / assoc_value(graph, best)
    # No set has a negative ratio.  Peeling drops a vertex of zero g-weight
    # only at ratio 0 or once it has no neighbour left, so it reaches ratio
    # 0 whenever some set has it, and every lam below is positive.
    if lam <= 0:
        return best, lam
    scale = float(g.sum())
    core, ids = graph.induced_subgraph(_dense_core(graph, g, lam))
    cut = _parametric_cut(core, g[ids])
    for _ in range(DINKELBACH_MAX_STEPS):
        members, sub_value = cut(lam)
        if sub_value >= -DINKELBACH_TOL * scale or members.size == 0:
            break
        members = ids[members]
        assoc = assoc_value(graph, members)
        if assoc <= 0:
            break
        lam_new = volume(g, members) / assoc
        if lam_new >= lam * (1.0 - DINKELBACH_TOL):
            break
        best, lam = members, lam_new
    return best, lam
