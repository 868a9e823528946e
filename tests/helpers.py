"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np

import fracset as fs
from fracset.graph import GraphFormatError, as_index_array, data_lines
from fracset.inner import objective_value, simplex_project
from fracset.lovasz import ModularVolume, SeedBlock, WeightedSum


def er_graph(n, p, rng, min_edges=1):
    """Erdos-Renyi graph with unit weights; resamples until it has edges."""
    while True:
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if len(edges) >= min_edges:
            return fs.Graph.from_edges(n, edges)


def weighted_graph(n, p, rng, min_edges=1):
    while True:
        edges = [(i, j, float(rng.uniform(0.1, 2.0)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) >= min_edges:
            return fs.Graph.from_edges(n, edges)


def planted_partition(sizes, p_in, p_out, rng):
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if block[i] == block[j] else p_out
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return fs.Graph.from_edges(n, edges)


def all_subsets(n, nonempty=False):
    for mask in range(1 if nonempty else 0, 1 << n):
        yield np.array([b for b in range(n) if (mask >> b) & 1], dtype=np.int64)


def nonempty_indicator(n):
    """1 on nonempty sets, 0 on the empty set; its extension is max(f).

    It is the volume of A u J for a seed block J of one extra vertex of
    weight 1 and weight 0 everywhere else."""
    return SeedBlock(ModularVolume(np.append(np.zeros(n), 1.0)),
                     np.arange(n), [n])


def balance_value(weights, C):
    """vol(C) * vol(complement), 0 on the empty set: the value of Balance
    from graph.py's volume."""
    if len(C) == 0:
        return 0.0
    rest = np.setdiff1d(np.arange(len(weights)), C)
    return fs.volume(weights, C) * fs.volume(weights, rest)


def penalty_value(h, k, C, upper=True):
    """The exact penalty of vol_h(C) <= k (upper) or >= k (lower), 0 on the
    empty set: the value of VolumeConstraint's sweep."""
    if len(C) == 0:
        return 0.0
    vol = fs.volume(h, C)
    return max(0.0, vol - k if upper else k - vol)


def truncated_volume(h, cap):
    """min(cap, vol_h) for cap >= 0, as vol_h minus the upper-bound penalty."""
    return WeightedSum([(1.0, ModularVolume(h)),
                        (-1.0, fs.VolumeConstraint(h, cap, upper=True))])


def truncated_volume_subgradient_reference(h, cap, f):
    """The greedy subgradient of min(cap, vol_h) by its three cases.

    Along the stable ascending sort with suffix sets A_1 (all) down to A_m
    and A_{m+1} empty, the component of the i-th smallest entry is
        0                     if vol_h(A_{i+1}) > cap,
        cap - vol_h(A_{i+1})  if vol_h(A_i) >= cap and vol_h(A_{i+1}) <= cap,
        h_{j_i}               if vol_h(A_i) < cap.
    """
    h = np.asarray(h, dtype=float)
    order = np.argsort(f, kind="stable")
    hs = h[order]
    sv = np.cumsum(hs[::-1])[::-1]
    sv_next = sv - hs
    out = np.where(sv_next > cap, 0.0,
                   np.where(sv < cap, hs, cap - sv_next))
    t = np.empty(len(f))
    t[order] = np.clip(out, 0.0, hs)
    return t


def ncut_functions(graph):
    """Ncut numerator and denominator as plain callables: independent
    oracles for brute_force and direct set evaluations, not for sweeps."""
    deg = graph.degrees
    total = float(deg.sum())

    def num(C):
        return fs.cut_value(graph, C)

    def den(C):
        vol = fs.volume(deg, C)
        return vol * (total - vol)

    return num, den


def density_functions(graph, g=None):
    """Density numerator vol_g and denominator assoc as plain callables."""
    g = np.ones(graph.n) if g is None else g

    def num(C):
        return fs.volume(g, C)

    def den(C):
        return fs.assoc_value(graph, C)

    return num, den


def brute_force_reference(graph, numerator, denominator, constraints=(),
                          seed=()):
    """The per-mask loop that brute_force's bit table must match: mask bit b
    holds the b-th non-seed vertex, each set is its seed and chosen
    vertices, sorted, and a strictly lower ratio replaces the best set."""
    n = graph.n
    seed_idx = np.unique(as_index_array(seed, n))
    rest = np.setdiff1d(np.arange(n), seed_idx)
    k = rest.size
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
        d = denominator(subset)
        if d <= 0:
            continue
        val = numerator(subset) / d
        if val < best_val:
            best_val = val
            best_set = subset
    return fs.OracleResult(best_set, None if best_set is None else best_val,
                           1 << k, feasible)


def inner_grid_minimum(problem, steps=1600):
    """Direction-grid oracle for inner problems with at most 3 vertices.

    The objective is positively one-homogeneous, so its minimum over the
    nonnegative part of the unit ball is min(0, minimum over the sphere).
    The sphere octant is sampled on an angular grid.
    """
    m = problem.m
    if m == 1:
        return min(0.0, objective_value(problem, np.array([1.0])))
    if m == 2:
        th = np.linspace(0.0, np.pi / 2, steps)
        F = np.vstack([np.cos(th), np.sin(th)])
    elif m == 3:
        th = np.linspace(0.0, np.pi / 2, steps)
        ph = np.linspace(0.0, np.pi / 2, steps)
        TH, PH = np.meshgrid(th, ph)
        F = np.vstack([(np.sin(PH) * np.cos(TH)).ravel(),
                       (np.sin(PH) * np.sin(TH)).ravel(),
                       np.cos(PH).ravel()])
    else:
        raise ValueError("grid oracle supports at most 3 vertices")
    vals = problem.c2 @ F
    if problem.c1:
        vals = vals + problem.c1 * F.max(axis=0)
    g = problem.graph
    if problem.mu:
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w):
            vals = vals + problem.mu * w * np.abs(F[u] - F[v])
    return min(0.0, float(vals.min()))


def edge_matrix(graph):
    """Dense A of the dual: column e holds +2w_e at u_e and -2w_e at v_e."""
    cols = np.arange(graph.num_edges)
    A = np.zeros((graph.n, cols.size))
    A[graph.edge_u, cols] += 2.0 * graph.edge_w
    A[graph.edge_v, cols] -= 2.0 * graph.edge_w
    return A


def dual_base(problem, alpha):
    """-c2 - (mu/2) A alpha, through the dense edge matrix."""
    return -problem.c2 - 0.5 * problem.mu * (edge_matrix(problem.graph) @ alpha)


def projection_form(base, c1):
    """The inner dual's primal point at y = base, by its definition:
    P_+(base - c1 v) with the simplex block v = simplex_project(P_+(base) / c1)
    minimized exactly, or P_+(base) when c1 = 0."""
    p = np.maximum(base, 0.0)
    if c1 > 0:
        return np.maximum(base - c1 * simplex_project(p / c1), 0.0)
    return p


def random_inner_problem(rng, m=None, scale_to_unit_lipschitz=True):
    """Random small inner problem; coefficients scaled to tame the Lipschitz
    constant of the objective so the grid oracle is accurate at 1e-3."""
    m = int(rng.integers(1, 4)) if m is None else m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    chosen = [pq for pq in pairs if rng.random() < 0.7]
    eu = np.array([p for p, _ in chosen], dtype=np.int64)
    ev = np.array([q for _, q in chosen], dtype=np.int64)
    ew = rng.uniform(0.1, 1.0, size=len(chosen))
    c1 = float(rng.uniform(0.0, 1.0))
    c2 = rng.uniform(-1.0, 1.0, size=m)
    mu = float(rng.uniform(0.0, 1.0))
    if scale_to_unit_lipschitz:
        lip = c1 + float(np.linalg.norm(c2)) + 2.0 * mu * float(ew.sum())
        if lip > 1.0:
            c1, c2, mu = c1 / lip, c2 / lip, mu / lip
    return fs.InnerProblem(c1, c2, mu, fs.Graph(m, eu, ev, ew))


def load_edge_list_reference(path):
    """The per-line edge-list loop that load_edge_list's bulk parse must
    match: a dict of running weight sums keyed by (min, max) id, filled in
    line order.  Ids outside int64 raise on their line, and a vertex whose
    edge weights sum past the float range raises with its id."""
    totals = {}
    seen = set()
    for ln, parts in data_lines(path):
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"{path}:{ln}: expected 'u v' or 'u v w'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}:{ln}: vertex ids must be integers") from None
        if a == b:
            raise GraphFormatError(f"{path}:{ln}: self-loop on vertex {a}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{ln}: bad edge weight {parts[2]!r}") from None
            if not math.isfinite(w):
                raise GraphFormatError(f"{path}:{ln}: non-finite weight")
            if w < 0:
                raise GraphFormatError(f"{path}:{ln}: negative weight {w}")
        if not -2**63 <= min(a, b) <= max(a, b) < 2**63:
            raise GraphFormatError(f"{path}:{ln}: vertex id out of range")
        seen.add(a)
        seen.add(b)
        key = (a, b) if a < b else (b, a)
        totals[key] = totals.get(key, 0.0) + w
    ids = np.array(sorted(seen), dtype=np.int64)
    degree = dict.fromkeys(seen, 0.0)
    for (a, b), w in totals.items():
        degree[a] += w
        degree[b] += w
    heavy = [a for a, d in degree.items() if math.isinf(d)]
    if heavy:
        raise GraphFormatError(
            f"{path}: degree of vertex {min(heavy)} overflows: its edge "
            "weights sum past the float range")
    index = {int(x): i for i, x in enumerate(ids)}
    us = [index[a] for a, _ in totals]
    vs = [index[b] for _, b in totals]
    return fs.Graph(len(ids), us, vs, list(totals.values())), ids
