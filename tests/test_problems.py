import numpy as np
import pytest

import fracset as fs
from fracset.maxflow import FlowNetwork
from fracset.problems import _dense_core, _parametric_cut, _peel
from fracset.ratiodca import extension_values

from helpers import (all_subsets, density_functions, er_graph, ncut_functions,
                     weighted_graph)


def graph_reference(num, den, constraints):
    """Numerator, denominator and violations of a full-graph set, from
    graph-level functions and constraints built apart from the problem."""
    return lambda C: (num(C), den(C), [c.violation(C) for c in constraints])


def random_density_problem(rng):
    n = int(rng.integers(5, 10))
    graph = er_graph(n, 0.5, rng)
    seed = np.sort(rng.choice(n, size=int(rng.integers(0, 3)), replace=False))
    g = rng.uniform(0.1, 2.0, n)
    h = rng.uniform(0.1, 2.0, n)
    vol_hj = fs.volume(h, seed)
    upper = float(vol_hj + rng.uniform(0.5, h.sum()))
    lower = float(rng.uniform(0.0, upper))
    gamma = float(rng.uniform(0.0, 2.0))
    spec = fs.DensityProblemSpec(seed=tuple(seed), g=g, h=h,
                                 lower=lower, upper=upper)
    reference = graph_reference(*density_functions(graph, g),
                                [fs.VolumeConstraint(h, upper, upper=True),
                                 fs.VolumeConstraint(h, lower, upper=False)])
    return fs.build_max_density(graph, spec).with_gamma(gamma), graph, reference


def random_ncut_problem(rng):
    n = int(rng.integers(5, 10))
    graph = er_graph(n, 0.5, rng)
    deg = graph.degrees
    pos = np.nonzero(deg > 0)[0]
    s = int(rng.choice(pos))
    k = float(deg[s] + rng.uniform(0.3, 1.0) * (deg.sum() - deg[s]))
    gamma = float(rng.uniform(0.0, 2.0))
    spec = fs.NCutProblemSpec(seed=(s,), bound=k)
    reference = graph_reference(*ncut_functions(graph),
                                [fs.VolumeConstraint(deg, k, upper=True)])
    return fs.build_local_ncut(graph, spec).with_gamma(gamma), graph, reference


@pytest.mark.parametrize("maker", [random_density_problem, random_ncut_problem])
def test_indicator_consistency_exhaustive(rng, maker):
    """The assembled extensions reproduce the reduced and full set objectives
    at every indicator vector, and ``score`` reproduces the full set's ratio
    sides and violations for every A, the bare seed (A empty) included."""
    seed_violations = 0
    for _ in range(8):
        problem, graph, reference = maker(rng)
        for A in all_subsets(problem.m):
            C = problem.expand(A)
            ref_num, ref_den, ref_violations = reference(C)
            num, den, violations = problem.score(A)
            assert num == pytest.approx(ref_num, rel=1e-9, abs=1e-9)
            assert den == pytest.approx(ref_den, rel=1e-9, abs=1e-9)
            assert violations == pytest.approx(ref_violations, rel=1e-9, abs=1e-9)
            if A.size == 0:
                seed_violations += any(v > 0 for v in violations)
                continue
            f = np.zeros(problem.m)
            f[A] = 1.0
            r, s = extension_values(problem, f)
            num_red = problem.numerator.set_function.value(A)
            den_red = problem.denominator.set_function.value(A)
            assert r == pytest.approx(num_red, rel=1e-9, abs=1e-9)
            assert s == pytest.approx(den_red, rel=1e-9, abs=1e-9)
            full_num = ref_num + problem.gamma * sum(ref_violations)
            assert num_red == pytest.approx(full_num, rel=1e-9, abs=1e-9)
            assert den_red == pytest.approx(ref_den, rel=1e-9, abs=1e-9)
            # the numerator of a cut-plus-penalty problem is non-negative
            assert num_red >= -1e-9
    if maker is random_density_problem:
        # some bare seed falls short of its density lower bound
        assert seed_violations > 0


def test_ncut_denominator_identity(rng):
    for _ in range(8):
        problem, graph, _ = random_ncut_problem(rng)
        deg = graph.degrees
        total = float(deg.sum())
        for A in all_subsets(problem.m, nonempty=True):
            C = problem.expand(A)
            vol = fs.volume(deg, C)
            assert problem.denominator.set_function.value(A) == pytest.approx(
                vol * (total - vol), rel=1e-12, abs=1e-9)


def test_whole_graph_has_no_cut_ratio(rng):
    # V u seed = V has an empty complement: its balance is exactly 0, so the
    # whole graph is never scored as a set with a ratio, whatever the weights;
    # a sweep's first set is every active vertex, so the same holds for it in
    # every vertex order
    for _ in range(20):
        graph = weighted_graph(int(rng.integers(5, 12)), 0.5, rng)
        seed = (int(np.argmax(graph.degrees)),)
        problem = fs.build_local_ncut(graph, fs.NCutProblemSpec(seed=seed))
        _, den, _ = problem.score(np.arange(problem.m))
        assert den == 0.0
        balance = problem.denominator.set_function
        for _ in range(15):
            assert balance.suffix_values(rng.permutation(problem.m))[0] == 0.0


def test_zero_degree_vertex_leaves_the_bare_seed():
    # triangle {0, 1, 3} plus the isolated vertex 2: a start with f_3 > f_2
    # has a zero denominator extension and stands for the bare seed
    graph = fs.Graph.from_edges(4, [(0, 1), (1, 3), (0, 3)])
    sol = fs.solve_local_ncut(graph, fs.NCutProblemSpec(seed=(0, 1)),
                              fs.SolverConfig(initializations=1, seed=5))
    assert np.array_equal(sol.set_ids, [0, 1])
    assert sol.value == 0.25


@pytest.mark.parametrize("edges, seed, expected", [
    # desk-batch seed 105, query 237: the seed vertex has degree 1
    ([(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (2, 6),
      (5, 6)], 4, [1, 4]),
    # desk-batch seed 201, query 63
    ([(0, 3), (0, 5), (0, 6), (1, 3), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5),
      (4, 6)], 1, [1, 3]),
])
def test_density_pair_under_a_cardinality_bound_of_two(edges, seed, expected):
    # once failed with an IndexError in simplex_project after gamma grew
    # without a cap; the optimum is the seed plus one neighbour
    graph = fs.Graph.from_edges(7, edges)
    sol = fs.solve_max_density(graph, fs.DensityProblemSpec(seed=(seed,),
                                                            upper=2.0),
                               fs.SolverConfig(initializations=2))
    assert np.array_equal(sol.set_ids, expected)
    assert sol.value == 1.0
    assert all(sol.feasible)


def test_b6_local_ncut_bound7(b6):
    cfg = fs.SolverConfig(initializations=10, seed=42)
    sol = fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=7.0), cfg)
    assert np.array_equal(sol.set_ids, [0, 1, 2])
    assert sol.value == pytest.approx(1 / 49)
    # brute-force confirmation
    num, den = ncut_functions(b6)
    oracle = fs.brute_force(b6, num, den,
                            constraints=[fs.VolumeConstraint(b6.degrees, 7.0,
                                                             upper=True)],
                            seed=(0,))
    assert oracle.best_value == pytest.approx(sol.value)


def test_b6_local_ncut_bound4(b6):
    # constrained optimum is {0,1}: cut 2 against volume 4 * complement 10
    num, den = ncut_functions(b6)
    oracle = fs.brute_force(b6, num, den,
                            constraints=[fs.VolumeConstraint(b6.degrees, 4.0,
                                                             upper=True)],
                            seed=(0,))
    assert np.array_equal(oracle.best_set, [0, 1])
    assert oracle.best_value == pytest.approx(0.05)
    cfg = fs.SolverConfig(initializations=10, seed=0)
    sol = fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=4.0), cfg)
    assert all(sol.feasible)
    assert sol.value == pytest.approx(oracle.best_value)
    assert np.array_equal(sol.set_ids, oracle.best_set)


def test_b6_density_cardinality_bound(b6):
    num, den = density_functions(b6)
    oracle = fs.brute_force(
        b6, num, den,
        constraints=[fs.VolumeConstraint(np.ones(6), 3.0, upper=True)],
        seed=(0,))
    assert np.array_equal(oracle.best_set, [0, 1, 2])
    assert oracle.best_value == pytest.approx(0.5)  # density 2
    cfg = fs.SolverConfig(initializations=10, seed=42)
    sol = fs.solve_max_density(b6, fs.DensityProblemSpec(seed=(0,), upper=3.0),
                               cfg)
    assert np.array_equal(sol.set_ids, oracle.best_set)


def test_b6_density_unconstrained_unseeded(b6):
    cfg = fs.SolverConfig(initializations=10, seed=7)
    sol = fs.solve_max_density(b6, fs.DensityProblemSpec(), cfg)
    assert sol.value == pytest.approx(3 / 7)
    assert np.array_equal(sol.set_ids, np.arange(6))


def test_seed_containment_is_structural(rng):
    for _ in range(10):
        problem, _, _ = random_ncut_problem(rng)
        sol = fs.ratio_dca_multistart(problem,
                                      fs.SolverConfig(initializations=3, seed=2))
        assert np.all(np.isin(problem.seed_ids, sol.set_ids))


def test_builder_errors(b6):
    with pytest.raises(fs.InfeasibleProblem):
        fs.build_max_density(b6, fs.DensityProblemSpec(seed=(0, 1), upper=1.0))
    with pytest.raises(ValueError):
        fs.build_max_density(b6, fs.DensityProblemSpec(lower=5.0, upper=2.0))
    with pytest.raises(ValueError):
        fs.build_local_ncut(b6, fs.NCutProblemSpec(seed=()))
    with pytest.raises(fs.InfeasibleProblem):
        fs.build_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=2.0))
    edgeless = fs.Graph(3)
    with pytest.raises(fs.InfeasibleProblem):
        fs.build_max_density(edgeless, fs.DensityProblemSpec())


def test_dinkelbach_b6_and_k3(b6):
    members, ratio = fs.dinkelbach_max_density(b6)
    assert np.array_equal(members, np.arange(6))
    assert ratio == pytest.approx(3 / 7, abs=1e-12)
    k3 = fs.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    members3, ratio3 = fs.dinkelbach_max_density(k3)
    assert np.array_equal(members3, np.arange(3))
    assert ratio3 == pytest.approx(0.5, abs=1e-12)


def test_dinkelbach_scale_invariance(rng):
    # scaling every edge weight by c divides the optimal ratio by c and keeps
    # the optimal set, at any scale: the stop tests are relative
    for _ in range(12):
        n = int(rng.integers(4, 10))
        graph = weighted_graph(n, 0.5, rng)
        g = rng.uniform(0.2, 2.0, n)
        members, ratio = fs.dinkelbach_max_density(graph, g)
        for c in (1e-6, 0.5, 1.0, 4.0, 1e9):
            scaled = fs.Graph(n, graph.edge_u, graph.edge_v, c * graph.edge_w)
            members_c, ratio_c = fs.dinkelbach_max_density(scaled, g)
            oracle = fs.brute_force(scaled, *density_functions(scaled, g))
            assert ratio_c == pytest.approx(oracle.best_value, rel=1e-9)
            assert ratio_c == pytest.approx(ratio / c, rel=1e-9)
            assert np.array_equal(members, members_c)


def test_dinkelbach_stops_by_relative_steps():
    # K4 on {0..3} plus the path 3-4-5, every weight 1e9: the whole graph has
    # ratio 0.375e-9 and K4 1/3 * 1e-9, a step below any absolute tolerance
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    graph = fs.Graph.from_edges(6, [(u, v, 1e9) for u, v in edges])
    members, ratio = fs.dinkelbach_max_density(graph)
    assert np.array_equal(members, [0, 1, 2, 3])
    assert ratio == pytest.approx(1 / 3 * 1e-9, rel=1e-12)


def test_dinkelbach_matches_brute_force(rng):
    for k in range(50):
        n = int(rng.integers(4, 11))
        if k % 2:
            graph, g = weighted_graph(n, 0.4, rng), rng.uniform(0.2, 2.0, n)
        else:
            graph, g = er_graph(n, 0.4, rng), None
        members, ratio = fs.dinkelbach_max_density(graph, g)
        num, den = density_functions(graph, g)
        oracle = fs.brute_force(graph, num, den)
        assert ratio == pytest.approx(oracle.best_value, abs=1e-9)
        assert ratio == num(members) / den(members)


def all_ratios(graph, g):
    """vol_g/assoc of every nonempty subset (as rows of a mask), inf where
    assoc is 0."""
    masks = (np.arange(1, 1 << graph.n)[:, None] >> np.arange(graph.n)) & 1 > 0
    vol = masks @ g
    assoc = 2.0 * ((masks[:, graph.edge_u] & masks[:, graph.edge_v])
                   @ graph.edge_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return masks, np.where(assoc > 0, vol / assoc, np.inf)


def test_dense_core_keeps_every_optimal_set(rng):
    # the peeled ratio is within 3x of the optimum, and pruning with it keeps
    # every optimal set whole: zero vertex weights make many of them
    for k in range(240):
        n = int(rng.integers(3, 10))
        graph = weighted_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        g = rng.uniform(0.2, 2.0, n)
        if k % 2:
            g[rng.random(n) < 0.3] = 0.0
        peeled = _peel(graph, g)
        lam0 = fs.volume(g, peeled) / fs.assoc_value(graph, peeled)
        masks, ratios = all_ratios(graph, g)
        best = ratios.min()
        assert best * (1 - 1e-12) <= lam0 <= 3.0 * best * (1 + 1e-12)
        in_core = np.zeros(n, dtype=bool)
        in_core[_dense_core(graph, g, lam0)] = True
        optimal = masks[ratios <= best * (1 + 1e-12)]
        assert optimal.size and not np.any(optimal & ~in_core)


def test_dinkelbach_cuts_only_the_core(rng, monkeypatch):
    # a sparse background of 400 vertices around a dense 30-vertex
    # community: the one flow network holds the core, not the whole graph
    import fracset.problems
    n = 400
    u, v = rng.integers(0, n, 800), rng.integers(0, n, 800)
    comm = rng.choice(n, 30, replace=False)
    iu, iv = np.triu_indices(30, 1)
    inside = rng.random(iu.size) < 0.5
    u = np.concatenate([u, comm[iu[inside]]])
    v = np.concatenate([v, comm[iv[inside]]])
    key = np.unique(np.minimum(u, v)[u != v] * n + np.maximum(u, v)[u != v])
    graph = fs.Graph(n, key // n, key % n, rng.uniform(0.5, 1.5, key.size))
    g = rng.uniform(0.5, 1.5, n)
    built = []

    class Recorded(FlowNetwork):
        def __init__(self, size):
            super().__init__(size)
            built.append(size)

    monkeypatch.setattr(fracset.problems, "FlowNetwork", Recorded)
    members, ratio = fs.dinkelbach_max_density(graph, g)
    assert len(built) == 1 and built[0] <= (n + 2) // 4
    peeled = _peel(graph, g)
    core = _dense_core(graph, g, fs.volume(g, peeled)
                       / fs.assoc_value(graph, peeled))
    assert built[0] <= 2 + core.size
    assert ratio <= fs.volume(g, comm) / fs.assoc_value(graph, comm)
    # certified on the whole graph: no set beats the returned ratio
    _, sub_value = _parametric_cut(graph, g)(ratio)
    assert sub_value >= -1e-9 * g.sum()


def test_dinkelbach_zero_vertex_weights(b6):
    # a set of zero g-volume with edges inside has ratio 0, the minimum
    g = np.ones(6)
    g[[0, 1]] = 0.0
    members, ratio = fs.dinkelbach_max_density(b6, g)
    assert ratio == 0.0
    assert fs.volume(g, members) == 0.0 and fs.assoc_value(b6, members) > 0
    members, ratio = fs.dinkelbach_max_density(b6, np.zeros(6))
    assert np.array_equal(members, np.arange(6)) and ratio == 0.0
    # zero weights on non-adjacent vertices leave every ratio positive
    g[[0, 1, 4]] = [0.0, 1.0, 0.0]
    members, ratio = fs.dinkelbach_max_density(b6, g)
    oracle = fs.brute_force(b6, *density_functions(b6, g))
    assert ratio == pytest.approx(oracle.best_value, rel=1e-12) and ratio > 0


def test_dinkelbach_requires_edges():
    with pytest.raises(ValueError):
        fs.dinkelbach_max_density(fs.Graph(4))


def test_parametric_cut_matches_enumeration(rng):
    # each call on one network, as lam falls, solves its subproblem
    # min vol_g - lam*assoc exactly
    for _ in range(10):
        n = int(rng.integers(4, 9))
        graph = er_graph(n, 0.5, rng)
        g = rng.uniform(0.2, 2.0, n)
        cut = _parametric_cut(graph, g)
        for lam in np.sort(rng.uniform(0.05, 1.0, 3))[::-1]:
            members, sub_value = cut(float(lam))
            best = 0.0
            for C in all_subsets(n):
                val = fs.volume(g, C) - lam * fs.assoc_value(graph, C)
                best = min(best, val)
            assert sub_value == pytest.approx(best, abs=1e-8)
            got = fs.volume(g, members) - lam * fs.assoc_value(graph, members)
            assert got == pytest.approx(best, abs=1e-8)


def test_parametric_cut_rejects_rising_lam(b6):
    cut = _parametric_cut(b6, np.ones(6))
    cut(0.5)
    cut(0.5)
    with pytest.raises(ValueError):
        cut(0.6)


def test_dinkelbach_builds_one_network(rng, monkeypatch):
    # every lam step re-weights the sink arcs of one network; none adds an arc
    import fracset.problems
    built, arcs_at_flow = [], []

    class Recorded(FlowNetwork):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

        def max_flow(self, s, t):
            arcs_at_flow.append(len(self.to))
            return super().max_flow(s, t)

    monkeypatch.setattr(fracset.problems, "FlowNetwork", Recorded)
    graph = er_graph(9, 0.4, rng)
    members, ratio = fs.dinkelbach_max_density(graph)
    num, den = density_functions(graph)
    assert ratio == pytest.approx(fs.brute_force(graph, num, den).best_value,
                                  abs=1e-9)
    assert len(arcs_at_flow) >= 2
    assert len(built) == 1
    assert len(set(arcs_at_flow)) == 1


def test_dinkelbach_lambda_strictly_decreases(rng):
    graph = er_graph(9, 0.4, rng)
    g = np.ones(9)
    lam = fs.volume(g, range(9)) / fs.assoc_value(graph, range(9))
    cut = _parametric_cut(graph, g)
    seen = [lam]
    for _ in range(50):
        members, sub_value = cut(lam)
        if sub_value >= -1e-12 or members.size == 0:
            break
        lam = fs.volume(g, members) / fs.assoc_value(graph, members)
        seen.append(lam)
    assert all(b < a for a, b in zip(seen, seen[1:]))
