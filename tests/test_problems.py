import numpy as np
import pytest

import fracset as fs
from fracset.maxflow import FlowNetwork
from fracset.problems import (PEEL_FACTOR, _dense_core, _min_cut,
                              _peel, _Survivors)
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
            num_red, den_red = fs.set_values(
                [problem.on_active(problem.numerator.set_function),
                 problem.on_active(problem.denominator.set_function)],
                problem.m, A)
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
            [den] = fs.set_values(
                [problem.on_active(problem.denominator.set_function)],
                problem.m, A)
            assert den == pytest.approx(vol * (total - vol), rel=1e-12,
                                        abs=1e-9)


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
        balance = problem.on_active(problem.denominator.set_function)
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
    # vertex 0 has degree 2
    with pytest.raises(fs.InfeasibleProblem, match="vol_h <= 1.5"):
        fs.build_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=1.5))
    # vertices 0 and 1 hold every edge, so the seed covers vol(V)
    with pytest.raises(fs.InfeasibleProblem, match="covers the graph volume"):
        fs.build_local_ncut(fs.Graph(3, [0], [1], [1.0]),
                            fs.NCutProblemSpec(seed=(0, 1)))
    edgeless = fs.Graph(3)
    with pytest.raises(fs.InfeasibleProblem):
        fs.build_max_density(edgeless, fs.DensityProblemSpec())


def test_local_cut_bound_equal_to_the_seed_volume(b6):
    # vol_d({0}) = 2: the bare seed meets the bound, so it is the answer
    sol = fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=2.0),
                              fs.SolverConfig(initializations=2))
    assert sol.set_ids.tolist() == [0]
    assert sol.feasible == (True,)
    assert sol.value == pytest.approx(2.0 / (2.0 * 12.0))


def test_density_lower_bound_above_the_total_volume(b6):
    # vol_h(V) = 6, so no set meets the bound: the build says so at once
    with pytest.raises(fs.InfeasibleProblem, match=r"vol_h >= 7\.0"):
        fs.build_max_density(b6, fs.DensityProblemSpec(seed=(0,), lower=7.0))
    # a bound that V meets exactly is feasible
    problem = fs.build_max_density(b6, fs.DensityProblemSpec(seed=(0,),
                                                             lower=6.0))
    assert problem.score(np.arange(problem.m))[2] == (0.0,)


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
        peeled, lam0 = _peel(g, _Survivors.whole(graph))
        assert lam0 == fs.volume(g, peeled) / fs.assoc_value(graph, peeled)
        masks, ratios = all_ratios(graph, g)
        best = ratios.min()
        assert best * (1 - 1e-12) <= lam0 <= 3.0 * best * (1 + 1e-12)
        in_core = np.zeros(n, dtype=bool)
        in_core[_dense_core(g, lam0, _Survivors.whole(graph)).ids] = True
        optimal = masks[ratios <= best * (1 + 1e-12)]
        assert optimal.size and not np.any(optimal & ~in_core)


def test_every_core_the_loop_visits_keeps_every_optimal_set(rng, monkeypatch):
    # peeling and pruning alternate before the first cut; each core they
    # visit must hold every brute-force optimal set, and the answer must be
    # the optimum, on small weighted graphs with zero vertex weights.  Every
    # survivor set a pass makes carries its inner degrees, which must be
    # those of the subgraph it induces, bit for bit
    import fracset.problems
    cores, made = [], []

    def recorded(g, lam, part):
        core = _dense_core(g, lam, part)
        cores.append(core.ids)
        return core

    def recorded_keep(self, keep):
        part = keep_survivors(self, keep)
        made.append(part)
        return part

    keep_survivors = _Survivors.keep
    monkeypatch.setattr(fracset.problems, "_dense_core", recorded)
    monkeypatch.setattr(_Survivors, "keep", recorded_keep)
    rounds, visited = [], 0
    for k in range(240):
        n = int(rng.integers(3, 11))
        graph = weighted_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        g = rng.uniform(0.2, 2.0, n)
        if k % 2:
            g[rng.random(n) < 0.3] = 0.0
        cores.clear()
        made.clear()
        members, ratio = fs.dinkelbach_max_density(graph, g)
        assert _Survivors.whole(graph).degrees.tobytes() \
            == graph.degrees.tobytes()
        for part in made:
            want = graph.induced_subgraph(part.ids)[0].degrees
            assert part.degrees.dtype == want.dtype
            assert part.degrees.tobytes() == want.tobytes()
        visited += len(made)
        masks, ratios = all_ratios(graph, g)
        best = ratios.min()
        optimal = masks[ratios <= best * (1 + 1e-12)]
        for ids in cores:
            in_core = np.zeros(n, dtype=bool)
            in_core[ids] = True
            assert not np.any(optimal & ~in_core)
        assert ratio == pytest.approx(best, rel=1e-12, abs=1e-300)
        assert ratio == fs.volume(g, members) / fs.assoc_value(graph, members)
        rounds.append(len(cores))
    # the loop pruned three times or more on some graphs
    assert max(rounds) >= 3
    assert visited > 240


def record_cores(monkeypatch):
    """The cores ``dinkelbach_max_density`` visits, in order, recorded
    once the test starts; building a Graph from then on fails the test."""
    import fracset.problems
    cores = []

    def recorded(g, lam, part):
        cores.append(_dense_core(g, lam, part))
        return cores[-1]

    def no_graph(self, *args):
        raise AssertionError("a density solve built a Graph")

    monkeypatch.setattr(fracset.problems, "_dense_core", recorded)
    monkeypatch.setattr(fs.Graph, "__init__", no_graph)
    return cores


def test_dinkelbach_cuts_only_the_core(rng, monkeypatch):
    # a sparse background of 400 vertices around a dense 30-vertex
    # community: each flow network holds the last core, not the whole
    # graph, and a solve builds no Graph
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
    cores = record_cores(monkeypatch)
    members, ratio = fs.dinkelbach_max_density(graph, g)
    # every network holds the last core the loop visits
    assert set(built) == {cores[-1].ids.size + 2}
    assert built[0] <= (n + 2) // 4
    whole = _Survivors.whole(graph)
    core = _dense_core(g, _peel(g, whole)[1], whole)
    assert built[0] <= 2 + core.ids.size
    assert ratio <= fs.volume(g, comm) / fs.assoc_value(graph, comm)
    # certified on the whole graph: no set beats the returned ratio
    _, sub_value = _min_cut(_Survivors.whole(graph), g, ratio)
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
    # each cut, for lam in any order, rising lam included, solves its
    # subproblem min vol_g - lam*assoc exactly
    for _ in range(10):
        n = int(rng.integers(4, 9))
        graph = er_graph(n, 0.5, rng)
        g = rng.uniform(0.2, 2.0, n)
        for lam in rng.uniform(0.05, 1.0, 3):
            keep, sub_value = _min_cut(_Survivors.whole(graph), g,
                                       float(lam))
            members = np.nonzero(keep)[0]
            best = 0.0
            for C in all_subsets(n):
                val = fs.volume(g, C) - lam * fs.assoc_value(graph, C)
                best = min(best, val)
            assert sub_value == pytest.approx(best, abs=1e-8)
            got = fs.volume(g, members) - lam * fs.assoc_value(graph, members)
            assert got == pytest.approx(best, abs=1e-8)


def test_parametric_cut_returns_the_least_minimizer(rng):
    # unit weights, g-weights in {0, 1, 2} and dyadic lam keep every
    # capacity and flow exact and make tied minimizers common; each cut,
    # for lam in any order, returns their intersection, whatever flow the
    # pre-push along source->j->sink starts it with
    lams = [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]
    for _ in range(60):
        n = int(rng.integers(3, 9))
        graph = er_graph(n, float(rng.uniform(0.2, 0.7)), rng)
        g = rng.integers(0, 3, n).astype(float)
        masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 > 0
        vol = masks @ g
        assoc = 2.0 * ((masks[:, graph.edge_u] & masks[:, graph.edge_v])
                       @ graph.edge_w)
        for lam in rng.choice(lams, 3):
            keep, sub_value = _min_cut(_Survivors.whole(graph), g,
                                       float(lam))
            values = vol - lam * assoc
            least = np.logical_and.reduce(masks[values == values.min()])
            assert np.array_equal(keep, least)
            assert sub_value == values.min()


def _peel_reference(graph, g):
    """_peel's passes on the whole graph: inner degrees as x * (W x), and
    each pass scored by ``volume`` and ``assoc_value``."""
    alive = np.ones(graph.n, dtype=bool)
    best, best_lam = None, np.inf
    while (alive[graph.edge_u] & alive[graph.edge_v]).any():
        x = alive.astype(float)
        deg = x * graph.neighbor_sum(x)
        ids = np.nonzero(alive)[0]
        lam = fs.volume(g, ids) / fs.assoc_value(graph, ids)
        if lam < best_lam:
            best, best_lam = ids, lam
        alive &= deg * lam > PEEL_FACTOR * g
    return best


def _dense_core_reference(graph, g, lam):
    """_dense_core's passes on the whole graph: inner degrees as x * (W x)."""
    alive = np.ones(graph.n, dtype=bool)
    while True:
        x = alive.astype(float)
        drop = alive & (2.0 * x * graph.neighbor_sum(x) * lam
                        * (1.0 + 1e-9) < g)
        if not drop.any():
            return np.nonzero(alive)[0]
        alive &= ~drop


def test_peel_and_core_match_the_whole_graph_passes(rng):
    # the passes run on the subgraph of the survivors; they must keep and
    # drop exactly what passes over every edge of the graph do, on sparse
    # weighted graphs with isolated vertices and zero g-weights
    for k in range(200):
        n = int(rng.integers(2, 40))
        graph = weighted_graph(n, float(rng.uniform(1.0, 6.0)) / n, rng)
        g = rng.uniform(0.2, 2.0, n)
        if k % 2:
            g[rng.random(n) < 0.3] = 0.0
        whole = _Survivors.whole(graph)
        peeled, lam0 = _peel(g, whole)
        want = _peel_reference(graph, g)
        assert peeled.dtype == want.dtype and np.array_equal(peeled, want)
        assert lam0 == fs.volume(g, peeled) / fs.assoc_value(graph, peeled)
        for lam in (lam0, lam0 * float(rng.uniform(0.3, 1.0))):
            core = _dense_core(g, lam, whole)
            want = _dense_core_reference(graph, g, lam)
            assert core.ids.dtype == want.dtype
            assert np.array_equal(core.ids, want)
            # a cut relabels the core's edges: they, their weights and
            # the core's degrees are the subgraph it induces, bit for bit
            want_sub, want_ids = graph.induced_subgraph(core.ids)
            assert np.array_equal(core.ids, want_ids)
            for got, name in ((np.searchsorted(core.ids, core.u), "edge_u"),
                              (np.searchsorted(core.ids, core.v), "edge_v"),
                              (core.w, "edge_w"), (core.degrees, "degrees")):
                ref = getattr(want_sub, name)
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()


def test_dinkelbach_builds_one_network_per_cut(monkeypatch):
    # every lam step cuts a network of its own, built on the last core,
    # and no Graph is built
    import fracset.problems
    # seed 2, found by a seed search: peeling and pruning stop at a set
    # that is not optimal here, so the cuts step lam down at least once
    graph = er_graph(9, 0.4, np.random.default_rng(2))
    built, flowed = [], []

    class Recorded(FlowNetwork):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

        def max_flow(self, s, t):
            flowed.append(self)
            return super().max_flow(s, t)

    monkeypatch.setattr(fracset.problems, "FlowNetwork", Recorded)
    cores = record_cores(monkeypatch)
    members, ratio = fs.dinkelbach_max_density(graph)
    assert len(flowed) >= 2 and flowed == built
    assert {net.n for net in built} == {cores[-1].ids.size + 2}
    num, den = density_functions(graph)
    assert ratio == pytest.approx(fs.brute_force(graph, num, den).best_value,
                                  abs=1e-9)


def test_dinkelbach_lambda_strictly_decreases(rng):
    graph = er_graph(9, 0.4, rng)
    g = np.ones(9)
    lam = fs.volume(g, range(9)) / fs.assoc_value(graph, range(9))
    seen = [lam]
    for _ in range(50):
        keep, sub_value = _min_cut(_Survivors.whole(graph), g, lam)
        members = np.nonzero(keep)[0]
        if sub_value >= -1e-12 or members.size == 0:
            break
        lam = fs.volume(g, members) / fs.assoc_value(graph, members)
        seen.append(lam)
    assert all(b < a for a, b in zip(seen, seen[1:]))
