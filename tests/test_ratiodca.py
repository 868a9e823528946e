import math

import numpy as np
import pytest

import fracset as fs
from fracset.ratiodca import continuous_ratio, extension_values, ratio_dca

from helpers import er_graph, ncut_functions


def random_ncut_problem(rng, gamma_scale=1.0):
    n = int(rng.integers(5, 11))
    graph = er_graph(n, 0.5, rng)
    deg = graph.degrees
    pos = np.nonzero(deg > 0)[0]
    s = int(rng.choice(pos))
    k = float(deg[s] + rng.uniform(0.3, 0.7) * (deg.sum() - deg[s]))
    gamma = float(rng.uniform(0.0, 2.0)) * gamma_scale
    return fs.build_local_ncut(graph, fs.NCutProblemSpec(seed=(s,), bound=k),
                               gamma), graph


def test_traces_strictly_decreasing(rng):
    cfg = fs.SolverConfig()
    for _ in range(30):
        problem, _ = random_ncut_problem(rng)
        f0 = rng.random(problem.m)
        sol = ratio_dca(problem, f0, cfg)
        trace = sol.trace
        assert len(trace) >= 1
        for a, b in zip(trace, trace[1:]):
            assert b < a


def test_lambda_is_continuous_ratio_and_threshold_never_hurts(rng):
    cfg = fs.SolverConfig()
    for _ in range(20):
        problem, _ = random_ncut_problem(rng)
        f0 = rng.random(problem.m)
        sol = ratio_dca(problem, f0, cfg)
        assert sol.lam == pytest.approx(continuous_ratio(problem, sol.f),
                                        rel=1e-9, abs=1e-12)
        assert sol.penalized_value <= sol.lam + 1e-9


def test_multistart_deterministic(rng):
    problem, _ = random_ncut_problem(rng)
    cfg = fs.SolverConfig(initializations=6, seed=123)
    a = fs.ratio_dca_multistart(problem, cfg)
    b = fs.ratio_dca_multistart(problem, cfg)
    assert np.array_equal(a.set_ids, b.set_ids)
    assert a.penalized_value == b.penalized_value
    assert a.init_id == b.init_id
    assert np.array_equal(a.f, b.f)


def test_best_of_k_monotone(rng):
    # start sets are nested across k (spawned from one seed sequence), so the
    # best-of-k value can only improve
    problem, _ = random_ncut_problem(rng)
    values = []
    for k in (1, 3, 6, 10):
        cfg = fs.SolverConfig(initializations=k, seed=99)
        values.append(fs.ratio_dca_multistart(problem, cfg).penalized_value)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_warm_start_quality_guarantee(rng):
    # a feasible start at sufficient gamma yields a feasible, no-worse set
    done = 0
    while done < 25:
        n = int(rng.integers(5, 11))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        pos = np.nonzero(deg > 0)[0]
        s = int(rng.choice(pos))
        k = float(deg[s] + rng.uniform(0.3, 0.8) * (deg.sum() - deg[s]))
        num, den = ncut_functions(graph)
        rest = np.setdiff1d(np.arange(n), [s])
        A = np.sort(np.concatenate(
            [[s], rest[rng.random(rest.size) < 0.4]])).astype(np.int64)
        c = fs.VolumeConstraint(deg, k, upper=True)
        if not c.satisfied(A) or den(A) <= 0 or A.size == 1:
            continue
        theta = fs.theta_of([c])
        if not math.isfinite(theta):
            theta = 1.0
        gamma = fs.gamma_sufficient(num(A), den(A),
                                    0.25 * float(deg.sum()) ** 2, theta)
        problem = fs.build_local_ncut(
            graph, fs.NCutProblemSpec(seed=(s,), bound=k), gamma)
        sol = ratio_dca(problem, problem.indicator(A), fs.SolverConfig())
        assert all(sol.feasible)
        assert sol.value <= num(A) / den(A) + 1e-10
        done += 1


def test_multistart_with_feasible_warm_start_stays_feasible(rng):
    # one random start plus the warm indicator: at a sufficient penalty
    # weight the winner is feasible and no worse than the warm set
    done = 0
    while done < 10:
        n = int(rng.integers(5, 10))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        rest = np.setdiff1d(np.arange(n), [s])
        A = np.sort(np.concatenate(
            [[s], rest[rng.random(rest.size) < 0.5]])).astype(np.int64)
        num, den = ncut_functions(graph)
        k = float(fs.volume(deg, A) + 0.5)
        c = fs.VolumeConstraint(deg, k, upper=True)
        if den(A) <= 0 or A.size <= 1 or A.size == n:
            continue
        gamma = fs.gamma_sufficient(num(A), den(A),
                                    0.25 * float(deg.sum()) ** 2,
                                    fs.theta_of([c]) if math.isfinite(
                                        fs.theta_of([c])) else 1.0)
        problem = fs.build_local_ncut(
            graph, fs.NCutProblemSpec(seed=(s,), bound=k), gamma)
        cfg = fs.SolverConfig(initializations=1, seed=done)
        sol = fs.ratio_dca_multistart(problem, cfg,
                                      warm_starts=(problem.indicator(A),))
        assert all(sol.feasible)
        assert sol.value <= num(A) / den(A) + 1e-10
        done += 1


def test_start_at_penalized_optimum_terminates_there(rng):
    # indicator of the exhaustive penalized optimum cannot be improved
    from helpers import all_subsets
    for _ in range(10):
        problem, graph = random_ncut_problem(rng)
        best, best_set = math.inf, None
        for A in all_subsets(problem.m, nonempty=True):
            C = problem.expand(A)
            v = problem.penalized_value(C)
            if v < best:
                best, best_set = v, A
        sol = ratio_dca(problem, problem.indicator(problem.expand(best_set)),
                        fs.SolverConfig())
        assert sol.penalized_value == pytest.approx(best, rel=1e-9, abs=1e-12)


def test_penalty_consistency_on_feasible_sets(rng):
    for _ in range(10):
        problem, _ = random_ncut_problem(rng)
        sol = fs.ratio_dca_multistart(problem,
                                      fs.SolverConfig(initializations=3, seed=5))
        if all(sol.feasible):
            assert sol.penalized_value == pytest.approx(sol.value, rel=1e-12)


def test_seed_covering_graph_returns_seed_solution():
    graph = fs.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    spec = fs.DensityProblemSpec(seed=(0, 1, 2))
    problem = fs.build_max_density(graph, spec, 0.0)
    assert problem.m == 0
    sol = fs.ratio_dca_multistart(problem, fs.SolverConfig())
    assert np.array_equal(sol.set_ids, [0, 1, 2])
    assert sol.value == pytest.approx(3.0 / 6.0)


def test_invalid_starts_raise(rng):
    problem, _ = random_ncut_problem(rng)
    with pytest.raises(ValueError):
        ratio_dca(problem, np.zeros(problem.m), fs.SolverConfig())
    with pytest.raises(ValueError):
        ratio_dca(problem, np.ones(problem.m + 1), fs.SolverConfig())


def test_gamma_schedule_b6_density(b6):
    # unconstrained optimum is the full graph; the bound forces the triangle
    cfg = fs.SolverConfig(initializations=10, seed=42)
    sol = fs.solve_max_density(b6, fs.DensityProblemSpec(seed=(0,), upper=3.0),
                               cfg)
    assert np.array_equal(sol.set_ids, [0, 1, 2])
    assert sol.value == pytest.approx(0.5)
    assert all(sol.feasible)
    assert sol.gamma > 0


def test_gamma_schedule_short_circuits_when_feasible(b6):
    cfg = fs.SolverConfig(initializations=5, seed=1)
    sol = fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=14.0),
                              cfg)
    assert sol.gamma == 0.0
    assert all(sol.feasible)


def test_schedule_reports_infeasible_configuration(b6):
    with pytest.raises(fs.InfeasibleProblem):
        fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=1.0),
                            fs.SolverConfig(initializations=2, seed=0))


def test_extension_values_match_seed_reduced_ratio(rng):
    # Q_gamma at an indicator equals the penalized set quotient
    for _ in range(10):
        problem, _ = random_ncut_problem(rng)
        A = np.nonzero(rng.random(problem.m) < 0.5)[0]
        if A.size == 0:
            continue
        f = np.zeros(problem.m)
        f[A] = 1.0
        r, s = extension_values(problem, f)
        C = problem.expand(A)
        if s > 0:
            assert r / s == pytest.approx(problem.penalized_value(C),
                                          rel=1e-9, abs=1e-12)
