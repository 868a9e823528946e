import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fracset as fs
from fracset.ratiodca import continuous_ratio, extension_values, ratio_dca

from helpers import er_graph, ncut_functions, planted_partition


def random_ncut_problem(rng, gamma_scale=1.0):
    n = int(rng.integers(5, 11))
    graph = er_graph(n, 0.5, rng)
    deg = graph.degrees
    pos = np.nonzero(deg > 0)[0]
    s = int(rng.choice(pos))
    k = float(deg[s] + rng.uniform(0.3, 0.7) * (deg.sum() - deg[s]))
    gamma = float(rng.uniform(0.0, 2.0)) * gamma_scale
    spec = fs.NCutProblemSpec(seed=(s,), bound=k)
    return fs.build_local_ncut(graph, spec).with_gamma(gamma), graph


def test_traces_strictly_decreasing(rng):
    for _ in range(30):
        problem, _ = random_ncut_problem(rng)
        f0 = rng.random(problem.m)
        sol = ratio_dca(problem, f0)
        trace = sol.trace
        assert len(trace) >= 1
        for a, b in zip(trace, trace[1:]):
            assert b < a


def test_lambda_is_continuous_ratio_and_threshold_never_hurts(rng):
    for _ in range(20):
        problem, _ = random_ncut_problem(rng)
        f0 = rng.random(problem.m)
        sol = ratio_dca(problem, f0)
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


def counting_spy(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_multistart_estimates_lipschitz_once(rng, monkeypatch):
    # every start and outer step of one problem shares one sigma^2(A)
    import fracset.inner
    import fracset.ratiodca
    calls = {"lipschitz": 0, "inner": 0}
    monkeypatch.setattr(fracset.inner, "lipschitz_estimate", counting_spy(
        calls, "lipschitz", fracset.inner.lipschitz_estimate))
    monkeypatch.setattr(fracset.ratiodca, "solve_inner", counting_spy(
        calls, "inner", fracset.ratiodca.solve_inner))
    problem, _ = random_ncut_problem(rng)
    cfg = fs.SolverConfig(initializations=5, seed=11)
    fs.ratio_dca_multistart(problem, cfg, warm_starts=(rng.random(problem.m),))
    assert calls["inner"] > 6
    assert calls["lipschitz"] <= 1


def test_schedule_builds_problem_once(b6, monkeypatch):
    # every gamma round re-weights the one built problem: one seed reduction
    # and one sigma^2(A) per solve
    import fracset.inner
    import fracset.problems
    import fracset.ratiodca
    calls = {"build": 0, "lipschitz": 0, "rounds": 0}
    monkeypatch.setattr(fracset.problems, "build_local_ncut", counting_spy(
        calls, "build", fracset.problems.build_local_ncut))
    monkeypatch.setattr(fracset.inner, "lipschitz_estimate", counting_spy(
        calls, "lipschitz", fracset.inner.lipschitz_estimate))
    monkeypatch.setattr(fracset.ratiodca, "ratio_dca_multistart", counting_spy(
        calls, "rounds", fracset.ratiodca.ratio_dca_multistart))
    sol = fs.solve_local_ncut(b6, fs.NCutProblemSpec(seed=(0,), bound=5.0),
                              fs.SolverConfig(initializations=2, seed=0))
    assert all(sol.feasible)
    assert calls["rounds"] >= 3   # the unpenalized round and two gamma rounds
    assert calls["build"] == 1
    assert calls["lipschitz"] == 1


def test_schedule_jumps_past_losing_weights_and_warm_starts_the_best(
        monkeypatch):
    # a binding local cut on a planted partition: after every round, the
    # unpenalized one included, gamma jumps to at least a quarter of the
    # winner's break-even weight (from its set values), at least doubles or
    # reaches the cap, never passes the sufficient cap, and every penalized
    # round starts from the best feasible set seen, whose ratio the cap is
    # computed from
    import fracset.ratiodca
    multistart = fracset.ratiodca.ratio_dca_multistart
    sufficient = fracset.ratiodca.gamma_sufficient
    log = []

    def spy_multistart(problem, cfg=None, warm_starts=(), round_index=0):
        result = multistart(problem, cfg, warm_starts, round_index)
        log.append(("round", problem, [np.asarray(w) for w in warm_starts],
                    result))
        return result

    def spy_sufficient(num, den, *args):
        cap = sufficient(num, den, *args)
        log.append(("cap", num / den, cap))
        return cap

    monkeypatch.setattr(fracset.ratiodca, "ratio_dca_multistart",
                        spy_multistart)
    monkeypatch.setattr(fracset.ratiodca, "gamma_sufficient", spy_sufficient)
    graph = planted_partition([6, 6, 6], 0.8, 0.08, np.random.default_rng(7))
    spec = fs.NCutProblemSpec(seed=(0,), bound=0.2 * float(graph.degrees.sum()))
    sol = fs.solve_local_ncut(graph, spec,
                              fs.SolverConfig(initializations=2, seed=5))
    assert all(sol.feasible)

    rounds, cap = [], None   # (problem, warm starts, result, lam_best, cap)
    for event in log:
        if event[0] == "cap":
            cap = event[1:]
        else:
            rounds.append((*event[1:], *(cap or (None, None))))
            cap = None
    assert rounds[0][0].gamma == 0.0 and len(rounds) >= 4
    # round 0's winner already jumps the first penalized gamma past its
    # floor max(1e-3, unconstrained ratio)
    assert rounds[1][0].gamma > max(1e-3, rounds[0][2].value) * (1 + 1e-12)
    for (prev, _, prev_result, _, _), (problem, _, _, lam_best, cap) in zip(
            rounds, rounds[1:]):
        gamma = problem.gamma
        assert cap is not None        # the bare seed is feasible from round 0
        assert gamma <= cap
        assert gamma >= 2.0 * prev.gamma or gamma == cap
        num, den, violations = prev.score(
            np.flatnonzero(prev.indicator(prev_result.set_ids)))
        break_even = (lam_best * den - num) / sum(violations)
        assert gamma >= min(cap, 0.25 * break_even) * (1 - 1e-12)
    for problem, warm, _, lam_best, _ in rounds[1:]:
        best = [w for w in warm if np.all((w == 0) | (w == 1))]
        scores = [problem.score(np.flatnonzero(w)) for w in best]
        assert any(not any(viol) and num / den == lam_best
                   for num, den, viol in scores)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 100.0))
def test_break_even_ties_the_infeasible_set_with_the_best(seed, t):
    # at the break-even weight, computed at gamma 0, an infeasible set's
    # penalized ratio equals the best feasible ratio
    from fracset.ratiodca import _break_even
    rng = np.random.default_rng(seed)
    problem, _ = random_ncut_problem(rng)
    problem = problem.with_gamma(0.0)
    A = np.flatnonzero(rng.random(problem.m) < rng.uniform(0.3, 1.0))
    num, den, violations = problem.score(A)
    assume(den > 0 and num > 0 and sum(violations) > 0)
    lam_best = num / den * (1.0 + t)
    gamma = _break_even(problem, problem.expand(A), lam_best)
    pen = problem.with_gamma(gamma).set_solution(A, None, 0).penalized_value
    assert pen == pytest.approx(lam_best, rel=1e-12)


def test_every_gamma_round_draws_fresh_random_starts(monkeypatch):
    # the random starts of one solve differ from round to round, and a
    # second solve with the same configuration repeats the first exactly
    import fracset.ratiodca
    multistart = fracset.ratiodca.ratio_dca_multistart
    dca = fracset.ratiodca.ratio_dca
    cfg = fs.SolverConfig(initializations=2, seed=5)
    log = []

    def spy_multistart(problem, cfg=None, warm_starts=(), round_index=0):
        log.append((round_index, problem.gamma, []))
        return multistart(problem, cfg, warm_starts, round_index)

    def spy_dca(problem, f0, init_id=0):
        if init_id < cfg.initializations:
            log[-1][2].append(np.array(f0))
        return dca(problem, f0, init_id)

    monkeypatch.setattr(fracset.ratiodca, "ratio_dca_multistart",
                        spy_multistart)
    monkeypatch.setattr(fracset.ratiodca, "ratio_dca", spy_dca)
    graph = planted_partition([6, 6, 6], 0.8, 0.08, np.random.default_rng(7))
    spec = fs.NCutProblemSpec(seed=(0,), bound=0.2 * float(graph.degrees.sum()))
    solutions, logs = [], []
    for _ in range(2):
        log.clear()
        solutions.append(fs.solve_local_ncut(graph, spec, cfg))
        logs.append(list(log))
    rounds = logs[0]
    assert len(rounds) >= 3
    assert [r for r, _, _ in rounds] == list(range(len(rounds)))
    for _, _, starts in rounds:
        assert len(starts) == cfg.initializations
    for (_, _, a), (_, _, b) in zip(rounds, rounds[1:]):
        assert not any(np.array_equal(x, y) for x in a for y in b)
    for (ra, ga, a), (rb, gb, b) in zip(*logs):
        assert (ra, ga) == (rb, gb)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    first, second = solutions
    assert np.array_equal(first.set_ids, second.set_ids)
    assert (first.value, first.gamma, first.init_id) == (
        second.value, second.gamma, second.init_id)


def test_ratio_dca_ends_a_start_at_an_inner_stall(monkeypatch):
    # a start ends at the first inner solve that certifies that no point
    # promises a relative drop of OUTER_TOL, without taking a step from it;
    # on a binding local cut such solves stop well before their duality gap
    # would have let them
    import fracset.ratiodca
    from fracset.ratiodca import OUTER_TOL
    solve = fracset.ratiodca.solve_inner
    dca = fracset.ratiodca.ratio_dca
    calls, starts = [], []

    def spy_inner(problem, stall=None, **kwargs):
        sol = solve(problem, stall=stall, **kwargs)
        full = solve(problem, **kwargs)
        calls.append((-2.0 * sol.dual_value <= stall * stall, stall, sol, full))
        return sol

    def spy_dca(problem, f0, init_id=0):
        calls.clear()
        sol = dca(problem, f0, init_id)
        starts.append((problem, sol, list(calls)))
        return sol

    monkeypatch.setattr(fracset.ratiodca, "solve_inner", spy_inner)
    monkeypatch.setattr(fracset.ratiodca, "ratio_dca", spy_dca)
    graph = planted_partition([6, 6, 6], 0.8, 0.08, np.random.default_rng(7))
    spec = fs.NCutProblemSpec(seed=(0,), bound=0.2 * float(graph.degrees.sum()))
    fs.solve_local_ncut(graph, spec, fs.SolverConfig(initializations=2, seed=5))
    stalled, iterations, full_iterations = 0, 0, 0
    for problem, sol, inner in starts:
        assert sol.converged
        assert all(b < a for a, b in zip(sol.trace, sol.trace[1:]))
        assert not any(ended for ended, *_ in inner[:-1])
        ended, stall, last, full = inner[-1]
        if ended:
            stalled += 1
            assert last.converged
            r, _ = extension_values(problem, sol.f)
            assert stall == pytest.approx(OUTER_TOL * r, rel=1e-12)
            assert len(sol.trace) == len(inner)     # no step from the last
            assert last.iterations <= full.iterations
            iterations += last.iterations
            full_iterations += full.iterations
    assert stalled >= 1
    assert iterations < full_iterations


def test_multistart_raises_unexpected_errors(rng, monkeypatch):
    # only the errors ratio_dca raises by design drop a start; any other
    # error is a fault and propagates
    import fracset.ratiodca
    threshold = fracset.ratiodca.optimal_threshold
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise IndexError("planted fault")
        return threshold(*args, **kwargs)

    monkeypatch.setattr(fracset.ratiodca, "optimal_threshold", fails_once)
    problem, _ = random_ncut_problem(rng)
    with pytest.raises(IndexError, match="planted fault"):
        fs.ratio_dca_multistart(problem,
                                fs.SolverConfig(initializations=3, seed=0))
    assert len(calls) == 1


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
            graph, fs.NCutProblemSpec(seed=(s,), bound=k)).with_gamma(gamma)
        sol = ratio_dca(problem, problem.indicator(A))
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
            graph, fs.NCutProblemSpec(seed=(s,), bound=k)).with_gamma(gamma)
        cfg = fs.SolverConfig(initializations=1, seed=done)
        sol = fs.ratio_dca_multistart(problem, cfg,
                                      warm_starts=(problem.indicator(A),))
        assert all(sol.feasible)
        assert sol.value <= num(A) / den(A) + 1e-10
        done += 1


def penalized_set_value(problem, graph, C):
    """Penalized ratio of the full-graph set C from graph-level functions;
    inf where the denominator is not positive."""
    num, den = ncut_functions(graph)
    if den(C) <= 0:
        return math.inf
    penalty = sum(c.violation(C) for c in problem.constraints)
    return (num(C) + problem.gamma * penalty) / den(C)


def test_start_at_penalized_optimum_terminates_there(rng):
    # indicator of the exhaustive penalized optimum cannot be improved
    from helpers import all_subsets
    for _ in range(10):
        problem, graph = random_ncut_problem(rng)
        best, best_set = math.inf, None
        for A in all_subsets(problem.m, nonempty=True):
            C = problem.expand(A)
            v = penalized_set_value(problem, graph, C)
            if v < best:
                best, best_set = v, A
        sol = ratio_dca(problem, problem.indicator(problem.expand(best_set)))
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
    problem = fs.build_max_density(graph, spec).with_gamma(0.0)
    assert problem.m == 0
    sol = fs.ratio_dca_multistart(problem, fs.SolverConfig())
    assert np.array_equal(sol.set_ids, [0, 1, 2])
    assert sol.value == pytest.approx(3.0 / 6.0)


def test_invalid_starts_raise(rng):
    problem, _ = random_ncut_problem(rng)
    with pytest.raises(ValueError):
        ratio_dca(problem, np.zeros(problem.m))
    with pytest.raises(ValueError):
        ratio_dca(problem, np.ones(problem.m + 1))


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
        problem, graph = random_ncut_problem(rng)
        A = np.nonzero(rng.random(problem.m) < 0.5)[0]
        if A.size == 0:
            continue
        f = np.zeros(problem.m)
        f[A] = 1.0
        r, s = extension_values(problem, f)
        C = problem.expand(A)
        if s > 0:
            assert r / s == pytest.approx(penalized_set_value(problem, graph, C),
                                          rel=1e-9, abs=1e-12)
