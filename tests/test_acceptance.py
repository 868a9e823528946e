"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines are written to the real stdout so they stay visible under
pytest's capture; run `pytest tests/test_acceptance.py` to execute only this
gate.
"""

import math
import sys
import time

import numpy as np

import fracset as fs
from fracset.constraints import SeedContainment
from fracset.lovasz import Assoc, Balance, Cut, ModularVolume
from fracset.ratiodca import extension_values, ratio_dca

from helpers import (all_subsets, balance_value, density_functions, er_graph,
                     inner_grid_minimum, ncut_functions, nonempty_indicator,
                     penalty_value, planted_partition, random_inner_problem, truncated_volume, weighted_graph)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          file=sys.__stdout__, flush=True)
    assert ok, f"{name}: {detail}"


def test_01_global_density_matches_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    good = 0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(5, 13))
        graph = er_graph(n, 0.4, rng)
        members, ratio = fs.dinkelbach_max_density(graph)
        num, den = density_functions(graph)
        oracle = fs.brute_force(graph, num, den)
        if abs(ratio - oracle.best_value) < 1e-9:
            good += 1
    elapsed = time.time() - start
    report("01 global-density-oracle", good == trials and elapsed < 10.0,
           f"{good}/{trials} exact, {elapsed:.2f}s")


def test_02_extension_and_assembled_indicator_consistency():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        graph = weighted_graph(n, 0.5, rng)
        g = rng.uniform(0.0, 2.0, n)
        h = rng.uniform(0.0, 2.0, n)
        k = float(rng.uniform(0.5, h.sum() + 0.5))
        deg = graph.degrees
        # (sweepable set function, independent oracle)
        fns = [(Cut(graph), lambda C: fs.cut_value(graph, C)),
               (Assoc(graph), lambda C: fs.assoc_value(graph, C)),
               (ModularVolume(g), lambda C: fs.volume(g, C)),
               (truncated_volume(h, k), lambda C: min(k, h[C].sum())),
               (nonempty_indicator(n), lambda C: float(len(C) > 0)),
               (Balance(deg), lambda C: balance_value(deg, C)),
               (fs.VolumeConstraint(h, k, upper=True),
                lambda C: penalty_value(h, k, C)),
               (fs.VolumeConstraint(h, k, upper=False),
                lambda C: penalty_value(h, k, C, upper=False))]
        for C in all_subsets(n):
            ind = np.zeros(n)
            ind[C] = 1.0
            for fn, oracle in fns:
                worst = max(worst, abs(fs.lovasz_value(fn, ind) - oracle(C)))
                checked += 1
    ok_ext = worst <= 1e-12

    # assembled problems reproduce the seed-reduced objectives exhaustively
    worst_asm = 0.0
    for trial in range(12):
        n = int(rng.integers(5, 9))
        graph = er_graph(n, 0.5, rng)
        if trial % 2 == 0:
            deg = graph.degrees
            s = int(rng.choice(np.nonzero(deg > 0)[0]))
            k = float(deg[s] + rng.uniform(0.3, 1.0) * (deg.sum() - deg[s]))
            problem = fs.build_local_ncut(
                graph, fs.NCutProblemSpec(seed=(s,), bound=k)
            ).with_gamma(float(rng.uniform(0.1, 2.0)))
            num, den = ncut_functions(graph)
            bounds = [fs.VolumeConstraint(deg, k, upper=True)]
        else:
            seed = tuple(np.sort(rng.choice(n, size=2, replace=False)))
            h = np.ones(n)
            lower = float(rng.integers(0, 3))
            upper = float(rng.integers(3, n + 1))
            problem = fs.build_max_density(
                graph, fs.DensityProblemSpec(seed=seed, h=h,
                                             lower=lower, upper=upper)
            ).with_gamma(float(rng.uniform(0.1, 2.0)))
            num, den = density_functions(graph)
            bounds = [fs.VolumeConstraint(h, upper, upper=True),
                      fs.VolumeConstraint(h, lower, upper=False)]
        for A in all_subsets(problem.m, nonempty=True):
            f = np.zeros(problem.m)
            f[A] = 1.0
            r, s_val = extension_values(problem, f)
            C = problem.expand(A)
            full_num = (num(C)
                        + problem.gamma * sum(c.violation(C) for c in bounds))
            scale = max(1.0, abs(full_num))
            worst_asm = max(worst_asm, abs(r - full_num) / scale)
            scale = max(1.0, abs(den(C)))
            worst_asm = max(worst_asm, abs(s_val - den(C)) / scale)
    ok_asm = worst_asm <= 1e-9
    elapsed = time.time() - start
    report("02 tightness-extension-suite", ok_ext and ok_asm,
           f"{checked} indicator checks, worst {worst:.2e}; "
           f"assembled worst rel {worst_asm:.2e}; {elapsed:.1f}s")


def test_03_thresholding_lemma():
    rng = np.random.default_rng(303)
    start = time.time()
    good = 0
    total = 1000
    done = 0
    while done < total:
        n = int(rng.integers(4, 11))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        pos = np.nonzero(deg > 0)[0]
        s = int(rng.choice(pos))
        k = float(deg[s] + rng.uniform(0.2, 1.0) * (deg.sum() - deg[s]))
        problem = fs.build_local_ncut(
            graph, fs.NCutProblemSpec(seed=(s,), bound=k)
        ).with_gamma(float(rng.uniform(0.0, 2.0)))
        for _ in range(20):
            if done >= total:
                break
            f = rng.uniform(0, 1, problem.m)
            r, s_val = extension_values(problem, f)
            if s_val <= 0:
                continue
            q = r / s_val
            sweep = fs.optimal_threshold(
                f, problem.on_active(problem.numerator.set_function),
                problem.on_active(problem.denominator.set_function))
            done += 1
            if q >= sweep.best_value - 1e-10:
                good += 1
    elapsed = time.time() - start
    report("03 thresholding-lemma", good == total,
           f"{good}/{total}, {elapsed:.1f}s")


def test_04_descent_traces():
    rng = np.random.default_rng(404)
    start = time.time()
    violations = 0
    traces = 0
    for _ in range(150):
        n = int(rng.integers(5, 11))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        k = float(deg[s] + rng.uniform(0.3, 0.8) * (deg.sum() - deg[s]))
        problem = fs.build_local_ncut(
            graph, fs.NCutProblemSpec(seed=(s,), bound=k)
        ).with_gamma(float(rng.uniform(0.0, 2.0)))
        sol = ratio_dca(problem, rng.random(problem.m))
        traces += 1
        if any(b >= a for a, b in zip(sol.trace, sol.trace[1:])):
            violations += 1
    elapsed = time.time() - start
    report("04 strict-descent", violations == 0,
           f"{traces} traces, {violations} violations, {elapsed:.1f}s")


def test_05_quality_guarantee_from_feasible_starts():
    rng = np.random.default_rng(505)
    start = time.time()
    good = 0
    total = 100
    done = 0
    while done < total:
        use_density = done % 3 == 2
        n = int(rng.integers(5, 12))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        rest = np.setdiff1d(np.arange(n), [s])
        A = np.sort(np.concatenate(
            [[s], rest[rng.random(rest.size) < 0.4]])).astype(np.int64)
        if use_density:
            h = np.ones(n)
            k = float(A.size + rng.integers(0, 3))
            c = fs.VolumeConstraint(h, k, upper=True)
            num, den = density_functions(graph)
            smax = fs.assoc_value(graph, np.arange(n))
            spec = fs.DensityProblemSpec(seed=(s,), h=h, upper=k)
            build = lambda gam: fs.build_max_density(graph, spec).with_gamma(gam)
        else:
            k = float(fs.volume(deg, A) + rng.uniform(0.0, deg.sum() / 4))
            c = fs.VolumeConstraint(deg, k, upper=True)
            num, den = ncut_functions(graph)
            smax = 0.25 * float(deg.sum()) ** 2
            spec = fs.NCutProblemSpec(seed=(s,), bound=k)
            build = lambda gam: fs.build_local_ncut(graph, spec).with_gamma(gam)
        if not c.satisfied(A) or den(A) <= 0 or A.size <= 1:
            continue
        theta = fs.theta_of([c])
        if not math.isfinite(theta):
            theta = 1.0
        gamma = fs.gamma_sufficient(num(A), den(A), smax, theta)
        try:
            problem = build(gamma)
        except fs.InfeasibleProblem:
            continue
        sol = ratio_dca(problem, problem.indicator(A))
        done += 1
        if all(sol.feasible) and sol.value <= num(A) / den(A) + 1e-10:
            good += 1
    elapsed = time.time() - start
    report("05 quality-guarantee", good == total,
           f"{good}/{total}, {elapsed:.1f}s")


def test_06_schedule_always_feasible():
    rng = np.random.default_rng(606)
    start = time.time()
    good = 0
    total = 100
    done = 0
    cfg = fs.SolverConfig(initializations=5, seed=606)
    while done < total:
        kind = done % 10
        n = int(rng.integers(5, 12))
        graph = er_graph(n, 0.45, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        try:
            if kind < 4:
                k = float(deg[s] + rng.uniform(0.15, 0.6) * (deg.sum() - deg[s]))
                sol = fs.solve_local_ncut(
                    graph, fs.NCutProblemSpec(seed=(s,), bound=k), cfg)
            elif kind < 7:
                k = float(rng.integers(2, max(3, n // 2) + 1))
                sol = fs.solve_max_density(
                    graph, fs.DensityProblemSpec(seed=(s,), upper=k), cfg)
            else:
                lower = float(rng.integers(0, 3))
                upper = float(rng.integers(3, n + 1))
                sol = fs.solve_max_density(
                    graph, fs.DensityProblemSpec(seed=(s,), lower=lower,
                                                 upper=upper), cfg)
        except fs.InfeasibleProblem:
            continue
        done += 1
        if all(sol.feasible):
            good += 1
    elapsed = time.time() - start
    report("06 schedule-feasibility", good == total,
           f"{good}/{total} feasible, {elapsed:.1f}s")


def test_07_inner_solver_oracle_and_gaps():
    rng = np.random.default_rng(707)
    start = time.time()
    good = 0
    trials = 50
    for _ in range(trials):
        problem = random_inner_problem(rng)
        sol = fs.solve_inner(problem, tol=1e-8)
        oracle = inner_grid_minimum(problem)
        if abs(sol.value - oracle) <= 2e-3:
            good += 1
    gaps_ok = True
    worst_gap = 0.0
    for n in (5, 20, 50, 100, 200):
        for _ in range(2):
            graph = er_graph(n, min(0.5, 10.0 / n), rng)
            problem = fs.InnerProblem(
                float(rng.uniform(0, 2)), rng.normal(0, 1, n),
                float(rng.uniform(0.1, 2.0)), graph)
            sol = fs.solve_inner(problem, tol=1e-6, max_iter=100000)
            rel = sol.gap / max(1.0, abs(sol.dual_value))
            worst_gap = max(worst_gap, rel)
            if not (sol.converged and rel <= 1e-6):
                gaps_ok = False
    elapsed = time.time() - start
    report("07 inner-oracle-and-gap", good == trials and gaps_ok,
           f"{good}/{trials} grid matches, worst rel gap {worst_gap:.2e}, "
           f"{elapsed:.1f}s")


def test_08_subgradient_identities():
    rng = np.random.default_rng(808)
    start = time.time()
    t2_good = 0
    greedy_good = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 10))
        h = rng.uniform(0, 2, n)
        cap = float(rng.uniform(0, h.sum() + 0.5))
        f = rng.uniform(0, 1, n)
        t = fs.truncated_volume_subgradient(h, cap, f)
        if abs(float(f @ t)
               - fs.lovasz_value(truncated_volume(h, cap), f)) <= 1e-10:
            t2_good += 1
        graph = weighted_graph(max(n, 2), 0.5, rng)
        fn = Balance(graph.degrees)
        f2 = rng.uniform(0, 1, graph.n)
        s = fs.greedy_subgradient(fn, f2)
        if abs(float(f2 @ s) - fs.lovasz_value(fn, f2)) <= 1e-10:
            greedy_good += 1
    elapsed = time.time() - start
    report("08 subgradient-identities",
           t2_good == trials and greedy_good == trials,
           f"t2 {t2_good}/{trials}, greedy {greedy_good}/{trials}, "
           f"{elapsed:.1f}s")


def test_09_constrained_recovery_rate():
    rng = np.random.default_rng(909)
    start = time.time()
    hits = 0
    infeasible = 0
    total = 100
    done = 0
    while done < total:
        use_density = done % 2 == 1
        n = int(rng.integers(5, 13))
        graph = er_graph(n, 0.4, rng)
        deg = graph.degrees
        s = int(rng.choice(np.nonzero(deg > 0)[0]))
        cfg = fs.SolverConfig(initializations=10, seed=done)
        try:
            if use_density:
                k = float(rng.integers(2, max(3, n // 2) + 1))
                sol = fs.solve_max_density(
                    graph, fs.DensityProblemSpec(seed=(s,), upper=k), cfg)
                num, den = density_functions(graph)
                constraints = [fs.VolumeConstraint(np.ones(n), k, upper=True)]
            else:
                k = float(deg[s] + rng.uniform(0.2, 0.6) * (deg.sum() - deg[s]))
                sol = fs.solve_local_ncut(
                    graph, fs.NCutProblemSpec(seed=(s,), bound=k), cfg)
                num, den = ncut_functions(graph)
                constraints = [fs.VolumeConstraint(deg, k, upper=True)]
        except fs.InfeasibleProblem:
            continue
        oracle = fs.brute_force(graph, num, den, constraints=constraints,
                                seed=(s,))
        if oracle.best_set is None:
            continue
        done += 1
        if not all(sol.feasible):
            infeasible += 1
        # the oracle lower-bounds every feasible solver result
        assert sol.value >= oracle.best_value - 1e-9
        if abs(sol.value - oracle.best_value) < 1e-9:
            hits += 1
    elapsed = time.time() - start
    report("09 constrained-recovery",
           hits >= 80 and infeasible == 0,
           f"{hits}/{total} optimal (floor 80), {infeasible} infeasible, "
           f"{elapsed:.1f}s")


def test_10_warm_start_dominates_lrw():
    rng = np.random.default_rng(1010)
    start = time.time()
    good = 0
    total = 0
    for _ in range(10):
        graph = planted_partition((30, 30), 0.3, 0.02, rng)
        deg = graph.degrees
        vol_total = float(deg.sum())
        k = float(np.floor(0.5 * vol_total))
        num = Cut(graph)
        den = Balance(deg)
        seeds_done = 0
        while seeds_done < 10:
            s = int(rng.integers(0, graph.n))
            if deg[s] <= 0:
                continue
            seeds_done += 1
            total += 1
            preds = [SeedContainment(np.array([s])),
                     fs.VolumeConstraint(deg, k, upper=True)]
            A, lrw_value, _ = fs.lrw_cluster(graph, [s], num, den,
                                             predicates=preds, max_steps=300)
            constraint = fs.VolumeConstraint(deg, k, upper=True)
            theta = fs.theta_of([constraint])
            num_a, den_a = fs.set_values([num, den], graph.n, A)
            gamma = fs.gamma_sufficient(num_a, den_a, 0.25 * vol_total ** 2,
                                        theta)
            problem = fs.build_local_ncut(
                graph, fs.NCutProblemSpec(seed=(s,), bound=k)).with_gamma(gamma)
            f0 = problem.indicator(A)
            if not np.any(f0 > 0):
                sol = problem.set_solution([], f0, -1)
            else:
                sol = ratio_dca(problem, f0)
            if all(sol.feasible) and sol.value <= lrw_value + 1e-10:
                good += 1
    elapsed = time.time() - start
    report("10 warm-start-dominance", good == total == 100,
           f"{good}/{total}, {elapsed:.1f}s")
