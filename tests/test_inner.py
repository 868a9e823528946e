import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracset.inner import (InnerProblem, _certificate, _primal_map,
                           edge_norm_sq, lipschitz_bound, lipschitz_estimate,
                           objective_value, simplex_project, solve_inner)

from helpers import inner_grid_minimum, random_inner_problem


def one_edge_problem(c1, c2, mu):
    return InnerProblem(c1, np.asarray(c2, dtype=float), mu,
                        np.array([0]), np.array([1]), np.array([1.0]))


def test_simplex_project_examples():
    assert np.allclose(simplex_project([0.5, 0.5, 0.5]), [1 / 3] * 3)
    assert np.allclose(simplex_project([1.0, 0.0, 0.0]), [1, 0, 0])
    assert np.allclose(simplex_project([0.7, 0.2, -0.1]), [0.75, 0.25, 0.0])
    # at any magnitude: no unit mass lost to cancellation against x
    assert np.array_equal(simplex_project([1e17, 1e17]), [0.5, 0.5])
    assert np.array_equal(simplex_project([2.5e16, 2.5e16 - 4, 3]), [1, 0, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
def test_simplex_project_kkt(values):
    x = np.array(values)
    v = simplex_project(x)
    assert v.min() >= 0
    assert v.sum() == pytest.approx(1.0, abs=1e-9)
    # KKT: v = max(x - tau, 0) for the tau implied by the support
    support = v > 0
    tau = (x[support].sum() - 1.0) / support.sum()
    assert np.allclose(v, np.maximum(x - tau, 0), atol=1e-9)


def test_simplex_project_is_projection(rng):
    # the result is the closest simplex point (checked against random candidates)
    for _ in range(20):
        x = rng.normal(0, 2, 5)
        v = simplex_project(x)
        for _ in range(30):
            w = rng.dirichlet(np.ones(5))
            assert np.linalg.norm(x - v) <= np.linalg.norm(x - w) + 1e-12


def test_lipschitz_examples():
    # one unit edge, mu=2: the edge-to-vertex map feeds +-2w, squared norm 8
    L = lipschitz_estimate(one_edge_problem(0.0, [0.0, 0.0], 2.0))
    assert L == pytest.approx(8.0 * 1.1, rel=1e-6)
    # c1 does not enter L: with mu = 0 the bound is 0 and the solve falls
    # back to a unit step, still exact since v is minimized out
    only_c1 = one_edge_problem(1.0, [-1.0, -0.5], 0.0)
    assert lipschitz_estimate(only_c1) == 0.0
    sol = solve_inner(only_c1)
    assert sol.converged
    # max(f) - f_0 - f_1/2 is least at f = (1, 1)/sqrt(2)
    assert sol.value == pytest.approx(-0.5 / np.sqrt(2), abs=1e-9)
    L4 = lipschitz_estimate(one_edge_problem(0.0, [0.0, 0.0], 4.0))
    assert L4 == pytest.approx(4.0 * L, rel=1e-6)


def edge_matrix(m, eu, ev, ew):
    """Dense A of the dual: column e holds +2w_e at u_e and -2w_e at v_e."""
    A = np.zeros((m, eu.size))
    A[eu, np.arange(eu.size)] += 2.0 * ew
    A[ev, np.arange(eu.size)] -= 2.0 * ew
    return A


def test_shared_lipschitz_bounds_every_step_problem(rng):
    # one sigma^2(A) per edge set must bound the exact L for every (mu, c1);
    # v is minimized out, so the exact L is (mu^2/4) lambda_max(A A^T)
    edge_sets = [(5, np.array([0, 1]), np.array([1, 2]), np.ones(2))]  # a path
    while len(edge_sets) < 40:
        m = int(rng.integers(2, 13))
        iu, iv = np.triu_indices(m, 1)
        keep = rng.random(iu.size) < rng.uniform(0.1, 0.9)
        if keep.any():
            edge_sets.append((m, iu[keep], iv[keep],
                              rng.uniform(0.1, 3.0, int(keep.sum()))))
    for m, eu, ev, ew in edge_sets:
        A = edge_matrix(m, eu, ev, ew)
        AAt = A @ A.T
        sigma_sq = edge_norm_sq(InnerProblem(0.0, np.zeros(m), 1.0, eu, ev, ew))
        for mu, c1 in [(1.0, 0.0), (0.3, 1.7), (2.5, 0.4), (0.0, 1.0)]:
            problem = InnerProblem(c1, rng.normal(0, 1, m), mu, eu, ev, ew)
            L = lipschitz_bound(problem, sigma_sq)
            exact = np.linalg.eigvalsh(0.25 * mu * mu * AAt).max()
            assert L >= exact
            assert L <= 1.1 * exact * (1.0 + 1e-9)
            assert L == lipschitz_estimate(problem)


@pytest.mark.parametrize("c1", [0.0, 0.5, 5.0, 50.0])
def test_dual_gradient_is_lipschitz_without_c1(rng, c1):
    # z(y) = P_+(y - c1 v*(y)) is the gradient of 0.5 dist^2(y, R_-^m + c1 simplex),
    # so it is nonexpansive in y = -c2 - (mu/2) A alpha, and the dual gradient
    # -(mu/2) A^T z moves by at most (mu^2/4) lambda_max(A A^T) |d alpha|
    for _ in range(30):
        m = int(rng.integers(2, 11))
        iu, iv = np.triu_indices(m, 1)
        keep = rng.random(iu.size) < rng.uniform(0.2, 0.9)
        if not keep.any():
            continue
        eu, ev = iu[keep], iv[keep]
        ew = rng.uniform(0.1, 3.0, eu.size)
        A = edge_matrix(m, eu, ev, ew)
        mu = float(rng.uniform(0.1, 3.0))
        lam_max = np.linalg.eigvalsh(0.25 * mu * mu * A @ A.T).max()
        c2s = [rng.normal(0, 1 + c1, m) for _ in range(2)]
        maps = [_primal_map(InnerProblem(c1, c2, mu, eu, ev, ew)) for c2 in c2s]
        for _ in range(20):
            a1 = rng.uniform(-1, 1, eu.size)
            near = rng.random() < 0.5
            a2 = np.clip(a1 + (1e-3 if near else 1.0) * rng.normal(0, 1, eu.size),
                         -1, 1)
            for (i, a), (j, b) in [((0, a1), (0, a2)), ((0, a1), (1, a2)),
                                   ((0, a1), (1, a1))]:
                y_a = -c2s[i] - 0.5 * mu * A @ a
                y_b = -c2s[j] - 0.5 * mu * A @ b
                v_a, z_a = maps[i](a)
                v_b, z_b = maps[j](b)
                for v in (v_a, v_b):
                    assert v.min() >= 0 and v.sum() == pytest.approx(1.0)
                assert np.linalg.norm(z_a - z_b) <= (
                    np.linalg.norm(y_a - y_b) * (1 + 1e-9) + 1e-12)
                if i == j:
                    g_a, g_b = -0.5 * mu * A.T @ z_a, -0.5 * mu * A.T @ z_b
                    assert np.linalg.norm(g_a - g_b) <= (
                        lam_max * np.linalg.norm(a - b) * (1 + 1e-9) + 1e-12)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_sufficient_descent_stop_is_certified(rng, rho):
    from helpers import er_graph
    earlier = 0
    for _ in range(10):
        graph = er_graph(12, 0.3, rng)
        c1, c2 = float(rng.uniform(0, 1)), rng.normal(-0.5, 1, graph.n)
        # the constant vector gives descent, so the optimum is negative
        c2 -= max(0.0, c1 + c2.sum() + 1.0) / graph.n
        problem = InnerProblem(c1, c2, float(rng.uniform(0.1, 1)),
                               graph.edge_u, graph.edge_v, graph.edge_w)
        full = solve_inner(problem, tol=1e-9, check_every=1)
        early = solve_inner(problem, tol=1e-9, check_every=1, descent=rho)
        assert early.converged
        assert early.iterations <= full.iterations
        earlier += early.iterations < full.iterations
        assert early.dual_value < 0
        assert objective_value(problem, early.f) <= (
            -rho * np.sqrt(-2.0 * early.dual_value) + 1e-12)
        # the certified bound holds: nothing beats -sqrt(-2 D)
        assert full.value >= -np.sqrt(-2.0 * early.dual_value) - 1e-9
    assert earlier >= 5


def zero_optimum_problem(rng):
    """A coupled inner problem whose optimum over the unit ball is 0.

    With p in the simplex and |beta_e| <= 1, max(f) >= <p, f> and
    TV(f) >= sum_e w_e beta_e (f_u - f_v) on f >= 0, so
    c2 = -c1 p - mu B beta leaves a nonnegative objective, which only
    f = 0 attains unless a bound is tight.
    """
    from helpers import er_graph
    graph = er_graph(12, 0.3, rng)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    c1, mu = float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 1))
    wb = ew * rng.uniform(-1, 1, ew.size)
    div = (np.bincount(eu, weights=wb, minlength=graph.n)
           - np.bincount(ev, weights=wb, minlength=graph.n))
    c2 = -c1 * rng.dirichlet(np.ones(graph.n)) - mu * div
    return InnerProblem(c1, c2, mu, eu, ev, ew)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_stall_stop_is_certified(rng, eps):
    # the stall exit returns, converged, once -2D <= eps^2: no point has
    # objective below -eps, and it never takes more steps than the gap test
    earlier = 0
    for _ in range(10):
        problem = zero_optimum_problem(rng)
        full = solve_inner(problem)
        stalled = solve_inner(problem, stall=eps)
        assert stalled.converged
        assert -2.0 * stalled.dual_value <= eps * eps
        assert stalled.iterations <= full.iterations
        earlier += stalled.iterations < full.iterations
        reference = solve_inner(problem, tol=1e-9, check_every=1)
        assert reference.value >= -eps - 1e-9
        assert reference.value >= -np.sqrt(-2.0 * stalled.dual_value) - 1e-9
    assert earlier >= 5


def test_solve_inner_nonnegative_objective_returns_zero():
    sol = solve_inner(one_edge_problem(0.0, [0.5, 0.2], 0.7))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.f, 0.0)


def test_solve_inner_symmetric_negative_linear():
    sol = solve_inner(one_edge_problem(0.0, [-1.0, -1.0], 0.1))
    assert np.allclose(sol.f, [1 / np.sqrt(2)] * 2, atol=1e-6)
    assert sol.value == pytest.approx(-np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("mu", [4.0, 0.5])
def test_solve_inner_tv_tradeoff_matches_grid(mu):
    # with c2 = (-1, 0) the constant direction wins for both TV weights
    problem = one_edge_problem(0.0, [-1.0, 0.0], mu)
    sol = solve_inner(problem)
    oracle = inner_grid_minimum(problem, steps=300001)
    assert sol.value == pytest.approx(oracle, abs=1e-4)
    assert sol.value == pytest.approx(-1 / np.sqrt(2), abs=1e-5)


def test_grid_oracle_equivalence_small(rng):
    for _ in range(15):
        problem = random_inner_problem(rng)
        sol = solve_inner(problem, tol=1e-8)
        oracle = inner_grid_minimum(problem)
        assert sol.value == pytest.approx(oracle, abs=2e-3)
        assert sol.value <= 1e-12


def test_iterate_feasibility_and_certificates(rng):
    for _ in range(15):
        problem = random_inner_problem(rng, m=int(rng.integers(2, 4)),
                                       scale_to_unit_lipschitz=False)
        sol = solve_inner(problem, tol=1e-8, check_every=1)
        assert sol.gap >= -1e-12
        assert sol.modified_value >= sol.dual_value - 1e-9
        assert np.all(sol.f >= 0)
        assert np.linalg.norm(sol.f) <= 1 + 1e-9
        assert np.all(np.abs(sol.alpha) <= 1 + 1e-12)
        assert sol.v.min() >= -1e-12
        assert sol.v.sum() == pytest.approx(1.0, abs=1e-9)
        # the homogeneous value of the returned point matches its definition
        assert sol.value == pytest.approx(objective_value(problem, sol.f),
                                          abs=1e-12)


def test_dual_value_improves_on_cold_start(rng):
    for _ in range(10):
        problem = random_inner_problem(rng, m=3, scale_to_unit_lipschitz=False)
        _, _, _, d0, _ = _certificate(problem, _primal_map(problem),
                                      np.zeros(problem.edge_w.size))
        sol = solve_inner(problem, tol=1e-9)
        assert sol.dual_value >= d0 - 1e-9


def test_scale_covariance(rng):
    problem = random_inner_problem(rng, m=3, scale_to_unit_lipschitz=False)
    sol = solve_inner(problem, tol=1e-10)
    for s in (0.5, 3.0):
        scaled = InnerProblem(s * problem.c1, s * problem.c2, s * problem.mu,
                              problem.edge_u, problem.edge_v, problem.edge_w)
        sol_s = solve_inner(scaled, tol=1e-10)
        assert sol_s.value == pytest.approx(s * sol.value, rel=1e-4, abs=1e-6)
        if np.linalg.norm(sol.f) > 1e-6:
            assert np.allclose(sol_s.f, sol.f, atol=1e-3)


def test_warm_start_reaches_same_optimum(rng):
    problem = random_inner_problem(rng, m=3, scale_to_unit_lipschitz=False)
    cold = solve_inner(problem, tol=1e-9)
    warm = solve_inner(problem, tol=1e-9, warm=cold.alpha)
    assert warm.value == pytest.approx(cold.value, abs=1e-6)
    assert warm.iterations <= cold.iterations


def test_gap_converges_on_larger_instances(rng):
    from helpers import er_graph
    for n in (20, 60):
        graph = er_graph(n, 0.2, rng)
        problem = InnerProblem(float(rng.uniform(0, 2)),
                               rng.normal(0, 1, n), float(rng.uniform(0.1, 2)),
                               graph.edge_u, graph.edge_v, graph.edge_w)
        sol = solve_inner(problem, tol=1e-6, max_iter=50000)
        assert sol.converged
        assert sol.gap <= 1e-6 * max(1.0, abs(sol.dual_value))
