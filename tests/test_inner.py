import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracset import Graph
from fracset.inner import (InnerProblem, _level_map, _water_level,
                           lipschitz_estimate, objective_value,
                           simplex_project, solve_inner)

from helpers import (dual_base, edge_matrix, inner_grid_minimum,
                     projection_form, random_inner_problem)

ONE_EDGE = Graph(2, [0], [1], [1.0])


def one_edge_problem(c1, c2, mu):
    return InnerProblem(c1, np.asarray(c2, dtype=float), mu, ONE_EDGE)


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
    # one unit edge, mu=2: L_e = mu^2 w (d_u + d_v) = 4 * 1 * 2
    L = lipschitz_estimate(one_edge_problem(0.0, [0.0, 0.0], 2.0))
    assert L.tolist() == [8.0]
    # c1 does not enter L: with mu = 0 the bound is 0 and the solve takes
    # no step, still exact since v is minimized out
    only_c1 = one_edge_problem(1.0, [-1.0, -0.5], 0.0)
    assert lipschitz_estimate(only_c1).tolist() == [0.0]
    sol = solve_inner(only_c1)
    assert sol.converged
    # max(f) - f_0 - f_1/2 is least at f = (1, 1)/sqrt(2)
    assert sol.value == pytest.approx(-0.5 / np.sqrt(2), abs=1e-9)
    L4 = lipschitz_estimate(one_edge_problem(0.0, [0.0, 0.0], 4.0))
    assert L4.tolist() == [4.0 * L[0]]


def test_zero_weight_edge_takes_no_step():
    # the graph drops the zero-weight edge (1, 2), so it has no dual to
    # step; the unit edge (0, 1) steps, and the solve reaches -0.5 at f = e_0
    problem = InnerProblem(0.0, [-1.0, 0.5, 0.2], 0.5,
                           Graph(3, [0, 1], [1, 2], [1.0, 0.0]))
    assert lipschitz_estimate(problem).tolist() == [0.5]
    sol = solve_inner(problem)
    assert sol.converged
    assert sol.value == pytest.approx(-0.5, abs=1e-6)
    assert np.allclose(sol.f, [1.0, 0.0, 0.0], atol=1e-6)
    # a positive weight whose L_e underflows to 0 takes no step either:
    # with z_u = z_v a step of w/0 would turn the dual into nan
    tiny = InnerProblem(0.0, [-1.0, -1.0], 0.5, Graph(2, [0], [1], [1e-170]))
    assert lipschitz_estimate(tiny).tolist() == [0.0]
    sol = solve_inner(tiny)
    assert sol.converged
    assert sol.iterations == 5
    assert sol.value == pytest.approx(-np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("call,fragment", [
    (lambda: one_edge_problem(-1.0, [0.0, 0.0], 1.0), "max-coefficient"),
    (lambda: one_edge_problem(0.0, [0.0, 0.0], -1.0), "TV coefficient"),
    (lambda: simplex_project([]), "empty vector"),
    (lambda: solve_inner(InnerProblem(0.0, [], 1.0, Graph(0))),
     "zero vertices"),
])
def test_invalid_inner_input_raises(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_linear_coefficients_match_the_graph():
    with pytest.raises(ValueError, match="expected 2 linear coefficients"):
        InnerProblem(0.0, [1.0, 2.0, 3.0], 1.0, ONE_EDGE)
    with pytest.raises(ValueError, match="expected 2 linear coefficients"):
        InnerProblem(0.0, 1.0, 1.0, ONE_EDGE)


def test_lipschitz_diagonal_bounds_every_step_problem(rng):
    # the per-edge bounds must dominate the dual's Hessian bound for every
    # (mu, c1): v is minimized out, so that bound is (mu^2/4) A^T A, and
    # diag(L) - (mu^2/4) A^T A is PSD
    edge_sets = [(5, np.array([0, 1]), np.array([1, 2]), np.ones(2))]  # a path
    while len(edge_sets) < 40:
        m = int(rng.integers(2, 13))
        iu, iv = np.triu_indices(m, 1)
        keep = rng.random(iu.size) < rng.uniform(0.1, 0.9)
        if keep.any():
            edge_sets.append((m, iu[keep], iv[keep],
                              rng.uniform(0.1, 3.0, int(keep.sum()))))
    for m, eu, ev, ew in edge_sets:
        graph = Graph(m, eu, ev, ew)
        A = edge_matrix(graph)
        AtA = A.T @ A
        for mu, c1 in [(1.0, 0.0), (0.3, 1.7), (2.5, 0.4), (0.0, 1.0)]:
            problem = InnerProblem(c1, rng.normal(0, 1, m), mu, graph)
            L = lipschitz_estimate(problem)
            assert L.shape == ew.shape
            hess = 0.25 * mu * mu * AtA
            gap = np.linalg.eigvalsh(np.diag(L) - hess).min()
            assert gap >= -1e-9 * max(1.0, float(L.max()))
    # on a matching no two edges share a vertex: the bound is exact
    matching = Graph(6, [0, 2, 4], [1, 3, 5], [0.5, 1.0, 2.5])
    A = edge_matrix(matching)
    for mu in (0.3, 1.0, 2.5):
        L = lipschitz_estimate(InnerProblem(0.0, np.zeros(6), mu, matching))
        hess = 0.25 * mu * mu * A.T @ A
        assert np.allclose(np.diag(L), hess, rtol=1e-12, atol=0.0)


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
        graph = Graph(m, iu[keep], iv[keep],
                      rng.uniform(0.1, 3.0, int(keep.sum())))
        A = edge_matrix(graph)
        mu = float(rng.uniform(0.1, 3.0))
        lam_max = np.linalg.eigvalsh(0.25 * mu * mu * A @ A.T).max()
        c2s = [rng.normal(0, 1 + c1, m) for _ in range(2)]
        for _ in range(20):
            a1 = rng.uniform(-1, 1, graph.num_edges)
            near = rng.random() < 0.5
            a2 = np.clip(a1 + (1e-3 if near else 1.0)
                         * rng.normal(0, 1, graph.num_edges), -1, 1)
            for (i, a), (j, b) in [((0, a1), (0, a2)), ((0, a1), (1, a2)),
                                   ((0, a1), (1, a1))]:
                y_a = -c2s[i] - 0.5 * mu * A @ a
                y_b = -c2s[j] - 0.5 * mu * A @ b
                z_a, z_b = projection_form(y_a, c1), projection_form(y_b, c1)
                assert np.linalg.norm(z_a - z_b) <= (
                    np.linalg.norm(y_a - y_b) * (1 + 1e-9) + 1e-12)
                if i == j:
                    g_a, g_b = -0.5 * mu * A.T @ z_a, -0.5 * mu * A.T @ z_b
                    assert np.linalg.norm(g_a - g_b) <= (
                        lam_max * np.linalg.norm(a - b) * (1 + 1e-9) + 1e-12)


def water_level_reference(x, mass):
    """(top, shift) of the water level in plain Python floats: x sorted
    descending and shifted by its top, a sequential running sum less the
    mass, and the last k with d_k (k + 1) > css_k."""
    d = sorted(x, reverse=True)
    top = d[0]
    d = [e - top for e in d]
    css, total = [], 0.0
    for e in d:
        total += e
        css.append(total - mass)
    rho = max(k for k in range(len(d)) if d[k] * (k + 1) > css[k])
    return top, css[rho] / (rho + 1)


@st.composite
def level_inputs(draw):
    """A vector with ties, zeros and magnitudes up to 1e17, and a mass below
    or above its sum."""
    entry = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 3.0, 1e17, 2.5e16]),
                      st.floats(-1e17, 1e17), st.floats(-10, 10))
    x = draw(st.lists(entry, min_size=1, max_size=12))
    if draw(st.booleans()):
        x += draw(st.lists(st.sampled_from(x), max_size=4))   # ties
    mass = (abs(math.fsum(x)) * draw(st.floats(0.0, 3.0))
            + draw(st.floats(1e-9, 10.0)))
    return np.array(x), mass


@settings(max_examples=500, deadline=None)
@given(level_inputs())
def test_water_level_is_the_formula_bit_for_bit(case):
    # the level's bits decide which entries a step caps, and local-cut
    # answers are chaotic in the last bits of the inner solves: any
    # reordering of the level's arithmetic shows here first
    x, mass = case
    top, shift = _water_level(x, mass, np.arange(1.0, x.size + 1.0))
    ref_top, ref_shift = water_level_reference(x.tolist(), mass)
    assert top == ref_top and shift == ref_shift


@st.composite
def level_cases(draw):
    """Edge duals and a problem in one regime of the level form: coupled,
    c1 = 0, uncoupled (no edges or mu = 0) with c1 > 0, or sum P_+(base) <= c1."""
    kind = draw(st.sampled_from(["coupled", "c1=0", "uncoupled", "below"]))
    m = draw(st.integers(1, 8))
    c2 = np.array(draw(st.lists(st.floats(-5, 5), min_size=m, max_size=m)))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [pq for pq, k in zip(pairs, keep) if k]
    mu = draw(st.floats(0.1, 3))
    c1 = draw(st.floats(0.01, 5))
    if kind == "c1=0":
        c1 = 0.0
    elif kind == "uncoupled":
        if draw(st.booleans()):
            edges = []
        else:
            mu = 0.0
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    ew = np.array(draw(st.lists(st.floats(0.1, 3), min_size=len(edges),
                                max_size=len(edges))))
    alpha = np.array(draw(st.lists(st.floats(-1, 1), min_size=len(edges),
                                   max_size=len(edges))))
    graph = Graph(m, eu, ev, ew)
    problem = InnerProblem(c1, c2, mu, graph)
    if kind == "below":
        # a margin keeps sum P_+(base) <= c1 beyond rounding of the base
        below = np.maximum(dual_base(problem, alpha), 0.0).sum()
        c1 = draw(st.floats(1.0 + 1e-6, 4.0)) * below + draw(st.floats(0, 1))
        problem = InnerProblem(c1, c2, mu, graph)
    return kind, problem, alpha


def assert_level_form_agrees(problem, alpha):
    z = _level_map(problem)(alpha)
    base = dual_base(problem, alpha)
    z_ref = projection_form(base, problem.c1)
    scale = max(1.0, np.abs(base).max())
    assert np.abs(z - z_ref).max() <= 1e-12 * scale
    return z


@settings(max_examples=300, deadline=None)
@given(level_cases())
def test_level_form_matches_projection_form(case):
    # the steps' z = min(P_+(base), level) is the projection form's
    # P_+(base - c1 v) up to rounding, in every regime of the level
    kind, problem, alpha = case
    z = assert_level_form_agrees(problem, alpha)
    if kind == "below":
        assert not z.any()


@pytest.mark.parametrize("neg_c2", [[1e17, 1e17], [2.5e16, 2.5e16 - 4, 3]])
@pytest.mark.parametrize("c1", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_level_form_keeps_mass_at_any_magnitude(neg_c2, c1, mu):
    # unshifted, c1 cancels against entries near 1e17 and no index passes
    # the level test; a z of 0 there would be a false stall certificate
    problem = InnerProblem(c1, -np.array(neg_c2), mu,
                           Graph(len(neg_c2), [0], [1], [1.0]))
    for alpha in (np.zeros(1), np.ones(1)):
        z = assert_level_form_agrees(problem, alpha)
        assert z.max() >= 0.5 * max(neg_c2)


def test_returned_point_is_the_projection_form(rng):
    # steps run on the level form, but the solution's point and values are
    # those of the projection form of the level map's p at the returned
    # edge duals
    from helpers import er_graph
    for _ in range(20):
        graph = er_graph(int(rng.integers(4, 13)), 0.4, rng)
        problem = InnerProblem(float(rng.uniform(0.05, 2)),
                               rng.normal(-0.3, 1, graph.n),
                               float(rng.uniform(0.1, 1)), graph)
        for kwargs in ({}, {"descent": 0.9}, {"stall": 1e-2}, {"max_iter": 7}):
            sol = solve_inner(problem, **kwargs)
            p = _level_map(problem)(sol.alpha, capped=False)
            z = projection_form(p, problem.c1)
            nz = np.linalg.norm(z)
            assert np.array_equal(sol.f, z / nz if nz > 0 else np.zeros(graph.n))
            assert sol.dual_value == pytest.approx(-0.5 * np.dot(z, z),
                                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_sufficient_descent_stop_is_certified(rng, rho):
    from helpers import er_graph
    earlier = 0
    for _ in range(10):
        graph = er_graph(12, 0.3, rng)
        c1, c2 = float(rng.uniform(0, 1)), rng.normal(-0.5, 1, graph.n)
        # the constant vector gives descent, so the optimum is negative
        c2 -= max(0.0, c1 + c2.sum() + 1.0) / graph.n
        problem = InnerProblem(c1, c2, float(rng.uniform(0.1, 1)), graph)
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
    return InnerProblem(c1, c2, mu, graph)


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
        assert np.all(sol.f >= 0)
        assert np.linalg.norm(sol.f) <= 1 + 1e-9
        assert np.all(np.abs(sol.alpha) <= 1 + 1e-12)
        # the homogeneous value of the returned point matches its definition
        assert sol.value == pytest.approx(objective_value(problem, sol.f),
                                          abs=1e-12)


def test_dual_value_improves_on_cold_start(rng):
    for _ in range(10):
        problem = random_inner_problem(rng, m=3, scale_to_unit_lipschitz=False)
        z0 = _level_map(problem)(np.zeros(problem.graph.num_edges))
        d0 = -0.5 * float(np.dot(z0, z0))
        sol = solve_inner(problem, tol=1e-9)
        assert sol.dual_value >= d0 - 1e-9


def test_scale_covariance(rng):
    problem = random_inner_problem(rng, m=3, scale_to_unit_lipschitz=False)
    sol = solve_inner(problem, tol=1e-10)
    for s in (0.5, 3.0):
        scaled = InnerProblem(s * problem.c1, s * problem.c2, s * problem.mu,
                              problem.graph)
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


def test_warm_start_of_another_length_raises(b6):
    # a warm start holds one dual per edge; one from another graph is an
    # error, not a silent cold start
    problem = InnerProblem(0.5, np.linspace(-1.0, 1.0, 6), 1.0, b6)
    for warm in (np.zeros(b6.num_edges - 1), np.zeros(b6.num_edges + 1)):
        with pytest.raises(ValueError):
            solve_inner(problem, warm=warm)
    solve_inner(problem, warm=np.zeros(b6.num_edges))


def test_gap_converges_on_larger_instances(rng):
    from helpers import er_graph
    for n in (20, 60):
        graph = er_graph(n, 0.2, rng)
        problem = InnerProblem(float(rng.uniform(0, 2)),
                               rng.normal(0, 1, n), float(rng.uniform(0.1, 2)),
                               graph)
        sol = solve_inner(problem, tol=1e-6, max_iter=50000)
        assert sol.converged
        assert sol.gap <= 1e-6 * max(1.0, abs(sol.dual_value))
