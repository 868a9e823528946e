import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracset as fs
from fracset.constraints import SeedContainment, _least_excess
from fracset.lovasz import SeedBlock
from fracset.ratiodca import extension_values

from helpers import (all_subsets, er_graph, ncut_functions, truncated_volume,
                     truncated_volume_subgradient_reference, weighted_graph)


def test_penalty_value_examples():
    ones = np.ones(6)
    upper = fs.VolumeConstraint(ones, 3.0, upper=True)
    assert upper.violation([0, 1, 2, 3, 4]) == 2.0
    assert upper.violation([0, 1]) == 0.0
    lower = fs.VolumeConstraint(ones, 3.0, upper=False)
    assert lower.violation([]) == 0.0
    assert lower.violation([0]) == 2.0
    assert lower.violation([0, 1, 2, 3]) == 0.0


def penalized_density(graph, seed, h, gamma, upper=None, lower=None):
    """A density problem over the supersets of ``seed`` with volume bounds
    on h, at penalty weight gamma; None when the builder finds it
    infeasible."""
    spec = fs.DensityProblemSpec(seed=seed, h=h, upper=upper, lower=lower)
    try:
        return fs.build_max_density(graph, spec).with_gamma(gamma)
    except fs.InfeasibleProblem:
        return None


def assert_numerator_is_penalized_value(problem):
    """At every indicator 1_A, A nonempty, the numerator's extension is the
    penalized set value of A u seed: objective + gamma * violations."""
    for A in all_subsets(problem.m, nonempty=True):
        f = np.zeros(problem.m)
        f[A] = 1.0
        r, _ = extension_values(problem, f)
        num, _, violations = problem.score(A)
        assert r == pytest.approx(num + problem.gamma * sum(violations),
                                  abs=1e-12)


def test_penalty_dc_difference_matches_penalty_exhaustively(rng):
    # the d.c. split of each penalty on the sets A u J, with the seed
    # block's volume folded into its cap, for seed blocks of 0-2 vertices
    checked = 0
    for _ in range(10):
        n = int(rng.integers(3, 8))
        graph = weighted_graph(n, 0.6, rng)
        h = rng.uniform(0, 2, n)
        for size in (0, 1, 2):
            seed = rng.choice(n, size=size, replace=False)
            vol_j = fs.volume(h, seed)
            gamma = float(rng.uniform(0.1, 3.0))
            # an upper bound below the seed volume is rejected by the builder
            k_up = float(rng.uniform(vol_j, h.sum() + 1.0))
            # a lower bound above vol_h(V) is rejected by the builder too
            k_low = float(rng.uniform(0.0, h.sum()))
            for bounds in ({"upper": k_up}, {"lower": k_low},
                           {"upper": k_up, "lower": min(k_low, k_up)}):
                problem = penalized_density(graph, seed, h, gamma, **bounds)
                if problem is not None:
                    assert_numerator_is_penalized_value(problem)
                    checked += 1
    assert checked >= 80


def test_penalty_dc_vacuous_lower_bound(rng):
    # a lower bound met by every set, directly (bound <= 0) or through the
    # seed block's volume, adds no penalty: the numerator is the objective
    graph = weighted_graph(5, 0.6, rng)
    h = np.ones(5)
    for seed, bound in (((), -1.0), ((0, 3), 2.0), ((1,), 0.5)):
        problem = penalized_density(graph, seed, h, 2.0, lower=bound)
        assert problem.numerator is problem.objective
        for A in all_subsets(problem.m, nonempty=True):
            assert problem.score(A)[2] == (0.0,)
        assert_numerator_is_penalized_value(problem)


def test_t2_subgradient_example(path3):
    # the penalty of vol(C) <= 2 on a path with no seed block: gamma times
    # the truncated volume's greedy subgradient joins the numerator's
    # linearization, on top of the objective's (zero)
    problem = penalized_density(path3, (), np.ones(3), 1.0, upper=2.0)
    f = np.array([0.3, 0.1, 0.5])
    t = problem.numerator.linearized(f)
    assert np.allclose(t, [1.0, 0.0, 1.0])
    assert float(f @ t) == pytest.approx(0.8, abs=1e-15)
    assert fs.lovasz_value(truncated_volume(np.ones(3), 2.0), f) \
        == pytest.approx(0.8)


def test_t2_saturated_and_zero_cap(rng):
    h = rng.uniform(0.1, 2.0, 5)
    f = rng.uniform(0, 1, 5)
    # cap above the total volume: the truncation is inactive, t = h
    t = fs.truncated_volume_subgradient(h, h.sum() + 1.0, f)
    assert np.allclose(t, h, atol=1e-12)
    assert np.allclose(fs.truncated_volume_subgradient(h, 0.0, f), 0.0)


def test_t2_identity_and_range_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h = rng.uniform(0, 2, n)
        cap = float(rng.uniform(0, h.sum() + 0.5))
        f = rng.uniform(0, 1, n)
        t = fs.truncated_volume_subgradient(h, cap, f)
        assert float(f @ t) == pytest.approx(
            fs.lovasz_value(truncated_volume(h, cap), f), abs=1e-10)
        assert np.all(t >= -1e-12) and np.all(t <= h + 1e-12)


def test_t2_matches_the_three_case_formula(rng):
    # integer weights and caps: every suffix volume is exact, so the greedy
    # differences equal the three cases bit for bit
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h = rng.integers(0, 4, n).astype(float)
        cap = float(rng.integers(0, h.sum() + 2))
        f = rng.integers(0, 3, n).astype(float)
        assert np.array_equal(fs.truncated_volume_subgradient(h, cap, f),
                              truncated_volume_subgradient_reference(h, cap, f))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=12),
       st.floats(0.0, 1.2))
def test_t2_matches_the_three_case_formula_on_real_weights(pairs, share):
    h = np.array([p[0] for p in pairs])
    f = np.array([p[1] for p in pairs])
    cap = share * float(h.sum())
    got = fs.truncated_volume_subgradient(h, cap, f)
    want = truncated_volume_subgradient_reference(h, cap, f)
    assert np.all(np.abs(got - want) <= 1e-12 * h.sum())


def test_theta_examples():
    ones = np.ones(5)
    assert fs.theta_of([fs.VolumeConstraint(ones, 3.0, upper=True)]) \
        == pytest.approx(1.0)
    h = np.array([0.01, 0.05, 0.07, 1.0])
    assert fs.theta_of([fs.VolumeConstraint(h, 0.5, upper=True)]) \
        == pytest.approx(0.01)
    mixed = [fs.VolumeConstraint(ones, 2.0, upper=True),
             fs.VolumeConstraint(np.array([0.25, 0.5, 1.25, 0.75, 2.0]), 1.0,
                                 upper=True)]
    assert fs.theta_of(mixed) == pytest.approx(0.25)


def test_theta_is_valid_lower_bound_on_violations(rng):
    for _ in range(30):
        n = int(rng.integers(2, 8))
        h = np.round(rng.uniform(0, 3, n), 2)
        upper = bool(rng.integers(0, 2))
        k = float(np.round(rng.uniform(0.0, h.sum()), 2))
        c = fs.VolumeConstraint(h, k, upper=upper)
        theta = fs.theta_of([c])
        violations = [c.violation(C) for C in all_subsets(n, nonempty=True)
                      if c.violation(C) > 0]
        if violations:
            assert theta <= min(violations) + 1e-9
        else:
            assert theta == math.inf or theta > 0


def test_theta_of_a_lower_bound_only_zero_weights_violate():
    # the grid step 2 exceeds the bound, yet {0} has volume 0 < 1.5
    c = fs.VolumeConstraint([0.0, 2.0, 2.0], 1.5, upper=False)
    assert c.violation([0]) == 1.5
    assert fs.theta_of([c]) == pytest.approx(1.5)
    # with every weight at least the bound, no nonempty set violates it
    assert fs.theta_of([fs.VolumeConstraint([2.0, 3.0], 1.5, upper=False)]) \
        == math.inf


def test_theta_of_off_grid_weights_proves_no_bound():
    # a weight off the 1e-6 grid lets a volume miss the bound by less than
    # any grid step: {0} violates the first bound by 4e-7, the second by
    # 1.4999996, below the grid arguments' 0.2 and 1.5
    c = fs.VolumeConstraint([0.4000004, 1.0], 0.4)
    assert c.violation([0]) == pytest.approx(4e-7)
    assert fs.theta_of([c]) == 0.0
    c = fs.VolumeConstraint([4e-7, 2.0, 2.0], 1.5, upper=False)
    assert c.violation([0]) == pytest.approx(1.4999996)
    assert fs.theta_of([c, fs.VolumeConstraint(np.ones(3), 1.0)]) == 0.0
    # off the grid, but no set violates it
    assert fs.theta_of([fs.VolumeConstraint([0.4000004, 1.0], 2.0)]) \
        == math.inf


WEIGHT_KINDS = (st.floats(0.0, 3.0), st.floats(0.0, 1e-5),
                st.integers(0, 5).map(float),
                st.integers(0, 300).map(lambda k: k / 100))


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(st.lists(kind, min_size=1, max_size=8)
                   for kind in WEIGHT_KINDS)),
       st.floats(-1.0, 10.0), st.booleans())
def test_theta_is_at_most_every_violation(weights, bound, upper):
    # every positive violation; the slack covers the last bits of theta's
    # own arithmetic, a hundredth of the constraint's tolerance
    c = fs.VolumeConstraint(weights, bound, upper=upper)
    theta = fs.theta_of([c])
    slack = 1e-14 * max(1.0, abs(bound))
    for C in all_subsets(len(weights), nonempty=True):
        v = c.violation(C)
        if v > 0:
            assert theta <= v + slack, (C, v)


def test_decimal_volume_at_the_bound_is_feasible():
    # 0.1 + 0.2 exceeds 0.3 by 5.6e-17, rounding within the tolerance
    c = fs.VolumeConstraint([0.1, 0.2], 0.3)
    assert c.violation([0, 1]) == 0.0
    assert c.satisfied([0, 1])
    assert c.suffix_flags(np.array([0, 1])).all()
    assert fs.theta_of([c]) == math.inf
    lower = fs.VolumeConstraint([0.1, 0.2], 0.30000000000000004, upper=False)
    assert lower.satisfied([0, 1]) and not lower.satisfied([1])
    # the tolerance is 1e-12 |bound|, no looser
    tight = fs.VolumeConstraint([1.0, 1.0, 1.0], 3.0 - 1e-10)
    assert not tight.satisfied([0, 1, 2])
    assert not tight.suffix_flags(np.array([0, 1, 2]))[0]


def test_theta_of_a_bound_just_off_the_grid():
    # volume 3 misses the bound by 1e-10, not by the grid step 1
    for c in (fs.VolumeConstraint(np.ones(3), 3.0 - 1e-10),
              fs.VolumeConstraint(np.ones(3), 1.0 + 1e-10, upper=False)):
        v = min(c.violation(C) for C in all_subsets(3, nonempty=True)
                if c.violation(C) > 0)
        assert v == pytest.approx(1e-10, rel=1e-6)
        assert fs.theta_of([c]) == v


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0],
                                     [1.0, -np.inf]])
def test_constraint_weights_must_be_finite(weights):
    with pytest.raises(ValueError):
        fs.VolumeConstraint(weights, 1.0)


@pytest.mark.parametrize("call,fragment", [
    (lambda: fs.VolumeConstraint([1.0, -1.0], 1.0), "must be non-negative"),
    (lambda: fs.VolumeConstraint([1.0, 1.0], math.inf), "bound must be finite"),
    (lambda: fs.VolumeConstraint([1.0, 1.0], math.nan), "bound must be finite"),
    (lambda: fs.truncated_volume_subgradient([1.0, 1.0], -1.0, [0.5, 0.2]),
     "truncation level must be non-negative"),
])
def test_invalid_constraint_input_raises(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**6, 10**6), st.floats(1e-6, 10.0),
       st.sampled_from([0.0, 1e-16, -1e-16, 1e-15, -1e-15])
       | st.floats(-1e-9, 1e-9))
@example(1, 1.1, -1e-16)    # the division rounds j one step up: j -= 1
@example(12, 0.7, -1e-15)   # one step down: j += 1
def test_least_excess_is_the_first_grid_point_past_tol(m, grid, tol):
    # a decimal bound near the grid point m*grid, as theta_of meets one;
    # the least excess is found by scanning j around (k + tol)/grid
    k = round(m * grid, 6)
    j0 = math.floor((k + tol) / grid)
    excess = [j * grid - k for j in range(j0 - 3, j0 + 4)]
    assert not excess[0] > tol
    assert _least_excess(k, tol, grid) == next(e for e in excess if e > tol)


def test_theta_vacuous_returns_inf():
    ones = np.ones(3)
    assert fs.theta_of([fs.VolumeConstraint(ones, 10.0, upper=True)]) == math.inf


def test_gamma_sufficient_plugin():
    assert fs.gamma_sufficient(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.01)
    with pytest.raises(ValueError):
        fs.gamma_sufficient(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fs.gamma_sufficient(1.0, 1.0, 1.0, 0.0)


def test_gamma_sufficient_makes_minimizers_feasible(rng):
    # exhaustive check of the exact-penalty guarantee on small instances
    for trial in range(15):
        n = int(rng.integers(4, 9))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        num, den = ncut_functions(graph)
        k = float(rng.uniform(deg.min() + 0.5, deg.sum() - deg.min()))
        c = fs.VolumeConstraint(deg, k, upper=True)
        feasible = [C for C in all_subsets(n, nonempty=True)
                    if c.satisfied(C) and den(C) > 0]
        if not feasible:
            continue
        C0 = min(feasible, key=lambda C: num(C) / den(C))
        smax = 0.25 * float(deg.sum()) ** 2
        theta = fs.theta_of([c])
        gamma = fs.gamma_sufficient(num(C0), den(C0), smax, theta)
        best_val = math.inf
        best_sets = []
        for C in all_subsets(n, nonempty=True):
            d = den(C)
            if d <= 0:
                continue
            val = (num(C) + gamma * c.violation(C)) / d
            if val < best_val - 1e-12:
                best_val = val
                best_sets = [C]
            elif val <= best_val + 1e-12:
                best_sets.append(C)
        assert best_sets
        for C in best_sets:
            assert c.satisfied(C), (C, k, gamma)


def test_suffix_feasibility_matches_direct(rng):
    n = 7
    h1 = rng.uniform(0, 2, n)
    h2 = rng.uniform(0, 2, n)
    upper = fs.VolumeConstraint(h1, 3.0, upper=True)
    lower = fs.VolumeConstraint(h2, 1.0, upper=False)
    preds = [(upper, lambda C: fs.volume(h1, C) <= 3.0),
             (lower, lambda C: fs.volume(h2, C) >= 1.0)]
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, n), kind="stable")
        for pred, oracle in preds:
            flags = pred.suffix_flags(order)
            for i in range(n):
                assert flags[i] == oracle(order[i:])
    # on the sets A u J of a seed block J, read through SeedBlock
    J, rest = np.array([1, 4]), np.array([0, 2, 3, 5, 6])
    seeded = [(fs.VolumeConstraint(h2, 4.0, upper=True),
               lambda C: fs.volume(h2, C) <= 4.0),
              (fs.VolumeConstraint(h1, 3.5, upper=False),
               lambda C: fs.volume(h1, C) >= 3.5)]
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, rest.size), kind="stable")
        for pred, oracle in seeded:
            flags = SeedBlock(pred, rest, J).suffix_flags(order)
            for i in range(rest.size):
                assert flags[i] == oracle(np.concatenate([J, rest[order[i:]]]))


def test_seed_containment_flags(rng):
    n = 6
    seeds = np.array([2, 4])
    pred = SeedContainment(seeds)
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, n), kind="stable")
        flags = pred.suffix_flags(order)
        for i in range(n):
            assert flags[i] == (set(seeds) <= set(order[i:]))
