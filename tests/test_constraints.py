import math

import numpy as np
import pytest

import fracset as fs
from fracset.constraints import (AllOf, GammaSchedule, SeedContainment,
                                 SuffixFeasibility)
from fracset.lovasz import TruncatedVolume

from helpers import all_subsets, er_graph, ncut_functions


def test_penalty_value_examples():
    ones = np.ones(6)
    upper = fs.VolumeConstraint(ones, 3.0, upper=True)
    assert upper.violation([0, 1, 2, 3, 4]) == 2.0
    assert upper.violation([0, 1]) == 0.0
    lower = fs.VolumeConstraint(ones, 3.0, upper=False)
    assert lower.violation([]) == 0.0
    assert lower.violation([0]) == 2.0
    assert lower.violation([0, 1, 2, 3]) == 0.0


def test_penalty_dc_difference_matches_penalty_exhaustively(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        h = rng.uniform(0, 2, n)
        for upper in (True, False):
            k = float(rng.uniform(0.0, h.sum() + 1.0))
            c = fs.VolumeConstraint(h, k, upper=upper)
            dc = fs.penalty_dc(c)
            for C in all_subsets(n):
                assert dc.value(C) == pytest.approx(c.violation(C), abs=1e-12)


def test_penalty_dc_vacuous_lower_bound():
    c = fs.VolumeConstraint(np.ones(4), -1.0, upper=False)
    dc = fs.penalty_dc(c)
    for C in all_subsets(4):
        assert dc.value(C) == 0.0
    assert np.allclose(dc.subgradient(np.array([0.1, 0.4, 0.2, 0.9])), 0.0)


def test_penalty_dc_rejects_negative_upper_bound():
    with pytest.raises(ValueError):
        fs.penalty_dc(fs.VolumeConstraint(np.ones(3), -0.5, upper=True))


def test_t2_subgradient_example():
    c = fs.VolumeConstraint(np.ones(3), 2.0, upper=True)
    f = np.array([0.3, 0.1, 0.5])
    t = fs.penalty_dc(c).subgradient(f)
    assert np.allclose(t, [1.0, 0.0, 1.0])
    assert float(f @ t) == pytest.approx(0.8, abs=1e-15)
    assert fs.lovasz_value(TruncatedVolume(np.ones(3), 2.0), f) == pytest.approx(0.8)


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
            fs.lovasz_value(TruncatedVolume(h, cap), f), abs=1e-10)
        assert np.all(t >= -1e-12) and np.all(t <= h + 1e-12)


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


def test_gamma_schedule():
    sched = GammaSchedule()
    assert sched.first(0.0) == pytest.approx(1e-3)
    assert sched.first(0.7) == pytest.approx(0.7)
    assert sched.first(math.inf) == pytest.approx(1e-3)
    assert sched.next(0.5) == pytest.approx(1.0)


def test_suffix_feasibility_matches_direct(rng):
    n = 7
    h1 = rng.uniform(0, 2, n)
    h2 = rng.uniform(0, 2, n)
    pred = SuffixFeasibility([(h1, 0.5, 3.0, True), (h2, 0.0, 1.0, False)])
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, n), kind="stable")
        flags = pred.suffix_flags(order)
        for i in range(n):
            assert flags[i] == pred(order[i:])


def test_seed_containment_and_allof(rng):
    n = 6
    seeds = np.array([2, 4])
    pred = SeedContainment(seeds)
    both = AllOf(pred, lambda idx: len(idx) <= 4)
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, n), kind="stable")
        flags = pred.suffix_flags(order)
        combined = both.suffix_flags(order)
        for i in range(n):
            assert flags[i] == pred(order[i:])
            assert combined[i] == both(order[i:])
