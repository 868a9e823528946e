import numpy as np
import pytest

import fracset as fs
from fracset.baselines import lrw_step
from fracset.constraints import SeedContainment
from fracset.lovasz import Balance, Cut

from helpers import density_functions, er_graph, ncut_functions


def test_lrw_degree_vector_is_stationary(b6):
    p = b6.degrees / b6.degrees.sum()
    assert np.allclose(lrw_step(b6, p), p, atol=1e-12)


def test_lrw_conserves_mass(rng):
    graph = er_graph(9, 0.4, rng)
    p = np.zeros(9)
    seeds = np.nonzero(graph.degrees > 0)[0][:2]
    p[seeds] = 1.0 / seeds.size
    for _ in range(50):
        p = lrw_step(graph, p)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() >= 0


def test_lrw_holds_mass_on_isolated_vertices():
    graph = fs.Graph.from_edges(3, [(0, 1)])
    p = np.array([0.25, 0.25, 0.5])
    assert lrw_step(graph, p).sum() == pytest.approx(1.0, abs=1e-15)


def test_lrw_b6_finds_left_triangle(b6):
    num = Cut(b6)
    den = Balance(b6.degrees)
    preds = [SeedContainment(np.array([0])),
             fs.VolumeConstraint(b6.degrees, 7.0, upper=True)]
    best_set, value, step = fs.lrw_cluster(b6, [0], num, den,
                                           predicates=preds)
    assert np.array_equal(best_set, [0, 1, 2])
    assert value == pytest.approx(1 / 49)


def test_lrw_degree_normalized_variant_runs(b6):
    num = Cut(b6)
    den = Balance(b6.degrees)
    best_set, value, step = fs.lrw_cluster(b6, [0], num, den,
                                           normalize_by_degree=True)
    assert best_set.size >= 1


def test_lrw_validates_seeds(b6):
    num = Cut(b6)
    den = Balance(b6.degrees)
    with pytest.raises(ValueError):
        fs.lrw_cluster(b6, [], num, den)
    graph = fs.Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        fs.lrw_cluster(graph, [2], num, den)


def test_lrw_without_a_qualifying_set_returns_none(b6):
    num = Cut(b6)
    den = Balance(b6.degrees)
    # every set holding the seed has volume at least deg(0) = 2
    preds = [SeedContainment(np.array([0])),
             fs.VolumeConstraint(b6.degrees, 1.0, upper=True)]
    assert fs.lrw_cluster(b6, [0], num, den, predicates=preds,
                          max_steps=5) is None


def test_brute_force_density_max(b6):
    num, den = density_functions(b6)
    res = fs.brute_force(b6, num, den)  # volume / assoc
    assert np.array_equal(res.best_set, np.arange(6))
    assert res.best_value == pytest.approx(3 / 7)
    assert res.enumerated == 64


def test_brute_force_ncut_constrained(b6):
    num, den = ncut_functions(b6)
    res = fs.brute_force(b6, num, den,
                         constraints=[fs.VolumeConstraint(b6.degrees, 7.0,
                                                          upper=True)],
                         seed=(0,))
    assert np.array_equal(res.best_set, [0, 1, 2])
    assert res.best_value == pytest.approx(1 / 49)
    assert res.enumerated == 32


def test_brute_force_empty_feasible_region(b6):
    num, den = ncut_functions(b6)
    res = fs.brute_force(b6, num, den,
                         constraints=[fs.VolumeConstraint(b6.degrees, 1.0,
                                                          upper=True)],
                         seed=(2,))
    assert res.infeasible
    assert res.feasible_count == 0


def test_brute_force_caps_and_modes():
    path = fs.Graph.from_edges(21, [(i, i + 1) for i in range(20)])
    num, den = ncut_functions(path)
    with pytest.raises(ValueError):
        fs.brute_force(path, num, den)


def test_relaxation_tightness_sample(rng):
    # the continuous ratio never beats the exact set optimum, and matches it
    # at the optimal indicator
    for _ in range(10):
        n = int(rng.integers(4, 9))
        graph = er_graph(n, 0.5, rng)
        num, den = ncut_functions(graph)
        oracle = fs.brute_force(graph, num, den)
        if oracle.best_set is None:
            continue
        num_sweep = Cut(graph)
        den_sweep = Balance(graph.degrees)
        for _ in range(100):
            f = rng.uniform(0, 1, n)
            s = fs.lovasz_value(den_sweep, f)
            if s <= 0:
                continue
            q = fs.lovasz_value(num_sweep, f) / s
            assert q >= oracle.best_value - 1e-10
        ind = np.zeros(n)
        ind[oracle.best_set] = 1.0
        q_star = (fs.lovasz_value(num_sweep, ind)
                  / fs.lovasz_value(den_sweep, ind))
        assert q_star == pytest.approx(oracle.best_value, rel=1e-12)
