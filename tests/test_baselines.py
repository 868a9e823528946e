from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracset as fs
from fracset.baselines import BRUTE_FORCE_BLOCK_BITS, lrw_step
from fracset.constraints import SeedContainment
from fracset.lovasz import Balance, Cut

from helpers import (brute_force_reference, density_functions, er_graph,
                     ncut_functions)


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


def test_lrw_checks_one_shot_predicates_on_every_sweep(b6):
    # only {0} has volume at most 2; a generator used up by the first sweep
    # would let later sweeps return the lighter-ratio triangle {0, 1, 2}
    bound = fs.VolumeConstraint(b6.degrees, 2.0, upper=True)
    best_set, value, step = fs.lrw_cluster(b6, [0], Cut(b6),
                                           Balance(b6.degrees),
                                           predicates=iter([bound]))
    assert bound.satisfied(best_set)
    assert np.array_equal(best_set, [0]) and value == pytest.approx(1 / 12)


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


def same_result(res, ref):
    """All four result fields equal, best_set's dtype included."""
    if ref.best_set is None:
        assert res.best_set is None and res.best_value is None
    else:
        assert res.best_set.dtype == ref.best_set.dtype
        assert np.array_equal(res.best_set, ref.best_set)
        assert res.best_value == ref.best_value
    assert (res.enumerated, res.feasible_count) == (ref.enumerated,
                                                    ref.feasible_count)


@st.composite
def oracle_instances(draw):
    """A graph of at most 10 vertices, an objective, volume bounds either
    way, and a seed that may be empty, repeat ids or cover V (k = 0)."""
    n = draw(st.integers(1, 10), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") \
        if pairs else []
    graph = fs.Graph.from_edges(n, edges)
    seed = draw(st.one_of(st.just([]), st.just(list(range(n))),
                          st.lists(st.integers(0, n - 1), max_size=n + 2)),
                label="seed")
    constraints = [
        fs.VolumeConstraint(
            graph.degrees if draw(st.booleans()) else np.ones(n),
            draw(st.integers(0, 2 * max(1, graph.num_edges))), upper=upper)
        for upper in draw(st.lists(st.booleans(), max_size=2),
                          label="upper")]
    functions = ncut_functions if draw(st.booleans()) else density_functions
    return graph, functions(graph), constraints, seed


@settings(max_examples=300, deadline=None)
@given(oracle_instances())
def test_brute_force_matches_the_per_mask_loop(instance):
    graph, (num, den), constraints, seed = instance
    same_result(fs.brute_force(graph, num, den, constraints, seed),
                brute_force_reference(graph, num, den, constraints, seed))


def test_brute_force_crosses_a_block_in_mask_order():
    # k = 13 > BRUTE_FORCE_BLOCK_BITS: every callback sees the reference's
    # sets in the reference's order, and the best set, the first singleton
    # in block 0, survives the table's rewrite for block 1, where the
    # singleton {12} ties with it
    n = BRUTE_FORCE_BLOCK_BITS + 1
    graph = SimpleNamespace(n=n)

    def recorded():
        calls = []

        class Record:
            def satisfied(self, subset):
                calls.append(("satisfied", subset.dtype, subset.tolist()))
                return True

        def num(subset):
            calls.append(("num", subset.tolist()))
            return float(subset.size)

        def den(subset):
            calls.append(("den", subset.tolist()))
            return float(subset.size > 0)

        return calls, num, den, [Record()]

    calls, num, den, constraints = recorded()
    res = fs.brute_force(graph, num, den, constraints)
    ref_calls, *ref_args = recorded()
    ref = brute_force_reference(graph, *ref_args)
    assert calls == ref_calls and len(calls) == 3 * 2**n - 1
    assert calls[3 * 2**BRUTE_FORCE_BLOCK_BITS - 1] == (
        "satisfied", np.dtype(np.int64), [n - 1])
    same_result(res, ref)
    assert res.best_set.tolist() == [0] and res.best_value == 1.0


def test_brute_force_reads_only_the_vertex_count(b6):
    # the benchmark hands it a bare namespace with n
    num, den = ncut_functions(b6)
    bound = fs.VolumeConstraint(b6.degrees, 7.0, upper=True)
    res = fs.brute_force(SimpleNamespace(n=6), num, den, [bound], seed=(0,))
    same_result(res, brute_force_reference(b6, num, den, [bound], seed=(0,)))
    assert res.best_set.tolist() == [0, 1, 2]


def test_brute_force_checks_one_shot_constraints_on_every_set():
    # a generator of constraints must bound every set, not the first alone
    path = fs.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    num, den = ncut_functions(path)
    bound = fs.VolumeConstraint(np.ones(4), 2.0, upper=True)
    once = fs.brute_force(path, num, den, (c for c in [bound]), seed=(0,))
    same_result(once, fs.brute_force(path, num, den, [bound], seed=(0,)))
    assert once.feasible_count == 4


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
