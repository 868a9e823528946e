import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracset as fs
from fracset.lovasz import (LowerPenalty, ModularVolume, NoFeasibleThreshold,
                            NonemptyIndicator, SeededAssoc, SeededBalance,
                            SeededCut, TruncatedVolume, UpperPenalty,
                            WeightedSum)

from helpers import all_subsets, weighted_graph


def standard_set_functions(graph, rng):
    """The set-function zoo used throughout: evaluator objects plus callables."""
    n = graph.n
    g = rng.uniform(0.0, 2.0, n)
    h = rng.uniform(0.0, 2.0, n)
    k = float(rng.uniform(0.5, h.sum() + 0.5))
    deg = graph.degrees
    return {
        "cut": lambda C: fs.cut_value(graph, C),
        "assoc": lambda C: fs.assoc_value(graph, C),
        "vol_g": ModularVolume(g),
        "balance": SeededBalance(deg, 0.0, float(deg.sum())),
        "trunc_vol": TruncatedVolume(h, k),
        "nonempty": NonemptyIndicator(),
        "upper_penalty": UpperPenalty(h, k),
        "lower_penalty": LowerPenalty(h, k),
    }


def test_extension_property_exhaustive(rng):
    for _ in range(12):
        n = int(rng.integers(3, 9))
        graph = weighted_graph(n, 0.5, rng)
        fns = standard_set_functions(graph, rng)
        for name, fn in fns.items():
            value = fn.value if hasattr(fn, "value") else fn
            for C in all_subsets(n):
                ind = np.zeros(n)
                ind[C] = 1.0
                assert fs.lovasz_value(fn, ind) == pytest.approx(
                    value(C), abs=1e-12), name


def test_constant_vector_gives_full_set_value(b6):
    cut = lambda C: fs.cut_value(b6, C)
    assoc = lambda C: fs.assoc_value(b6, C)
    for alpha in (0.0, 1.0, 2.5):
        f = alpha * np.ones(6)
        assert fs.lovasz_value(cut, f) == pytest.approx(0.0, abs=1e-12)
        assert fs.lovasz_value(assoc, f) == pytest.approx(14.0 * alpha, abs=1e-12)


def test_path_graph_cut_extension_is_total_variation(path3):
    cut = lambda C: fs.cut_value(path3, C)
    f = np.array([0.0, 0.5, 1.0])
    assert fs.lovasz_value(cut, f) == pytest.approx(1.0, abs=1e-15)
    # general identity: extension of the cut equals sum_e w_e |f_u - f_v|
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.uniform(0, 2, 3)
        tv = sum(w * abs(f[u] - f[v]) for u, v, w in
                 zip(path3.edge_u, path3.edge_v, path3.edge_w))
        assert fs.lovasz_value(cut, f) == pytest.approx(tv, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=7),
       st.sampled_from([0.0, 0.5, 2.0]))
def test_one_homogeneity(values, alpha):
    f = np.array(values)
    n = f.size
    path = fs.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    fn = lambda C: fs.cut_value(path, C)
    assert fs.lovasz_value(fn, alpha * f) == pytest.approx(
        alpha * fs.lovasz_value(fn, f), rel=1e-10, abs=1e-10)


def test_greedy_subgradient_identity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        graph = weighted_graph(n, 0.5, rng)
        fns = standard_set_functions(graph, rng)
        f = rng.uniform(0, 1, n)
        for name, fn in fns.items():
            s = fs.greedy_subgradient(fn, f)
            assert float(f @ s) == pytest.approx(
                fs.lovasz_value(fn, f), abs=1e-10), name


def test_greedy_of_modular_is_the_weights(rng):
    g = rng.uniform(0, 3, 6)
    fn = ModularVolume(g)
    for _ in range(5):
        f = rng.uniform(0, 1, 6)
        assert np.allclose(fs.greedy_subgradient(fn, f), g, atol=1e-12)


def test_greedy_of_nonempty_indicator_is_argmax_indicator(rng):
    fn = NonemptyIndicator()
    f = np.array([0.3, 0.9, 0.1, 0.9])
    s = fs.greedy_subgradient(fn, f)
    assert s.sum() == pytest.approx(1.0)
    assert float(f @ s) == pytest.approx(f.max())
    assert f[np.argmax(s)] == f.max()


def test_balance_and_truncated_volume_are_submodular(rng):
    # these two back the descent argument: their greedy vectors must be
    # genuine subgradients, which needs submodularity (including the
    # seed-offset variants with the empty-set value lowered to zero)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        w = rng.uniform(0, 2, n)
        offset = float(rng.uniform(0, 2))
        total = float(w.sum() + offset + rng.uniform(0.5, 3.0))
        fns = [SeededBalance(w, offset, total),
               TruncatedVolume(w, float(rng.uniform(0, w.sum() + 1)))]
        subsets = list(all_subsets(n))
        for fn in fns:
            for _ in range(40):
                A = subsets[rng.integers(len(subsets))]
                B = subsets[rng.integers(len(subsets))]
                union = np.union1d(A, B)
                inter = np.intersect1d(A, B)
                assert (fn.value(union) + fn.value(inter)
                        <= fn.value(A) + fn.value(B) + 1e-10)


def test_convexity_midpoint_for_submodular(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        graph = weighted_graph(n, 0.6, rng)
        h = rng.uniform(0, 2, n)
        submodular = [
            lambda C: fs.cut_value(graph, C),
            SeededBalance(graph.degrees, 0.0, float(graph.degrees.sum())),
            TruncatedVolume(h, float(rng.uniform(0.5, h.sum()))),
            NonemptyIndicator(),
        ]
        f1 = rng.uniform(0, 1, n)
        f2 = rng.uniform(0, 1, n)
        for fn in submodular:
            mid = fs.lovasz_value(fn, 0.5 * (f1 + f2))
            avg = 0.5 * (fs.lovasz_value(fn, f1) + fs.lovasz_value(fn, f2))
            assert mid <= avg + 1e-10


def test_tie_invariance(rng):
    # swapping entries with equal values never changes the extension value
    graph = weighted_graph(6, 0.6, rng)
    cut = lambda C: fs.cut_value(graph, C)
    f = np.array([0.5, 0.2, 0.5, 0.9, 0.2, 0.5])
    base = fs.lovasz_value(cut, f)
    equal_pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)
                   if f[a] == f[b]]
    assert equal_pairs
    for a, b in equal_pairs:
        g = f.copy()
        g[a], g[b] = g[b], g[a]
        assert fs.lovasz_value(cut, g) == pytest.approx(base, abs=1e-12)


def test_thresholding_lemma_random(rng):
    for _ in range(50):
        n = int(rng.integers(3, 9))
        graph = weighted_graph(n, 0.6, rng)
        num = lambda C: fs.cut_value(graph, C)
        den = SeededBalance(graph.degrees, 0.0, float(graph.degrees.sum()))
        f = rng.uniform(0, 1, n)
        dn = fs.lovasz_value(den, f)
        if dn <= 0:
            continue
        q = fs.lovasz_value(num, f) / dn
        res = fs.optimal_threshold(f, num, den)
        assert q >= res.best_value - 1e-10


def sweep_oracle(graph, f, num, den, predicate=None):
    """Independent enumeration of all distinct threshold sets."""
    best = None
    for t in sorted(set(f)):
        C = np.nonzero(f >= t)[0]
        d = den(C)
        if d <= 0:
            continue
        if predicate is not None and not predicate(C):
            continue
        v = num(C) / d
        if best is None or v < best[0] or (v == best[0] and C.size < best[1].size):
            best = (v, C)
    return best


def test_optimal_threshold_b6_example(b6):
    deg = b6.degrees
    num = lambda C: fs.cut_value(b6, C)
    den = SeededBalance(deg, 0.0, float(deg.sum()))
    f = np.array([3.0, 3.0, 2.0, 1.0, 0.0, 0.0]) / 3.0
    res = fs.optimal_threshold(f, num, den)
    oracle = sweep_oracle(b6, f, num, lambda C: den.value(C))
    assert np.array_equal(res.best_set, [0, 1, 2])
    assert res.best_value == pytest.approx(1 / 49, abs=1e-15)
    assert res.best_value == pytest.approx(oracle[0], abs=1e-15)

    pred = lambda C: fs.volume(deg, C) <= 4.0
    res2 = fs.optimal_threshold(f, num, den, feasibility=pred)
    oracle2 = sweep_oracle(b6, f, num, lambda C: den.value(C), pred)
    # cut({0,1}) = 2 crossing edges, so the constrained best ratio is 2/40
    assert np.array_equal(res2.best_set, [0, 1])
    assert res2.best_value == pytest.approx(0.05, abs=1e-15)
    assert res2.best_value == pytest.approx(oracle2[0], abs=1e-15)


def test_threshold_of_indicator_considers_set_and_full(b6):
    num = lambda C: fs.cut_value(b6, C)
    den = ModularVolume(b6.degrees)
    f = np.zeros(6)
    f[[0, 1, 2]] = 1.0
    res = fs.optimal_threshold(f, num, den)
    # candidates are {0,1,2} (1/7) and V (0/14); V wins
    assert np.array_equal(res.best_set, np.arange(6))
    assert res.best_value == 0.0


def test_threshold_errors(b6):
    num = lambda C: fs.cut_value(b6, C)
    den = SeededBalance(b6.degrees, 0.0, float(b6.degrees.sum()))
    f = np.arange(6, dtype=float)
    with pytest.raises(NoFeasibleThreshold):
        fs.optimal_threshold(f, num, den, feasibility=lambda C: False)
    zero_den = ModularVolume(np.zeros(6))
    with pytest.raises(ValueError, match="denominator"):
        fs.optimal_threshold(f, num, zero_den)


def test_threshold_constant_vector_returns_full_set(b6):
    num = lambda C: fs.cut_value(b6, C)
    den = ModularVolume(np.ones(6))
    res = fs.optimal_threshold(np.ones(6), num, den)
    assert np.array_equal(res.best_set, np.arange(6))


def test_weighted_sum_and_suffix_consistency(rng):
    graph = weighted_graph(7, 0.5, rng)
    h = rng.uniform(0, 2, 7)
    fn = WeightedSum([(1.0, ModularVolume(h)),
                      (0.7, UpperPenalty(h, 2.0)),
                      (2.0, NonemptyIndicator())])
    order = np.argsort(rng.uniform(0, 1, 7), kind="stable")
    from fracset.lovasz import suffix_values
    vals = suffix_values(fn, order)
    direct = np.array([fn.value(order[i:]) for i in range(7)])
    assert np.allclose(vals, direct, atol=1e-12)


def test_seeded_sweep_classes_match_direct_values(rng):
    graph = weighted_graph(8, 0.5, rng)
    seed = np.array([0, 3])
    mask = np.zeros(8, dtype=bool)
    mask[seed] = True
    active = np.nonzero(~mask)[0]
    sub, _ = graph.induced_subgraph(active)
    dj = np.array([sum(w for nb, w in zip(*graph.neighbors(int(v))) if mask[nb])
                   for v in active])
    cut_j = fs.cut_value(graph, seed)
    assoc_j = fs.assoc_value(graph, seed)
    fns = {
        "cut": SeededCut(sub, dj, cut_j),
        "assoc": SeededAssoc(sub, dj, assoc_j),
        "balance": SeededBalance(graph.degrees[active],
                                 fs.volume(graph.degrees, seed),
                                 float(graph.degrees.sum())),
    }
    full = {
        "cut": lambda C: fs.cut_value(graph, C),
        "assoc": lambda C: fs.assoc_value(graph, C),
        "balance": lambda C: fs.volume(graph.degrees, C)
        * (graph.degrees.sum() - fs.volume(graph.degrees, C)),
    }
    from fracset.lovasz import suffix_values
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, active.size), kind="stable")
        for name, fn in fns.items():
            vals = suffix_values(fn, order)
            for i in range(active.size):
                C = np.sort(np.concatenate([seed, active[order[i:]]]))
                assert vals[i] == pytest.approx(full[name](C), abs=1e-9), name
