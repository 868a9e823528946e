import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracset as fs
from fracset.constraints import SeedContainment
from fracset.lovasz import (ModularVolume, SeededAssoc, SeededBalance,
                            SeededCut, WeightedSum, ascending_order)

from helpers import (all_subsets, balance_value, nonempty_indicator,
                     penalty_value, plain_assoc, plain_cut, truncated_volume,
                     weighted_graph)


def standard_set_functions(graph, rng):
    """The set-function zoo used throughout: name -> (sweepable set
    function, independent oracle on index arrays)."""
    n = graph.n
    g = rng.uniform(0.0, 2.0, n)
    h = rng.uniform(0.0, 2.0, n)
    k = float(rng.uniform(0.5, h.sum() + 0.5))
    deg = graph.degrees
    zoo = {
        "cut": (plain_cut(graph), lambda C: fs.cut_value(graph, C)),
        "assoc": (plain_assoc(graph), lambda C: fs.assoc_value(graph, C)),
        "vol_g": (ModularVolume(g), lambda C: fs.volume(g, C)),
        "trunc_vol": (truncated_volume(h, k), lambda C: min(k, h[C].sum())),
        "nonempty": (nonempty_indicator(n), lambda C: float(len(C) > 0)),
        "balance": (SeededBalance(deg, 0.0), lambda C: balance_value(deg, C)),
        "upper_penalty": (fs.VolumeConstraint(h, k, upper=True),
                          lambda C: penalty_value(h, k, C)),
        "lower_penalty": (fs.VolumeConstraint(h, k, upper=False),
                          lambda C: penalty_value(h, k, C, upper=False)),
        # a seed block of volume 0.5 folded out of the domain
        "upper_penalty_offset": (
            fs.VolumeConstraint(h, k, upper=True, offset=0.5),
            lambda C: penalty_value(h, k, C, offset=0.5)),
        "lower_penalty_offset": (
            fs.VolumeConstraint(h, k, upper=False, offset=0.5),
            lambda C: penalty_value(h, k, C, upper=False, offset=0.5)),
    }
    return zoo


def test_extension_property_exhaustive(rng):
    for _ in range(12):
        n = int(rng.integers(3, 9))
        graph = weighted_graph(n, 0.5, rng)
        fns = standard_set_functions(graph, rng)
        for name, (fn, oracle) in fns.items():
            for C in all_subsets(n):
                ind = np.zeros(n)
                ind[C] = 1.0
                assert fs.lovasz_value(fn, ind) == pytest.approx(
                    oracle(C), abs=1e-12), name


def test_constant_vector_gives_full_set_value(b6):
    cut = plain_cut(b6)
    assoc = plain_assoc(b6)
    for alpha in (0.0, 1.0, 2.5):
        f = alpha * np.ones(6)
        assert fs.lovasz_value(cut, f) == pytest.approx(0.0, abs=1e-12)
        assert fs.lovasz_value(assoc, f) == pytest.approx(14.0 * alpha, abs=1e-12)


def test_path_graph_cut_extension_is_total_variation(path3):
    cut = plain_cut(path3)
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
    fn = plain_cut(path)
    assert fs.lovasz_value(fn, alpha * f) == pytest.approx(
        alpha * fs.lovasz_value(fn, f), rel=1e-10, abs=1e-10)


def test_greedy_subgradient_identity(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        graph = weighted_graph(n, 0.5, rng)
        fns = standard_set_functions(graph, rng)
        f = rng.uniform(0, 1, n)
        for name, (fn, _) in fns.items():
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
    fn = nonempty_indicator(4)
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
        fns = [SeededBalance(w, offset),
               truncated_volume(w, float(rng.uniform(0, w.sum() + 1)))]
        subsets = list(all_subsets(n))
        for fn in fns:
            value = lambda C: fs.set_values([fn], n, C)[0]
            for _ in range(40):
                A = subsets[rng.integers(len(subsets))]
                B = subsets[rng.integers(len(subsets))]
                union = np.union1d(A, B)
                inter = np.intersect1d(A, B)
                assert (value(union) + value(inter)
                        <= value(A) + value(B) + 1e-10)


def test_convexity_midpoint_for_submodular(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        graph = weighted_graph(n, 0.6, rng)
        h = rng.uniform(0, 2, n)
        submodular = [
            plain_cut(graph),
            SeededBalance(graph.degrees, 0.0),
            truncated_volume(h, float(rng.uniform(0.5, h.sum()))),
            nonempty_indicator(n),
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
    cut = plain_cut(graph)
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
        num = plain_cut(graph)
        den = SeededBalance(graph.degrees, 0.0)
        f = rng.uniform(0, 1, n)
        dn = fs.lovasz_value(den, f)
        if dn <= 0:
            continue
        q = fs.lovasz_value(num, f) / dn
        res = fs.optimal_threshold(f, num, den)
        assert q >= res.best_value - 1e-10


def test_sweeps_reject_plain_callables(b6):
    # every sweep reads suffix_values / suffix_flags, so a plain callable is
    # refused before it is evaluated even once
    calls = []

    def cut(C):
        calls.append(C)
        return fs.cut_value(b6, C)

    f = np.arange(6, dtype=float)
    den = SeededBalance(b6.degrees, 0.0)
    with pytest.raises(AttributeError):
        fs.lovasz_value(cut, f)
    with pytest.raises(AttributeError):
        fs.greedy_subgradient(cut, f)
    with pytest.raises(AttributeError):
        fs.optimal_threshold(f, cut, den)
    with pytest.raises(AttributeError):
        fs.optimal_threshold(f, plain_cut(b6), den,
                             predicates=[lambda C: calls.append(C) or True])
    with pytest.raises(AttributeError):
        fs.lrw_cluster(b6, [0], cut, den)
    assert not calls


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
    cut = lambda C: fs.cut_value(b6, C)
    den = SeededBalance(deg, 0.0)
    f = np.array([3.0, 3.0, 2.0, 1.0, 0.0, 0.0]) / 3.0
    res = fs.optimal_threshold(f, plain_cut(b6), den)
    oracle = sweep_oracle(b6, f, cut, lambda C: balance_value(deg, C))
    assert np.array_equal(res.best_set, [0, 1, 2])
    assert res.best_value == pytest.approx(1 / 49, abs=1e-15)
    assert res.best_value == pytest.approx(oracle[0], abs=1e-15)

    pred = fs.VolumeConstraint(deg, 4.0, upper=True)
    res2 = fs.optimal_threshold(f, plain_cut(b6), den, predicates=[pred])
    oracle2 = sweep_oracle(b6, f, cut, lambda C: balance_value(deg, C),
                           lambda C: fs.volume(deg, C) <= 4.0)
    # cut({0,1}) = 2 crossing edges, so the constrained best ratio is 2/40
    assert np.array_equal(res2.best_set, [0, 1])
    assert res2.best_value == pytest.approx(0.05, abs=1e-15)
    assert res2.best_value == pytest.approx(oracle2[0], abs=1e-15)


def test_threshold_of_indicator_considers_set_and_full(b6):
    num = plain_cut(b6)
    den = ModularVolume(b6.degrees)
    f = np.zeros(6)
    f[[0, 1, 2]] = 1.0
    res = fs.optimal_threshold(f, num, den)
    # candidates are {0,1,2} (1/7) and V (0/14); V wins
    assert np.array_equal(res.best_set, np.arange(6))
    assert res.best_value == 0.0


def test_threshold_without_a_qualifying_set_returns_none(b6):
    num = plain_cut(b6)
    den = SeededBalance(b6.degrees, 0.0)
    f = np.arange(6, dtype=float)
    assert fs.optimal_threshold(np.empty(0), num, den) is None
    # every denominator is 0, or negative
    assert fs.optimal_threshold(f, num, ModularVolume(np.zeros(6))) is None
    assert fs.optimal_threshold(f, num, ModularVolume(-np.ones(6))) is None
    # no set has a volume below -1
    nothing = fs.VolumeConstraint(np.ones(6), -1.0, upper=True)
    assert fs.optimal_threshold(f, num, den, [nothing]) is None
    # each predicate alone passes some set, their conjunction none: the only
    # threshold set holding vertex 0 is V, of size 6 > 5
    vol = ModularVolume(b6.degrees)
    holds_0 = SeedContainment(np.array([0]))
    at_most_5 = fs.VolumeConstraint(np.ones(6), 5.0, upper=True)
    assert fs.optimal_threshold(f, num, vol, [holds_0]) is not None
    assert fs.optimal_threshold(f, num, vol, [at_most_5]) is not None
    assert fs.optimal_threshold(f, num, vol, [holds_0, at_most_5]) is None


def test_threshold_constant_vector_returns_full_set(b6):
    num = plain_cut(b6)
    den = ModularVolume(np.ones(6))
    res = fs.optimal_threshold(np.ones(6), num, den)
    assert np.array_equal(res.best_set, np.arange(6))


def loop_threshold(f, numerator, denominator, predicates=()):
    """optimal_threshold as a loop over the levels: the reference for its
    vectorized pick, with the same suffix arrays and divisions; None when
    no level qualifies."""
    order = ascending_order(f)
    levels = f[order]
    starts = [0] + [i for i in range(1, f.size) if levels[i] > levels[i - 1]]
    nums = numerator.suffix_values(order)
    dens = denominator.suffix_values(order)
    flags = [p.suffix_flags(order) for p in predicates]
    best_i, best_val = -1, np.inf
    for i in starts:
        if (dens[i] > 0.0 and all(fl[i] for fl in flags)
                and nums[i] / dens[i] <= best_val):
            best_i, best_val = i, nums[i] / dens[i]
    if best_i < 0:
        return None
    return np.sort(order[best_i:]), best_val


def test_optimal_threshold_matches_loop_reference(rng):
    # few levels on unit-weight graphs give tied values, which must still go
    # to the smallest set; zero denominators and tight bounds leave no set
    from helpers import er_graph
    empty = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        graph = er_graph(n, 0.5, rng)
        deg = graph.degrees
        f = rng.integers(0, 4, n).astype(float)
        den = [SeededBalance(deg, 0.0), ModularVolume(deg),
               ModularVolume(np.zeros(n))][int(rng.integers(0, 3))]
        preds = ([] if rng.random() < 0.3 else
                 [fs.VolumeConstraint(deg, float(rng.uniform(-1, deg.sum())),
                                      upper=True)])
        want = loop_threshold(f, plain_cut(graph), den, preds)
        got = fs.optimal_threshold(f, plain_cut(graph), den, preds)
        if want is None:
            empty += 1
            assert got is None
            continue
        assert np.array_equal(got.best_set, want[0])
        assert got.best_value == want[1]
    assert 0 < empty < 300


def test_two_predicates_sweep_their_conjunction(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        graph = weighted_graph(n, 0.6, rng)
        h = rng.uniform(0.0, 2.0, n)
        seeds = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        preds = [SeedContainment(seeds),
                 fs.VolumeConstraint(h, float(rng.uniform(0, h.sum())),
                                     upper=True)]
        f = rng.integers(0, 4, n).astype(float)
        den = SeededBalance(graph.degrees, 0.0)
        got = fs.optimal_threshold(f, plain_cut(graph), den, preds)
        want = sweep_oracle(
            graph, f, lambda C: fs.cut_value(graph, C),
            lambda C: balance_value(graph.degrees, C),
            lambda C: set(seeds) <= set(C) and fs.volume(h, C) <= preds[1].bound)
        if want is None:
            assert got is None
        else:
            assert got.best_value == pytest.approx(want[0], abs=1e-12)
            assert np.array_equal(got.best_set, want[1])


def test_weighted_sum_and_suffix_consistency(rng):
    graph = weighted_graph(7, 0.5, rng)
    h = rng.uniform(0, 2, 7)
    fn = WeightedSum([(1.0, ModularVolume(h)),
                      (0.7, fs.VolumeConstraint(h, 2.0, upper=True)),
                      (2.0, nonempty_indicator(7))])
    order = np.argsort(rng.uniform(0, 1, 7), kind="stable")
    vals = fn.suffix_values(order)
    # the nonempty indicator is 1 on every suffix
    direct = np.array([fs.volume(h, order[i:])
                       + 0.7 * penalty_value(h, 2.0, order[i:]) + 2.0
                       for i in range(7)])
    assert np.allclose(vals, direct, atol=1e-12)


def test_seeded_sweep_classes_match_direct_values(rng):
    graph = weighted_graph(8, 0.5, rng)
    seed = np.array([0, 3])
    mask = np.zeros(8, dtype=bool)
    mask[seed] = True
    active = np.nonzero(~mask)[0]
    sub, _ = graph.induced_subgraph(active)
    eu, ev, ew = graph.edge_u, graph.edge_v, graph.edge_w
    dj = np.array([ew[((eu == v) & mask[ev]) | ((ev == v) & mask[eu])].sum()
                   for v in active])
    cut_j = fs.cut_value(graph, seed)
    assoc_j = fs.assoc_value(graph, seed)
    fns = {
        "cut": SeededCut(sub, dj, cut_j),
        "assoc": SeededAssoc(sub, dj, assoc_j),
        "balance": SeededBalance(graph.degrees[active],
                                 fs.volume(graph.degrees, seed)),
    }
    full = {
        "cut": lambda C: fs.cut_value(graph, C),
        "assoc": lambda C: fs.assoc_value(graph, C),
        "balance": lambda C: fs.volume(graph.degrees, C)
        * (graph.degrees.sum() - fs.volume(graph.degrees, C)),
    }
    for _ in range(10):
        order = np.argsort(rng.uniform(0, 1, active.size), kind="stable")
        for name, fn in fns.items():
            vals = fn.suffix_values(order)
            for i in range(active.size):
                C = np.sort(np.concatenate([seed, active[order[i:]]]))
                assert vals[i] == pytest.approx(full[name](C), abs=1e-9), name


def test_seeded_cut_sweep_never_goes_negative():
    # three disconnected weighted blocks: a suffix that is a union of whole
    # blocks has cut exactly 0, which vol - 2 * internal weight can round
    # below 0 (by about 1e-13 on these graphs) unless the sweep clamps it
    for seed in range(5):
        rng = np.random.default_rng(seed)
        block = np.repeat(np.arange(3), 10)
        edges = [(i, j, float(rng.uniform(0.5, 2.0)))
                 for i in range(30) for j in range(i + 1, 30)
                 if block[i] == block[j] and rng.random() < 0.6]
        graph = fs.Graph.from_edges(30, edges)
        fn = SeededCut(graph, np.zeros(30), 0.0)
        vol = float(graph.degrees.sum())
        for _ in range(20):
            order = np.lexsort((rng.random(30), rng.permutation(3)[block]))
            vals = fn.suffix_values(order)
            assert vals.min() >= 0.0
            for i in range(30):
                assert (abs(vals[i] - fs.cut_value(graph, order[i:]))
                        <= 1e-12 * vol)


def test_set_values_examples(b6):
    cut, assoc = plain_cut(b6), plain_assoc(b6)
    assert fs.set_values([cut, assoc], 6, [0, 1, 2]) == [1.0, 6.0]
    # the order of idx does not matter, and the empty set gives 0.0
    assert fs.set_values([cut, assoc], 6, [2, 0, 1]) == [1.0, 6.0]
    assert fs.set_values([cut, assoc], 6, []) == [0.0, 0.0]
    assert fs.set_values([cut], 6, np.arange(6)) == [0.0]


@st.composite
def seeded_cases(draw):
    """(graph, side, vertex weights g and h, bound k): edge weights in
    [1e-3, 3]; side[v] is "J" for the seed block, "A" for the set and "o"
    for the rest, and J and A may be empty."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = fs.Graph.from_edges(
        n, [(i, j, draw(st.floats(1e-3, 3.0))) for i, j in chosen])
    side = np.array(draw(st.lists(st.sampled_from("JAo"), min_size=n,
                                  max_size=n)))
    weights = st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)
    g, h = np.array(draw(weights)), np.array(draw(weights))
    k = draw(st.floats(-1.0, 10.0))
    return graph, side, g, h, k


@settings(max_examples=200, deadline=None)
@given(seeded_cases(), st.booleans())
def test_set_values_are_the_textbook_values(case, upper):
    # each standard set function, folded onto the vertices outside a seed
    # block J as the builders fold it, read at A through set_values: the
    # value of A u J by graph.py's cut_value, assoc_value and volume
    graph, side, g, h, k = case
    mask = side == "J"
    J, active = np.flatnonzero(mask), np.flatnonzero(~mask)
    A = np.flatnonzero(side[active] == "A")
    C = np.sort(np.concatenate([J, active[A]]))
    deg = graph.degrees
    sub, _ = graph.induced_subgraph(active)
    dj = graph.neighbor_sum(mask)[active]
    cut = SeededCut(sub, dj, fs.cut_value(graph, J))
    penalty = fs.VolumeConstraint(h[active], k, upper, fs.volume(h, J))
    vol, vol_g = float(deg.sum()), float(g.sum())
    fns = {  # name: (set function, textbook value of C, scale)
        "cut": (cut, fs.cut_value(graph, C), vol),
        "assoc": (SeededAssoc(sub, dj, fs.assoc_value(graph, J)),
                  fs.assoc_value(graph, C), vol),
        "balance": (SeededBalance(deg[active], fs.volume(deg, J)),
                    balance_value(deg, C), vol * vol),
        "vol_g": (ModularVolume(g[active], fs.volume(g, J)),
                  fs.volume(g, C), vol_g),
        "penalty": (penalty, penalty_value(h, k, C, upper),
                    float(h.sum()) + abs(k)),
        "sum": (WeightedSum([(1.0, cut), (2.5, penalty)]),
                fs.cut_value(graph, C) + 2.5 * penalty_value(h, k, C, upper),
                vol + 2.5 * (float(h.sum()) + abs(k))),
    }
    got = fs.set_values([fn for fn, _, _ in fns.values()], active.size, A)
    for (name, (_, want, scale)), value in zip(fns.items(), got):
        if A.size == 0:
            assert value == 0.0, name
        else:
            assert abs(value - want) <= 1e-12 * max(scale, 1.0), name
