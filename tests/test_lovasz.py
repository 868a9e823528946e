import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracset as fs
from fracset.constraints import SeedContainment
from fracset.lovasz import (Assoc, Balance, Cut, ModularVolume, SeedBlock,
                            WeightedSum, ascending_order)

from helpers import (all_subsets, balance_value, nonempty_indicator,
                     penalty_value, truncated_volume, weighted_graph)


def standard_set_functions(graph, rng):
    """The set-function zoo used throughout: name -> (sweepable set
    function, independent oracle on index arrays)."""
    n = graph.n
    g = rng.uniform(0.0, 2.0, n)
    h = rng.uniform(0.0, 2.0, n)
    k = float(rng.uniform(0.5, h.sum() + 0.5))
    deg = graph.degrees
    zoo = {
        "cut": (Cut(graph), lambda C: fs.cut_value(graph, C)),
        "assoc": (Assoc(graph), lambda C: fs.assoc_value(graph, C)),
        "vol_g": (ModularVolume(g), lambda C: fs.volume(g, C)),
        "trunc_vol": (truncated_volume(h, k), lambda C: min(k, h[C].sum())),
        "nonempty": (nonempty_indicator(n), lambda C: float(len(C) > 0)),
        "balance": (Balance(deg), lambda C: balance_value(deg, C)),
        "upper_penalty": (fs.VolumeConstraint(h, k, upper=True),
                          lambda C: penalty_value(h, k, C)),
        "lower_penalty": (fs.VolumeConstraint(h, k, upper=False),
                          lambda C: penalty_value(h, k, C, upper=False)),
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
    cut = Cut(b6)
    assoc = Assoc(b6)
    for alpha in (0.0, 1.0, 2.5):
        f = alpha * np.ones(6)
        assert fs.lovasz_value(cut, f) == pytest.approx(0.0, abs=1e-12)
        assert fs.lovasz_value(assoc, f) == pytest.approx(14.0 * alpha, abs=1e-12)


def test_path_graph_cut_extension_is_total_variation(path3):
    cut = Cut(path3)
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
    fn = Cut(path)
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
    # genuine subgradients, which needs submodularity (including the balance
    # on the sets A u J of a seed block J, zero on the empty A)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        w = rng.uniform(0, 2, n)
        seed_volume = float(rng.uniform(0, 2))
        fns = [SeedBlock(Balance(np.append(w, seed_volume)), np.arange(n),
                         [n]),
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
            Cut(graph),
            Balance(graph.degrees),
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
    cut = Cut(graph)
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
        num = Cut(graph)
        den = Balance(graph.degrees)
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
    den = Balance(b6.degrees)
    with pytest.raises(AttributeError):
        fs.lovasz_value(cut, f)
    with pytest.raises(AttributeError):
        fs.greedy_subgradient(cut, f)
    with pytest.raises(AttributeError):
        fs.optimal_threshold(f, cut, den)
    with pytest.raises(AttributeError):
        fs.optimal_threshold(f, Cut(b6), den,
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
    den = Balance(deg)
    f = np.array([3.0, 3.0, 2.0, 1.0, 0.0, 0.0]) / 3.0
    res = fs.optimal_threshold(f, Cut(b6), den)
    oracle = sweep_oracle(b6, f, cut, lambda C: balance_value(deg, C))
    assert np.array_equal(res.best_set, [0, 1, 2])
    assert res.best_value == pytest.approx(1 / 49, abs=1e-15)
    assert res.best_value == pytest.approx(oracle[0], abs=1e-15)

    pred = fs.VolumeConstraint(deg, 4.0, upper=True)
    res2 = fs.optimal_threshold(f, Cut(b6), den, predicates=[pred])
    oracle2 = sweep_oracle(b6, f, cut, lambda C: balance_value(deg, C),
                           lambda C: fs.volume(deg, C) <= 4.0)
    # cut({0,1}) = 2 crossing edges, so the constrained best ratio is 2/40
    assert np.array_equal(res2.best_set, [0, 1])
    assert res2.best_value == pytest.approx(0.05, abs=1e-15)
    assert res2.best_value == pytest.approx(oracle2[0], abs=1e-15)


def test_threshold_of_indicator_considers_set_and_full(b6):
    num = Cut(b6)
    den = ModularVolume(b6.degrees)
    f = np.zeros(6)
    f[[0, 1, 2]] = 1.0
    res = fs.optimal_threshold(f, num, den)
    # candidates are {0,1,2} (1/7) and V (0/14); V wins
    assert np.array_equal(res.best_set, np.arange(6))
    assert res.best_value == 0.0


def test_threshold_without_a_qualifying_set_returns_none(b6):
    num = Cut(b6)
    den = Balance(b6.degrees)
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
    num = Cut(b6)
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
        den = [Balance(deg), ModularVolume(deg),
               ModularVolume(np.zeros(n))][int(rng.integers(0, 3))]
        preds = ([] if rng.random() < 0.3 else
                 [fs.VolumeConstraint(deg, float(rng.uniform(-1, deg.sum())),
                                      upper=True)])
        want = loop_threshold(f, Cut(graph), den, preds)
        got = fs.optimal_threshold(f, Cut(graph), den, preds)
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
        den = Balance(graph.degrees)
        got = fs.optimal_threshold(f, Cut(graph), den, preds)
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


def test_seed_block_matches_textbook_values(rng):
    # every whole-graph set function and volume constraint, read through
    # SeedBlock on every A outside a seed block J of 0, 1 or 2 vertices:
    # graph.py's value at A u J on nonempty A, 0 on the empty A, and the
    # predicate flag of A u J
    for _ in range(6):
        n = int(rng.integers(4, 8))
        graph = weighted_graph(n, 0.5, rng)
        deg, g = graph.degrees, rng.uniform(0.0, 2.0, n)
        h = rng.uniform(0.0, 2.0, n)
        k = float(rng.uniform(0.0, h.sum()))
        upper = fs.VolumeConstraint(h, k, upper=True)
        lower = fs.VolumeConstraint(h, k, upper=False)
        fns = {  # name: (whole-graph set function, textbook value of C)
            "cut": (Cut(graph), lambda C: fs.cut_value(graph, C)),
            "assoc": (Assoc(graph), lambda C: fs.assoc_value(graph, C)),
            "balance": (Balance(deg), lambda C: balance_value(deg, C)),
            "vol_g": (ModularVolume(g), lambda C: fs.volume(g, C)),
            "upper_penalty": (upper, lambda C: penalty_value(h, k, C)),
            "lower_penalty": (lower,
                              lambda C: penalty_value(h, k, C, upper=False)),
        }
        for size in (0, 1, 2):
            J = np.sort(rng.choice(n, size=size, replace=False))
            rest = np.setdiff1d(np.arange(n), J)
            m = rest.size
            for A in all_subsets(m):
                C = np.sort(np.concatenate([J, rest[A]]))
                ind = np.zeros(m)
                ind[A] = 1.0
                # a sweep order with A last: A is the suffix from m - |A| on
                order = ascending_order(ind)
                i = m - A.size
                for name, (fn, textbook) in fns.items():
                    view = SeedBlock(fn, rest, J)
                    want = textbook(C) if A.size else 0.0
                    assert fs.lovasz_value(view, ind) == pytest.approx(
                        want, abs=1e-12), name
                    if A.size:
                        assert view.suffix_values(order)[i] == pytest.approx(
                            want, abs=1e-12), name
                for c in (upper, lower):
                    if A.size:
                        assert (SeedBlock(c, rest, J).suffix_flags(order)[i]
                                == c.satisfied(C))


def test_cut_sweep_never_goes_negative():
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
        fn = Cut(graph)
        vol = float(graph.degrees.sum())
        for _ in range(20):
            order = np.lexsort((rng.random(30), rng.permutation(3)[block]))
            vals = fn.suffix_values(order)
            assert vals.min() >= 0.0
            for i in range(30):
                assert (abs(vals[i] - fs.cut_value(graph, order[i:]))
                        <= 1e-12 * vol)


def test_set_values_examples(b6):
    cut, assoc = Cut(b6), Assoc(b6)
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
    # each standard whole-graph set function, read through SeedBlock on the
    # vertices outside a seed block J as the solver reads it, at A through
    # set_values: the value of A u J by graph.py's cut_value, assoc_value
    # and volume
    graph, side, g, h, k = case
    mask = side == "J"
    J, active = np.flatnonzero(mask), np.flatnonzero(~mask)
    A = np.flatnonzero(side[active] == "A")
    C = np.sort(np.concatenate([J, active[A]]))
    deg = graph.degrees
    cut = Cut(graph)
    penalty = fs.VolumeConstraint(h, k, upper)
    vol, vol_g = float(deg.sum()), float(g.sum())
    fns = {  # name: (set function, textbook value of C, scale)
        "cut": (cut, fs.cut_value(graph, C), vol),
        "assoc": (Assoc(graph), fs.assoc_value(graph, C), vol),
        "balance": (Balance(deg), balance_value(deg, C), vol * vol),
        "vol_g": (ModularVolume(g), fs.volume(g, C), vol_g),
        "penalty": (penalty, penalty_value(h, k, C, upper),
                    float(h.sum()) + abs(k)),
        "sum": (WeightedSum([(1.0, cut), (2.5, penalty)]),
                fs.cut_value(graph, C) + 2.5 * penalty_value(h, k, C, upper),
                vol + 2.5 * (float(h.sum()) + abs(k))),
    }
    got = fs.set_values([SeedBlock(fn, active, J) for fn, _, _ in fns.values()],
                        active.size, A)
    for (name, (_, want, scale)), value in zip(fns.items(), got):
        if A.size == 0:
            assert value == 0.0, name
        else:
            assert abs(value - want) <= 1e-12 * max(scale, 1.0), name
