import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracset.maxflow import FlowNetwork


def brute_force_min_cut(n, arcs, s, t):
    """Enumerate all s-t cuts: min over S with s in S, t not in S."""
    others = [v for v in range(n) if v not in (s, t)]
    best = np.inf
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = set(chosen) | {s}
            cap = sum(c for u, v, c in arcs if u in side and v not in side)
            best = min(best, cap)
    return best


def random_network(rng, n):
    net = FlowNetwork(n)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                c = float(rng.uniform(0.1, 3.0))
                net.add_edge(u, v, c, 0.0)
                arcs.append((u, v, c))
    return net, arcs


def test_max_flow_matches_enumerated_min_cut(rng):
    for trial in range(40):
        n = int(rng.integers(3, 9))
        net, arcs = random_network(rng, n)
        s, t = 0, n - 1
        flow = net.max_flow(s, t)
        assert flow == pytest.approx(brute_force_min_cut(n, arcs, s, t),
                                     abs=1e-9)


def test_raised_capacities_keep_the_flow(rng):
    # max_flow augments the flow the network carries: after some arcs are
    # raised, the two calls add up to the raised network's minimum cut
    for trial in range(40):
        n = int(rng.integers(3, 9))
        net, arcs = random_network(rng, n)
        s, t = 0, n - 1
        flow = net.max_flow(s, t)
        for i in np.nonzero(rng.random(len(arcs)) < 0.5)[0]:
            delta = float(rng.uniform(0.0, 2.0))
            net.cap[2 * i] += delta
            u, v, c = arcs[i]
            arcs[i] = (u, v, c + delta)
        flow += net.max_flow(s, t)
        assert flow == pytest.approx(brute_force_min_cut(n, arcs, s, t),
                                     abs=1e-9)
        side = net.min_cut_source_side()
        cut = sum(c for u, v, c in arcs if side[u] and not side[v])
        assert cut == pytest.approx(flow, abs=1e-8)


def test_flow_conservation_and_cut_value(rng):
    for trial in range(20):
        n = int(rng.integers(3, 9))
        net, arcs = random_network(rng, n)
        s, t = 0, n - 1
        flow = net.max_flow(s, t)
        # conservation at internal vertices; capacity constraints everywhere.
        # Arc i is network arc 2i; its flow is capacity minus residual.
        balance = np.zeros(n)
        for i, (u, v, c) in enumerate(arcs):
            fwd = c - net.cap[2 * i]
            assert fwd <= c + 1e-9
            balance[u] += fwd
            balance[v] -= fwd
        for v in range(n):
            if v not in (s, t):
                assert balance[v] == pytest.approx(0.0, abs=1e-8)
        assert balance[s] == pytest.approx(flow, abs=1e-8)
        # the residual-reachable side certifies the flow value as a cut
        side = net.min_cut_source_side()
        assert side[s] and not side[t]
        cut = sum(c for u, v, c in arcs if side[u] and not side[v])
        assert cut == pytest.approx(flow, abs=1e-8)


def test_undirected_edges_and_disconnected_sink():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 2.0, 2.0)
    net.add_edge(1, 2, 0.5, 0.5)
    net.add_edge(2, 3, 2.0, 2.0)
    assert net.max_flow(0, 3) == pytest.approx(0.5)
    net2 = FlowNetwork(3)
    net2.add_edge(0, 1, 1.0, 0.0)
    assert net2.max_flow(0, 2) == 0.0
    side = net2.min_cut_source_side()
    assert side[0] and not side[2]


def test_add_edge_validation():
    # every edge of a call is checked before any is stored, the scalar
    # endpoints -1 and n too: a refused call leaves the network as it was
    net = FlowNetwork(2)
    net.add_edge(0, 1, 1.0, 0.0)
    stored = ([list(arcs) for arcs in net.adj], list(net.to), list(net.cap))
    for args, message in [((0, 0, 1.0, 0.0), "self-loop"),
                          ((0, 1, -1.0, 0.0), "non-negative"),
                          ((-1, 1, 1.0, 0.0), "out of range"),
                          ((0, 2, 1.0, 0.0), "out of range"),
                          (([0], [0], [1.0], [0.0]), "self-loop"),
                          (([0], [1], [1.0], [-1.0]), "non-negative"),
                          (([0], [2], [1.0], [0.0]), "out of range"),
                          (([1, 0], [0, 2], [1.0, 1.0], [0.0, 0.0]),
                           "out of range"),
                          (([1, -1], [0, 1], [1.0, 1.0], [0.0, 0.0]),
                           "out of range")]:
        with pytest.raises(ValueError, match=message):
            net.add_edge(*args)
        assert (net.adj, net.to, net.cap) == stored
    with pytest.raises(ValueError):
        net.max_flow(0, 0)
    assert net.max_flow(0, 1) == 1.0


def least_min_cut(n, arcs, s, t):
    """(value, source side) of the minimum s-t cut whose source side is
    least: the intersection of every minimizing side, itself one."""
    others = [v for v in range(n) if v not in (s, t)]
    best, least = np.inf, None
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = set(chosen) | {s}
            cap = sum(c for u, v, c in arcs if u in side and v not in side)
            if cap < best:
                best, least = cap, side
            elif cap == best:
                least &= side
    return best, least


def test_flow_pushed_by_the_caller_is_augmented(rng):
    # a caller may push flow itself along arc pairs it added, as the
    # parametric cut does along source->j->sink: max_flow carries that flow
    # on to a maximum one, and the reachable side is the least minimum cut.
    # Small integer capacities keep every sum exact and make tied cuts common
    for trial in range(60):
        n = int(rng.integers(3, 8))
        s, t = 0, n - 1
        net, arcs, paths = FlowNetwork(n), [], []
        for j in range(1, n - 1):
            a = net.add_edge(s, j, float(rng.integers(0, 4)), 0.0)
            e = net.add_edge(j, t, float(rng.integers(0, 4)), 0.0)
            arcs += [(s, j, net.cap[a]), (j, t, net.cap[e])]
            paths.append((a, e))
        for u in range(1, n - 1):
            for v in range(1, n - 1):
                if u != v and rng.random() < 0.4:
                    c = float(rng.integers(1, 3))
                    net.add_edge(u, v, c, 0.0)
                    arcs.append((u, v, c))
        pushed = 0.0
        for a, e in paths:
            d = min(net.cap[a], net.cap[e]) * float(rng.integers(0, 2))
            for arc in (a, e):
                net.cap[arc] -= d
                net.cap[arc ^ 1] += d
            pushed += d
        best, least = least_min_cut(n, arcs, s, t)
        assert pushed + net.max_flow(s, t) == best
        assert set(np.nonzero(net.min_cut_source_side())[0]) == least


@st.composite
def arc_lists(draw):
    """(n, u, v, cap, rev_cap): up to 40 arcs on 2-8 vertices, so parallel
    and antiparallel arcs are common; capacities are often zero, and some
    vertices have no arc."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=40))
    caps = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1 / 3, 2.0, 7.25])
    cap = draw(st.lists(caps, min_size=len(pairs), max_size=len(pairs)))
    rev = draw(st.lists(caps, min_size=len(pairs), max_size=len(pairs)))
    return (n, [p[0] for p in pairs], [p[1] for p in pairs], cap, rev)


@settings(max_examples=300, deadline=None)
@given(arc_lists(), st.data())
def test_array_calls_store_what_per_edge_calls_store(arcs, data):
    # add_edge appends after the arcs already there: one call per edge, one
    # call with every edge, and the edges split into two calls at any point
    # store the same arc ids, adjacency and capacities
    n, u, v, cap, rev = arcs
    k = data.draw(st.integers(0, len(u)), label="split")
    looped = FlowNetwork(n)
    assert [looped.add_edge(*arc) for arc in zip(u, v, cap, rev)] == \
        list(range(0, 2 * len(u), 2))
    whole = FlowNetwork(n)
    assert whole.add_edge(np.array(u, dtype=np.int64),
                          np.array(v, dtype=np.int64),
                          np.array(cap), np.array(rev)) == 0
    split = FlowNetwork(n)
    assert split.add_edge(u[:k], v[:k], cap[:k], rev[:k]) == 0
    assert split.add_edge(u[k:], v[k:], cap[k:], rev[k:]) == 2 * k
    for net in (looped, whole, split):
        assert all(type(x) is int for x in net.to + sum(net.adj, []))
        assert all(type(x) is float for x in net.cap)
    for net in (whole, split):
        assert (net.adj, net.to, net.cap) == (looped.adj, looped.to,
                                              looped.cap)
    # the same searches on the same lists: the same flow and the same cut
    s, t = 0, n - 1
    flow = looped.max_flow(s, t)
    for net in (whole, split):
        assert net.max_flow(s, t) == flow
        assert net.cap == looped.cap
        assert np.array_equal(net.min_cut_source_side(),
                              looped.min_cut_source_side())
