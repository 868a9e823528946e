import itertools

import numpy as np
import pytest

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
                net.add_edge(u, v, c)
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
    net2.add_edge(0, 1, 1.0)
    assert net2.max_flow(0, 2) == 0.0
    side = net2.min_cut_source_side()
    assert side[0] and not side[2]


def test_add_edge_validation():
    net = FlowNetwork(2)
    with pytest.raises(ValueError):
        net.add_edge(0, 0, 1.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, -1.0)
    with pytest.raises(ValueError):
        net.max_flow(0, 0)
