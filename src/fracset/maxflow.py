"""s-t maximum flow / minimum cut with real capacities.

Dinic's algorithm: a breadth-first search labels residual distances from
the source, and depth-first searches push a blocking flow along arcs that go
one label up, until the sink is out of reach; that last search marks the
minimum cut's source side.  ``max_flow`` augments the flow the network
already carries: a network may be built with a flow on some of its paths,
each arc's residual capacity lowered and its reverse arc's raised by that
flow, as the density cut builds its network with flow on every path
source->j->sink.  Every maximum flow leaves the same vertices reachable,
the least minimum cut's source side, however it was reached.  No caller
keeps a network between calls: each cut builds its own.
A network is built by ``add_edge``, which appends edges given as arrays,
or one edge given as scalars, after the arcs already there.
Residual amounts up to 1e-12 of the largest residual capacity count as
zero, so rounding dust on a saturated arc moves no vertex across the cut.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """Directed residual network on the vertices 0..n-1, built by add_edge.

    The arcs of the k-th edge are 2k (u->v) and 2k+1 (v->u), so an arc's
    reverse is its id xor 1; each vertex lists the arcs leaving it in
    arc-id order.
    """

    def __init__(self, n):
        self.n = int(n)
        self.adj = [[] for _ in range(self.n)]
        self.to = []
        self.cap = []       # residual capacity, mutated by max_flow
        # residual distance from the source at the last search; -1: unreached
        self.level = [-1] * self.n

    def add_edge(self, u, v, cap, rev_cap):
        """Append the edges u[k]-v[k], k in order, each as an arc u[k]->v[k]
        with capacity cap[k] and an arc v[k]->u[k] with capacity rev_cap[k];
        scalars give one edge.  Returns the id of the first new arc.

        Every edge is checked before any is stored.  The new arcs' tails,
        sorted stably, extend each vertex's list in arc-id order.
        """
        tail = np.column_stack((u, v)).astype(np.int64, copy=False).ravel()
        head = tail.reshape(-1, 2)[:, ::-1].ravel()
        caps = np.column_stack((cap, rev_cap)).ravel().astype(np.float64)
        if tail.size:
            if (caps < 0).any():
                raise ValueError("capacities must be non-negative")
            if (tail == head).any():
                raise ValueError("self-loop arc")
            if tail.min() < 0 or tail.max() >= self.n:
                raise ValueError("arc endpoint out of range")
        eid = len(self.to)
        order = (np.argsort(tail, kind="stable") + eid).tolist()
        ends = np.cumsum(np.bincount(tail, minlength=self.n)).tolist()
        for arcs, a, b in zip(self.adj, [0] + ends, ends):
            arcs.extend(order[a:b])
        self.to += head.tolist()
        self.cap += caps.tolist()
        return eid

    def max_flow(self, s, t):
        """Augment the current flow to a maximum one; returns the flow added."""
        if s == t:
            raise ValueError("source equals sink")
        to, cap, adj = self.to, self.cap, self.adj
        eps = 1e-12 * max(1.0, max(cap, default=0.0))
        added = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                up = level[u] + 1
                for e in adj[u]:
                    v = to[e]
                    if level[v] < 0 and cap[e] > eps:
                        level[v] = up
                        queue.append(v)
            self.level = level
            if level[t] < 0:
                return added
            nxt = [0] * self.n   # next arc to try at each vertex
            path = []            # arcs from s to u
            u = s
            while True:
                if u == t:
                    d = min([cap[e] for e in path])
                    for e in path:
                        cap[e] -= d
                        cap[e ^ 1] += d
                    added += d
                    # retreat to the tail of the first arc this saturated
                    k = 0
                    while cap[path[k]] > eps:
                        k += 1
                    u = to[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs = adj[u]
                m = len(arcs)
                up = level[u] + 1
                i = nxt[u]
                while i < m:
                    e = arcs[i]
                    if cap[e] > eps and level[to[e]] == up:
                        break
                    i += 1
                nxt[u] = i
                if i < m:
                    path.append(e)
                    u = to[e]
                elif u == s:
                    break
                else:            # dead end: step back and skip the arc in
                    u = to[path.pop() ^ 1]
                    nxt[u] += 1

    def min_cut_source_side(self):
        """Vertices reachable from s in the residual graph after max_flow."""
        return np.asarray(self.level) >= 0
