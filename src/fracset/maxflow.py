"""s-t maximum flow / minimum cut with real capacities.

Dinic's algorithm: a breadth-first search labels residual distances from
the source, and depth-first searches push a blocking flow along arcs that go
one label up, until the sink is out of reach; that last search marks the
minimum cut's source side.  ``max_flow`` augments the flow the network
already carries, so a caller that only raises residual capacities between
calls keeps its flow and pays only for the new paths.  Residual amounts up
to 1e-12 of the largest residual capacity count as zero, so rounding dust
on a saturated arc moves no vertex across the cut.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """Directed residual network; add_edge(u, v, cap, rev_cap) stores both arcs."""

    def __init__(self, n):
        self.n = int(n)
        self.adj = [[] for _ in range(self.n)]
        self.to = []
        self.cap = []       # residual capacity, mutated by max_flow
        # residual distance from the source at the last search; -1: unreached
        self.level = [-1] * self.n

    def add_edge(self, u, v, cap, rev_cap=0.0):
        if cap < 0 or rev_cap < 0:
            raise ValueError("capacities must be non-negative")
        if u == v:
            raise ValueError("self-loop arc")
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.cap.append(float(cap))
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(float(rev_cap))
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
                for e in adj[u]:
                    if cap[e] > eps and level[to[e]] < 0:
                        level[to[e]] = level[u] + 1
                        queue.append(to[e])
            self.level = level
            if level[t] < 0:
                return added
            nxt = [0] * self.n   # next arc to try at each vertex
            path = []            # arcs from s to u
            u = s
            while True:
                if u == t:
                    d = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= d
                        cap[e ^ 1] += d
                    added += d
                    # retreat to the tail of the first arc this saturated
                    k = next(i for i, e in enumerate(path) if cap[e] <= eps)
                    u = to[path[k] ^ 1]
                    del path[k:]
                    continue
                arcs = adj[u]
                i = nxt[u]
                while i < len(arcs) and not (
                        cap[arcs[i]] > eps and level[to[arcs[i]]] == level[u] + 1):
                    i += 1
                nxt[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:            # dead end: step back and skip the arc in
                    u = to[path.pop() ^ 1]
                    nxt[u] += 1

    def min_cut_source_side(self):
        """Vertices reachable from s in the residual graph after max_flow."""
        return np.asarray(self.level) >= 0
