"""s-t maximum flow / minimum cut with real capacities.

Highest-label push-relabel with the gap heuristic.  Capacities are floats;
residual amounts below a relative epsilon are treated as zero, which is exact
enough for the small parametric-cut instances this package solves.
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
        n = self.n
        if s == t:
            raise ValueError("source equals sink")
        to, cap, adj = self.to, self.cap, self.adj
        scale = max(cap) if cap else 1.0   # nothing pushed yet: the input capacities
        eps = 1e-12 * max(scale, 1.0)
        self._eps = eps
        max_h = 2 * n
        height = [0] * n
        height[s] = n
        excess = [0.0] * n
        count = [0] * (max_h + 2)
        count[0] = n - 1
        count[n] = 1
        buckets = [[] for _ in range(max_h + 2)]

        for eid in adj[s]:
            delta = cap[eid]
            if delta > eps:
                cap[eid] = 0.0
                cap[eid ^ 1] += delta
                excess[to[eid]] += delta
                excess[s] -= delta

        hp = 0
        for v in range(n):
            if v != s and v != t and excess[v] > eps:
                buckets[height[v]].append(v)
                hp = max(hp, height[v])

        while hp >= 0:
            if not buckets[hp]:
                hp -= 1
                continue
            u = buckets[hp].pop()
            if u == s or u == t or excess[u] <= eps:
                continue
            if height[u] != hp:
                # stale entry (gap lift or relabel); requeue where it lives now
                buckets[height[u]].append(u)
                hp = max(hp, height[u])
                continue
            hu = height[u]
            for eid in adj[u]:
                if cap[eid] <= eps:
                    continue
                v = to[eid]
                if hu != height[v] + 1:
                    continue
                delta = min(excess[u], cap[eid])
                cap[eid] -= delta
                cap[eid ^ 1] += delta
                excess[u] -= delta
                if excess[v] <= eps and v != s and v != t:
                    buckets[height[v]].append(v)
                excess[v] += delta
                if excess[u] <= eps:
                    break
            if excess[u] > eps:
                # no admissible arc left: relabel, with the gap heuristic
                old = height[u]
                lowest = None
                for eid in adj[u]:
                    if cap[eid] > eps:
                        hv = height[to[eid]]
                        if lowest is None or hv < lowest:
                            lowest = hv
                if lowest is None or lowest + 1 > max_h:
                    excess[u] = 0.0  # numerically stranded dust; drop it
                    continue
                count[old] -= 1
                new_h = lowest + 1
                if count[old] == 0 and old < n:
                    lift = n + 1
                    for w in range(n):
                        if old < height[w] < n:
                            count[height[w]] -= 1
                            height[w] = lift
                            count[lift] += 1
                    if old < new_h < n:
                        new_h = lift
                height[u] = new_h
                count[new_h] += 1
                buckets[new_h].append(u)
                hp = max(hp, new_h)
        return excess[t]

    def min_cut_source_side(self, s):
        """Vertices reachable from s in the residual graph after max_flow."""
        eps = getattr(self, "_eps", 1e-12)
        side = np.zeros(self.n, dtype=bool)
        side[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for eid in self.adj[u]:
                if self.cap[eid] > eps:
                    v = self.to[eid]
                    if not side[v]:
                        side[v] = True
                        stack.append(v)
        return side
