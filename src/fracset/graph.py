"""Immutable weighted undirected graphs and their elementary set functions."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "as_index_array",
    "as_vertex_weights",
    "assoc_value",
    "coauthor_weights",
    "cut_value",
    "data_lines",
    "load_edge_list",
    "load_vertex_weights",
    "restrict_ball",
    "save_edge_list",
    "volume",
]


class GraphFormatError(ValueError):
    """Malformed edge-list, vertex-weight, or publication input."""


def _frozen(a):
    a.setflags(write=False)
    return a


def as_index_array(subset, n):
    """Normalize a vertex collection (indices or a boolean mask) to an int array."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (n,):
            raise ValueError(f"boolean mask must have length {n}")
        return np.nonzero(subset)[0]
    if isinstance(subset, (set, frozenset)):
        subset = sorted(subset)
    idx = np.asarray(subset, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("vertex index out of range")
    return idx


def as_vertex_weights(values, n):
    """Validate a per-vertex weight vector: length n, finite, non-negative."""
    w = np.asarray(values, dtype=np.float64).reshape(-1).copy()
    if w.size != n:
        raise ValueError(f"expected {n} vertex weights, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vertex weights must be finite")
    if w.size and w.min() < 0:
        raise ValueError("vertex weights must be non-negative")
    return _frozen(w)


class Graph:
    """Undirected graph with non-negative edge weights, each edge stored once.

    Vertices are 0..n-1, ``edge_u[k] < edge_v[k]`` for every edge, weights are
    strictly positive (zero-weight edges carry no information and are
    dropped), and the edge list is sorted lexicographically.  The edge list
    is the only adjacency kept: every weighted neighbour sum, the degrees
    included, is ``neighbor_sum``.  Instances are immutable after
    construction and safe to share between threads.
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "degrees")

    def __init__(self, n, edge_u=(), edge_v=(), edge_w=()):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        u = np.asarray(edge_u, dtype=np.int64).reshape(-1).copy()
        v = np.asarray(edge_v, dtype=np.int64).reshape(-1).copy()
        w = np.asarray(edge_w, dtype=np.float64).reshape(-1).copy()
        if not (u.size == v.size == w.size):
            raise ValueError("edge arrays must have equal length")
        if u.size:
            if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            if not np.all(np.isfinite(w)):
                raise ValueError("edge weights must be finite")
            if w.size and w.min() < 0:
                raise ValueError("edge weights must be non-negative")
            keep = w > 0
            u, v, w = u[keep], v[keep], w[keep]
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            order = np.lexsort((hi, lo))
            u, v, w = lo[order], hi[order], w[order]
            if u.size > 1 and np.any((u[1:] == u[:-1]) & (v[1:] == v[:-1])):
                raise ValueError("duplicate edge")
        self.n = n
        self.edge_u = _frozen(u)
        self.edge_v = _frozen(v)
        self.edge_w = _frozen(w)
        self.degrees = _frozen(self.neighbor_sum(np.ones(n)))

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of (u, v) or (u, v, w) tuples."""
        us, vs, ws = [], [], []
        for e in edges:
            if len(e) == 2:
                a, b = e
                w = 1.0
            else:
                a, b, w = e
            us.append(a)
            vs.append(b)
            ws.append(w)
        return cls(n, us, vs, ws)

    @property
    def num_edges(self):
        return int(self.edge_w.size)

    def neighbor_sum(self, x):
        """(W x)_i = sum_j w_ij x_j for a per-vertex vector x."""
        u, v, w = self.edge_u, self.edge_v, self.edge_w
        total = (np.bincount(u, weights=w * x[v], minlength=self.n)
                 + np.bincount(v, weights=w * x[u], minlength=self.n))
        return total.astype(float, copy=False)  # integer when there are no edges

    def induced_subgraph(self, vertices):
        """Subgraph on the given vertices.

        Returns (subgraph, ids) where ids[new] is the original vertex id; new
        ids follow the sorted order of the old ones.
        """
        vs = np.unique(as_index_array(vertices, self.n))
        new_of = np.full(self.n, -1, dtype=np.int64)
        new_of[vs] = np.arange(vs.size)
        uu = new_of[self.edge_u]
        vv = new_of[self.edge_v]
        keep = (uu >= 0) & (vv >= 0)
        return Graph(vs.size, uu[keep], vv[keep], self.edge_w[keep]), _frozen(vs)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.num_edges})"


def cut_value(graph, subset):
    """Total weight of edges crossing (C, V\\C), each edge counted once."""
    idx = as_index_array(subset, graph.n)
    mask = np.zeros(graph.n, dtype=bool)
    mask[idx] = True
    cross = mask[graph.edge_u] ^ mask[graph.edge_v]
    return float(graph.edge_w[cross].sum())


def assoc_value(graph, subset):
    """Association of C: sum of w_ij over ordered pairs i, j in C.

    Equals twice the total weight of edges internal to C on a simple graph.
    """
    idx = as_index_array(subset, graph.n)
    mask = np.zeros(graph.n, dtype=bool)
    mask[idx] = True
    internal = mask[graph.edge_u] & mask[graph.edge_v]
    return 2.0 * float(graph.edge_w[internal].sum())


def volume(weights, subset):
    """Generalized volume: sum of per-vertex weights over C."""
    w = np.asarray(weights, dtype=np.float64)
    idx = as_index_array(subset, w.size)
    return float(w[idx].sum())


def restrict_ball(graph, seeds, radius, counts=None, min_count=0):
    """Induced subgraph on the hop-ball of the seed set, with a count filter.

    Keeps vertices within hop-distance ``radius`` of the seeds whose integer
    attribute (``counts``, e.g. a per-vertex publication count) is at least
    ``min_count``; seed vertices are always retained.  Distances are measured
    in the unfiltered graph.  Returns (subgraph, ids) with ids[new] = old.
    A nonzero ``min_count`` without ``counts`` raises ValueError.
    """
    seed_idx = np.unique(as_index_array(seeds, graph.n))
    if seed_idx.size == 0:
        raise ValueError("seed set must be non-empty")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if min_count and counts is None:
        raise ValueError("a minimum count needs per-vertex counts")
    keep = np.zeros(graph.n, dtype=bool)
    keep[seed_idx] = True
    # Every edge weight is positive, so a vertex has a neighbour in the
    # ball exactly when its neighbour sum over the ball is.
    for _ in range(int(radius)):
        grown = keep | (graph.neighbor_sum(keep) > 0)
        if np.array_equal(grown, keep):
            break
        keep = grown
    if counts is not None:
        cnt = np.asarray(counts).reshape(-1)
        if cnt.size != graph.n:
            raise ValueError(f"expected {graph.n} per-vertex counts")
        keep &= cnt >= min_count
    keep[seed_idx] = True
    sub, ids = graph.induced_subgraph(np.nonzero(keep)[0])
    if sub.n == 0:
        raise ValueError("restriction removed every vertex")
    return sub, ids


def coauthor_weights(publications):
    """Co-author graph from a list of publications (each a list of author ids).

    Two authors are linked with weight sum over shared publications of
    1/(number of distinct authors on that publication), so prolific many-author
    papers contribute less than close collaborations.  Returns (graph, ids)
    where ids[new] is the original author id, in order of first appearance.
    """
    index = {}
    totals = {}
    for pub in publications:
        uniq = list(dict.fromkeys(pub))
        if not uniq:
            raise GraphFormatError("publication without authors")
        for a in uniq:
            if a not in index:
                index[a] = len(index)
        share = 1.0 / len(uniq)
        ids = [index[a] for a in uniq]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                key = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
                totals[key] = totals.get(key, 0.0) + share
    us = [k[0] for k in totals]
    vs = [k[1] for k in totals]
    ws = list(totals.values())
    return Graph(len(index), us, vs, ws), list(index)


def data_lines(path):
    """(line number, whitespace-separated fields) of each line of a text
    file that is neither blank nor a '#' comment, numbered from 1."""
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            fields = raw.split()
            if fields and not fields[0].startswith("#"):
                yield ln, fields


def load_edge_list(path):
    """Read a whitespace-separated edge list ("u v" or "u v w" per line).

    Lines starting with '#' are ignored.  Duplicate (u, v) lines sum their
    weights; self-loops and negative weights are rejected with the offending
    line number.  Vertex ids are arbitrary integers and are compacted to
    0..n-1 in sorted order.  Returns (graph, ids) with ids[new] = original id.
    """
    totals = {}
    seen = set()
    for ln, parts in data_lines(path):
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"{path}:{ln}: expected 'u v' or 'u v w'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}:{ln}: vertex ids must be integers") from None
        if a == b:
            raise GraphFormatError(f"{path}:{ln}: self-loop on vertex {a}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{ln}: bad edge weight {parts[2]!r}") from None
            if not math.isfinite(w):
                raise GraphFormatError(f"{path}:{ln}: non-finite weight")
            if w < 0:
                raise GraphFormatError(f"{path}:{ln}: negative weight {w}")
        seen.add(a)
        seen.add(b)
        key = (a, b) if a < b else (b, a)
        totals[key] = totals.get(key, 0.0) + w
    ids = np.array(sorted(seen), dtype=np.int64)
    index = {int(x): i for i, x in enumerate(ids)}
    us = [index[a] for a, _ in totals]
    vs = [index[b] for _, b in totals]
    return Graph(len(ids), us, vs, list(totals.values())), _frozen(ids)


def save_edge_list(graph, path):
    """Write the canonical edge list, one "u v w" line per edge."""
    with open(path, "w") as fh:
        for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
            fh.write(f"{int(u)} {int(v)} {w:.17g}\n")


def load_vertex_weights(path, n=None):
    """Read one real per line (line k = vertex k); '#' comments allowed."""
    vals = []
    for ln, fields in data_lines(path):
        try:
            (field,) = fields
            vals.append(float(field))
        except ValueError:
            raise GraphFormatError(
                f"{path}:{ln}: bad weight {' '.join(fields)!r}") from None
    if n is not None and len(vals) != n:
        raise GraphFormatError(f"{path}: expected {n} weights, got {len(vals)}")
    return as_vertex_weights(vals, len(vals))
