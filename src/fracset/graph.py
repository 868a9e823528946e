"""Immutable weighted undirected graphs and their elementary set functions."""

from __future__ import annotations

import math
import warnings

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


_EDGE_ROWS = {2: np.dtype([("u", np.int64), ("v", np.int64)]),
              3: np.dtype([("u", np.int64), ("v", np.int64),
                           ("w", np.float64)])}


def _bulk_rows(path):
    """The edge lines of a text file parsed in one ``np.loadtxt`` pass.

    Records of int64 ``u``, ``v`` and, where the first data line has three
    fields, float64 ``w``.  Blank and '#' lines are dropped as
    ``data_lines`` drops them.  Returns None where the C reader cannot
    take the file as it stands (text that is not ASCII, a first line of
    another field count, a line with another count, a field it does not
    parse); the caller then walks the file by its per-line rules, which
    decide.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if not text.isascii():
        # numpy's integer reader takes some non-ASCII letters for digits
        # ('1\u01fe2' reads as 4722), so only ASCII text is left to it
        return None
    # the lines data_lines reads: open() has made '\r\n' and '\r' into '\n',
    # and str.splitlines would split at more characters
    lines = text.split("\n")
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    dtype = _EDGE_ROWS.get(len(next(filter(None, map(str.split, lines)), ())))
    if dtype is None:
        return None
    try:
        with warnings.catch_warnings():
            # numpy before 2.x reads an integer field such as '1.0', '1e3'
            # or one past int64 through a float, with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


_INT64 = range(-2**63, 2**63)


def _walk_edge_list(path):
    """(u, v, w) of every edge line in file order, by the per-line rules.

    These rules define a valid line; the first line that breaks one raises
    GraphFormatError with its line number.
    """
    us, vs, ws = [], [], []
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
        if a not in _INT64 or b not in _INT64:
            raise GraphFormatError(f"{path}:{ln}: vertex id out of range")
        us.append(a)
        vs.append(b)
        ws.append(w)
    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64))


def load_edge_list(path):
    """Read a whitespace-separated edge list ("u v" or "u v w" per line).

    Lines starting with '#' are ignored.  Duplicate (u, v) lines sum their
    weights in line order; self-loops, negative or non-finite weights and
    ids outside int64 are rejected with the offending line number.  Vertex
    ids are arbitrary integers and are compacted to 0..n-1 in sorted order.
    Returns (graph, ids) with ids[new] = original id.

    The file is parsed in one pass by numpy's C reader.  A file it does not
    take as it stands, or whose parsed lines break a rule, is walked line
    by line by the per-line rules, which read it as before or name its
    first bad line; either way a file means the same graph.
    """
    rows = _bulk_rows(path)
    if rows is not None:
        u, v = rows["u"], rows["v"]
        w = rows["w"] if "w" in rows.dtype.names else np.ones(u.size)
        # a self-loop or a weight the rules reject: the walk names its line
        if (u == v).any() or not 0 <= w.min() <= w.max() < np.inf:
            rows = None
    if rows is None:
        u, v, w = _walk_edge_list(path)
    ids, ends = np.unique(np.concatenate((u, v)), return_inverse=True)
    n = ids.size
    ends = ends.reshape(2, -1)
    ends.sort(axis=0)
    pairs, slot = np.unique(ends[0] * n + ends[1], return_inverse=True)
    # bincount adds each pair's weights in line order, as a running sum would
    totals = np.bincount(slot, weights=w, minlength=pairs.size)
    lo, hi = divmod(pairs, n)
    return Graph(n, lo, hi, totals), _frozen(ids)


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
            val = float(field)
        except ValueError:
            raise GraphFormatError(
                f"{path}:{ln}: bad weight {' '.join(fields)!r}") from None
        if not math.isfinite(val):
            raise GraphFormatError(f"{path}:{ln}: non-finite weight")
        vals.append(val)
    if n is not None and len(vals) != n:
        raise GraphFormatError(f"{path}: expected {n} weights, got {len(vals)}")
    return as_vertex_weights(vals, len(vals))
