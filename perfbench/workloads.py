"""Seeded workload generators, query lists and independent output checks.

Every input is a pure function of the workload seed.  Graphs are generated
as plain edge arrays, written as edge-list files and read back through
``fracset.load_edge_list``, so the solver only ever sees the generated
inputs.  Answers are checked against the generator's own arrays with plain
numpy, never with fracset's evaluators.

Sizes are chosen so that one quality pass of a measured workload takes
about 25 s at reference speed (see hostclock.py) with the solver as first
benchmarked: long enough that one run holds 40-312 independent instances,
short enough that the full benchmark fits its time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["MEASURED", "WORKLOADS", "Query", "Setup", "evaluate", "set_value", "solve"]

REL_TOL = 1e-9


@dataclass
class Query:
    """One call into the public API, plus what is needed to check its answer.

    ``edges`` holds the generator's arrays (n, u, v, w) in generator ids;
    ``graph`` and ``ids`` are what ``load_edge_list`` returned for them.
    ``seed`` is a generator id.  ``bound`` is the upper volume bound: degree
    volume for "ncut", cardinality for "density".  ``reference`` is the value
    a hit must reach: the brute-force optimum when ``exact``, otherwise a
    feasible set the generator knows, which the answer must match or beat.
    """

    kind: str                      # "ncut" | "density" | "global"
    graph: object
    ids: np.ndarray
    edges: tuple
    seed: int | None = None
    bound: float | None = None
    g: np.ndarray | None = None    # vertex weights of the global density
    inits: int = 2
    reference: float = np.inf
    exact: bool = False


@dataclass
class Setup:
    queries: list
    load_s: float = 0.0            # time inside fracset.load_edge_list
    oracle_s: float = 0.0          # time inside fracset.brute_force


# ---------------------------------------------------------------------------
# Independent evaluation


def _parts(kind, edges, members, g=None):
    """(numerator, denominator) of the minimization-form value, plain numpy.

    ncut: cut(C) and vol_d(C) vol_d(V \\ C); density and global: vol_g(C)
    and assoc(C), g all-ones unless given.
    """
    n, u, v, w = edges
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(members, dtype=np.int64)] = True
    if kind == "ncut":
        deg = _degrees(edges)
        vol = deg[mask].sum()
        return float(w[mask[u] != mask[v]].sum()), float(vol * (deg.sum() - vol))
    num = mask.sum() if g is None else g[mask].sum()
    return float(num), float(2.0 * w[mask[u] & mask[v]].sum())


def set_value(kind, edges, members, g=None):
    """Value of ``members`` (generator ids); inf when the denominator is not positive."""
    num, den = _parts(kind, edges, members, g)
    return num / den if den > 0 else np.inf


def _volume(q, members):
    if q.kind == "ncut":
        return float(_degrees(q.edges)[members].sum())
    return float(len(members))


def evaluate(q, members, value):
    """Check one answer; returns (recomputed value, feasible, problems).

    ``problems`` lists every failed check: a non-finite value, a value that
    differs from the recomputed one by more than 1e-9 relative, a missing
    seed, a violated volume bound, or (when the reference is exact) a value
    below the oracle optimum.
    """
    members = np.unique(np.asarray(members, dtype=np.int64))
    problems = []
    if members.size == 0:
        return np.inf, False, ["empty set"]
    true = set_value(q.kind, q.edges, members, q.g)
    if not np.isfinite(value):
        problems.append(f"non-finite value {value!r}")
    elif not abs(value - true) <= REL_TOL * abs(true):
        problems.append(f"value {value!r} != recomputed {true!r}")
    if q.seed is not None and q.seed not in members:
        problems.append(f"seed {q.seed} missing from the set")
    feasible = True
    if q.bound is not None:
        vol = _volume(q, members)
        feasible = vol <= q.bound * (1.0 + 1e-12)
        if not feasible:
            problems.append(f"volume {vol!r} exceeds the bound {q.bound!r}")
    if q.exact and value < q.reference - 1e-9:
        problems.append(f"value {value!r} below the optimum {q.reference!r}")
    return true, feasible, problems


def is_hit(q, value):
    """Within 1e-9 of the optimum (exact reference) or no worse than the reference."""
    if q.exact:
        return abs(value - q.reference) < 1e-9
    return value <= q.reference + REL_TOL * abs(q.reference)


# ---------------------------------------------------------------------------
# Calls into the public API


def solve(fs, q):
    """Run one query; returns (members in generator ids, reported value).

    The configuration is fixed, so solving a query again repeats its work.
    """
    if q.kind == "global":
        members, value = fs.dinkelbach_max_density(
            q.graph, None if q.g is None else q.g[q.ids])
        return q.ids[members], value
    local = int(np.searchsorted(q.ids, q.seed))
    cfg = fs.SolverConfig(initializations=q.inits)
    if q.kind == "ncut":
        sol = fs.solve_local_ncut(
            q.graph, fs.NCutProblemSpec(seed=(local,), bound=q.bound), cfg)
    else:
        sol = fs.solve_max_density(
            q.graph, fs.DensityProblemSpec(seed=(local,), upper=q.bound), cfg)
    return q.ids[sol.set_ids], sol.value


API_CALL = {"ncut": "solve_local_ncut", "density": "solve_max_density",
            "global": "dinkelbach_max_density"}


# ---------------------------------------------------------------------------
# Generators


def _canonical(n, u, v):
    """Drop self-loops and duplicate pairs; returns (lo, hi) with lo < hi."""
    keep = u != v
    key = np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    return key // n, key % n


def connected(n, u, v):
    """True when every vertex is reachable from vertex 0."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        if np.array_equal(new, label):
            return bool(np.all(label == 0))
        label = new


def sbm(rng, blocks, size, p_in, p_out):
    """Connected unit-weight stochastic block model; returns (edges, block).

    With one block this is a connected G(n, p).
    """
    n = blocks * size
    block = np.repeat(np.arange(blocks), size)
    iu, iv = np.triu_indices(n, 1)
    p = np.where(block[iu] == block[iv], p_in, p_out)
    while True:
        keep = rng.random(iu.size) < p
        if connected(n, iu[keep], iv[keep]):
            return (n, iu[keep], iv[keep], np.ones(int(keep.sum()))), block


def planted(rng, n, avg_degree, community, p_in):
    """Sparse uniform background plus one dense community; U[0.5, 1.5] weights."""
    m = n * avg_degree // 2
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    comm = np.sort(rng.choice(n, community, replace=False))
    iu, iv = np.triu_indices(community, 1)
    keep = rng.random(iu.size) < p_in
    lo, hi = _canonical(n, np.concatenate([u, comm[iu[keep]]]),
                        np.concatenate([v, comm[iv[keep]]]))
    return (n, lo, hi, rng.uniform(0.5, 1.5, lo.size)), comm


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def write_and_load(fs, workdir, name, edges, setup):
    """Write an edge list, read it back with fracset; adds the read time."""
    n, u, v, w = edges
    path = Path(workdir) / f"{name}.txt"
    path.write_text("".join(f"{a} {b} {c!r}\n" for a, b, c in
                            zip(u.tolist(), v.tolist(), w.tolist())))
    t0 = time.perf_counter()
    graph, ids = fs.load_edge_list(str(path))
    setup.load_s += time.perf_counter() - t0
    return graph, ids


def _degrees(edges):
    n, u, v, w = edges
    return np.bincount(u, weights=w, minlength=n) + np.bincount(
        v, weights=w, minlength=n)


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class LocalCut:
    """Seeded local balanced cut, each query on its own 4-block SBM.

    Blocks are cliques joined by sparse random edges, so queries differ in
    their cross edges and seed only.  The seed is a random vertex of block
    ``i mod 4``.  The bound is 0.9
    times the volume of the seed's block, so the planted block itself is
    infeasible and every query goes through the gamma schedule.  One graph
    per query keeps queries independent, so a run's median averages over
    many instances rather than a few graphs.
    """

    name: str = "local-cut"
    queries: int = 40
    blocks: int = 4
    block_size: int = 4
    p_in: float = 1.0
    p_out: float = 0.05
    bound_share: float = 0.9
    inits: int = 2

    def setup(self, fs, seed, workdir):
        rng = _rng(seed, 1)
        out = Setup([])
        for i in range(self.queries):
            edges, block = sbm(rng, self.blocks, self.block_size,
                               self.p_in, self.p_out)
            graph, ids = write_and_load(fs, workdir, f"lc{i}", edges, out)
            members = np.nonzero(block == i % self.blocks)[0]
            s = int(rng.choice(members))
            out.queries.append(Query(
                "ncut", graph, ids, edges, seed=s,
                bound=self.bound_share * float(_degrees(edges)[members].sum()),
                inits=self.inits, reference=set_value("ncut", edges, [s])))
        return out


@dataclass(frozen=True)
class Density:
    """Seeded max-density with a cardinality bound below the planted community.

    The community (40 vertices) is larger than the bound (30), so every
    query needs the penalty schedule.  Each query has its own graph; the
    seed alternates between inside and outside the community.  The
    reference is the seed with its heaviest neighbour, a feasible set every
    answer must match or beat.
    """

    name: str = "density"
    queries: int = 12
    n: int = 1000
    avg_degree: int = 8
    community: int = 40
    p_in: float = 0.4
    upper: float = 30.0
    inits: int = 2

    def setup(self, fs, seed, workdir):
        rng = _rng(seed, 2)
        out = Setup([])
        for i in range(self.queries):
            edges, comm = planted(rng, self.n, self.avg_degree,
                                  self.community, self.p_in)
            graph, ids = write_and_load(fs, workdir, f"de{i}", edges, out)
            n, u, v, w = edges
            pool = np.zeros(n, dtype=bool)
            pool[comm] = True
            if i % 2:
                pool = ~pool
            s = int(rng.choice(np.nonzero(pool & (_degrees(edges) > 0))[0]))
            heaviest = float(np.concatenate([w[u == s], w[v == s]]).max())
            out.queries.append(Query(
                "density", graph, ids, edges, seed=s, bound=self.upper,
                inits=self.inits, reference=1.0 / heaviest))
        return out


@dataclass(frozen=True)
class GlobalDensity:
    """Unconstrained max-density (Dinkelbach + push-relabel), no FISTA at all.

    Each graph is solved twice: with unit vertex weights and with seeded
    U[0.5, 1.5] weights.  The reference is the planted community, which the
    exact optimum must match or beat.
    """

    name: str = "global-density"
    queries: int = 56
    n: int = 2000
    avg_degree: int = 8
    community: int = 40
    p_in: float = 0.4

    def setup(self, fs, seed, workdir):
        rng = _rng(seed, 3)
        out = Setup([])
        for i in range(self.queries):
            if i % 2 == 0:
                edges, comm = planted(rng, self.n, self.avg_degree,
                                      self.community, self.p_in)
                graph, ids = write_and_load(fs, workdir, f"gd{i}", edges, out)
                g = None
            else:
                g = rng.uniform(0.5, 1.5, self.n)
            out.queries.append(Query(
                "global", graph, ids, edges, g=g,
                reference=set_value("global", edges, comm, g)))
        return out


class _Bound:
    """Upper volume bound for the oracle, independent of fracset.constraints."""

    def __init__(self, weights, bound):
        self.weights, self.bound = weights, bound

    def satisfied(self, subset):
        return float(self.weights[subset].sum()) <= self.bound


@dataclass(frozen=True)
class DeskBatch:
    """Tiny connected ER instances, alternating local cut and density.

    Sizes cycle through n_min..n_max, so every seed has the same number of
    instances of each kind and size; solve time grows steeply with n on the
    local cuts, and a random mix of sizes would move the time percentiles
    from seed to seed.  Each instance carries its brute-force optimum,
    computed during set-up.  An instance without any feasible set is not a
    query and is redrawn at the same size.
    """

    name: str = "desk-batch"
    queries: int = 312
    n_min: int = 6
    n_max: int = 8
    p: float = 0.4
    inits: int = 2

    def setup(self, fs, seed, workdir):
        rng = _rng(seed, 4)
        out = Setup([])
        while len(out.queries) < self.queries:
            kind = "density" if len(out.queries) % 2 else "ncut"
            n = self.n_min + len(out.queries) // 2 % (self.n_max - self.n_min + 1)
            edges, _ = sbm(rng, 1, n, self.p, self.p)
            deg = _degrees(edges)
            s = int(rng.integers(0, n))
            if kind == "density":
                bound = float(rng.integers(2, max(3, n // 2) + 1))
                weights = np.ones(n)
            else:
                bound = float(deg[s] + rng.uniform(0.2, 0.6) * (deg.sum() - deg[s]))
                weights = deg
            t0 = time.perf_counter()
            # brute_force reads only the vertex count of its graph argument.
            oracle = fs.brute_force(
                SimpleNamespace(n=n), lambda C: _parts(kind, edges, C)[0],
                lambda C: _parts(kind, edges, C)[1],
                constraints=[_Bound(weights, bound)], seed=(s,))
            out.oracle_s += time.perf_counter() - t0
            if oracle.best_set is None:
                continue
            graph, ids = write_and_load(
                fs, workdir, f"dk{len(out.queries)}", edges, out)
            out.queries.append(Query(
                kind, graph, ids, edges, seed=s, bound=bound, inits=self.inits,
                reference=float(oracle.best_value), exact=True))
        return out


WORKLOADS = {w.name: w for w in (LocalCut(), Density(), GlobalDensity(),
                                 DeskBatch())}
# The workloads BENCHMARK.json lists.  density runs by hand only: four
# workloads do not fit the benchmark's time budget at run lengths that
# keep their spread within the bounds.
MEASURED = ("local-cut", "global-density", "desk-batch")
