"""Per-layer tracing from outside the package.

Each traced function is replaced, for the duration of a run, at the name
its caller looks up: a module global for functions, a class attribute for
``FlowNetwork`` methods.  Every call of a wrapped function records one span
(name, start, end, parent span, query id).  The three functions called once
per FISTA step or once per network arc (``simplex_project``,
``objective_value``, ``FlowNetwork.add_edge``) are counted and timed on
their parent span instead, which keeps a local-cut trace to thousands of
spans rather than millions.  Self times are derived from the spans.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["TARGETS", "Tracer", "layer_metrics"]

# (owner, attribute, aggregated on the parent span)
TARGETS = (
    ("fracset.ratiodca", "solve_inner", False),
    ("fracset.ratiodca", "optimal_threshold", False),
    ("fracset.ratiodca", "ratio_dca", False),
    ("fracset.ratiodca", "ratio_dca_multistart", False),
    ("fracset.inner", "simplex_project", True),
    ("fracset.inner", "lipschitz_estimate", False),
    ("fracset.inner", "objective_value", True),
    ("fracset.problems", "build_local_ncut", False),
    ("fracset.problems", "build_max_density", False),
    ("fracset.problems", "greedy_subgradient", False),
    ("fracset.constraints", "truncated_volume_subgradient", False),
    ("fracset.maxflow:FlowNetwork", "max_flow", False),
    ("fracset.maxflow:FlowNetwork", "min_cut_source_side", False),
    ("fracset.maxflow:FlowNetwork", "add_edge", True),
)

# Span fields, kept as lists for low overhead.
ID, NAME, START, END, PARENT, QUERY, INFO = range(7)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans in memory; ``installed()`` wraps and restores TARGETS."""

    def __init__(self):
        self.spans = []
        self.query = -1
        self._stack = []

    def _open(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][ID] if self._stack else -1, self.query, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Root span the benchmark opens around one public call."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn, aggregate):
        tracer = self
        if aggregate:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    if tracer._stack:
                        leaf = tracer._stack[-1][INFO].setdefault(name, [0, 0.0])
                        leaf[0] += 1
                        leaf[1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO]["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if name in ("solve_inner", "ratio_dca"):
                span[INFO]["iterations"] = int(result.iterations)
                span[INFO]["converged"] = bool(result.converged)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target; restore the original objects on exit."""
        saved = []
        try:
            for path, attr, aggregate in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(attr, original, aggregate))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON document."""
        fields = ["id", "name", "start", "end", "parent", "query", "info"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _self_times(spans):
    """Per-span duration minus direct children and aggregated leaf calls."""
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
        for val in s[INFO].values():
            if isinstance(val, list):
                child[s[ID]] += val[1]
    return dur, dur - child


def layer_metrics(spans, roots):
    """Per-layer numbers from a finished trace.

    ``roots`` names the spans the benchmark opened around public calls.
    """
    dur, self_s = _self_times(spans)

    def pick(*names):
        return [s[ID] for s in spans if s[NAME] in names]

    def total(ids, arr=dur):
        return float(arr[ids].sum()) if ids else 0.0

    def leaf(name):
        calls, secs = 0, 0.0
        for s in spans:
            c, t = s[INFO].get(name, (0, 0.0))
            calls += c
            secs += t
        return calls, secs

    root = pick(*roots)
    solve_s = total(root)
    inner = pick("solve_inner")
    iters = [spans[i][INFO]["iterations"] for i in inner
             if "iterations" in spans[i][INFO]]
    dca = pick("ratio_dca")
    multistart = pick("ratio_dca_multistart")
    outer = sum(spans[i][INFO].get("iterations", 0) for i in dca)
    lips = pick("lipschitz_estimate")
    sweeps = pick("optimal_threshold")
    builds = pick("build_local_ncut", "build_max_density")
    greedy = pick("greedy_subgradient")
    trunc = pick("truncated_volume_subgradient")
    flows = pick("max_flow")
    cuts = pick("min_cut_source_side")
    dinkelbach = pick("dinkelbach_max_density")
    simplex = leaf("simplex_project")
    objective = leaf("objective_value")
    arcs = leaf("add_edge")
    inner_s = total(inner)

    def share(x):
        return x / solve_s if solve_s > 0 else 0.0

    return {
        "inner.solves": (len(inner), "count"),
        "inner.s": (inner_s, "s"),
        "inner.self_s": (total(inner, self_s), "s"),
        "inner.iterations": (int(sum(iters)), "count"),
        "inner.iters_p50": (float(np.percentile(iters, 50)) if iters else 0.0, "count"),
        "inner.iters_p90": (float(np.percentile(iters, 90)) if iters else 0.0, "count"),
        "inner.nonconverged": (sum(not spans[i][INFO].get("converged", True)
                                   for i in inner), "count"),
        "inner.iters_per_s": (sum(iters) / inner_s if inner_s > 0 else 0.0, "1/s"),
        "inner.simplex_calls": (simplex[0], "count"),
        "inner.simplex_s": (simplex[1], "s"),
        "inner.lipschitz_calls": (len(lips), "count"),
        "inner.lipschitz_s": (total(lips), "s"),
        "inner.objective_calls": (objective[0], "count"),
        "inner.objective_s": (objective[1], "s"),
        "inner.share": (share(inner_s), "fraction"),
        "ratiodca.gamma_rounds": (len(multistart), "count"),
        "ratiodca.starts": (len(dca), "count"),
        "ratiodca.failed_starts": (sum("error" in spans[i][INFO] for i in dca), "count"),
        "ratiodca.outer_steps": (outer, "count"),
        "ratiodca.useful_inner_ratio": (outer / len(inner) if inner else 0.0, "fraction"),
        "ratiodca.self_s": (total(multistart + dca, self_s), "s"),
        "problems.build_calls": (len(builds), "count"),
        "problems.build_s": (total(builds), "s"),
        "problems.dinkelbach_self_s": (total(dinkelbach, self_s), "s"),
        "lovasz.sweeps": (len(sweeps), "count"),
        "lovasz.sweep_s": (total(sweeps), "s"),
        "lovasz.sweep_share": (share(total(sweeps)), "fraction"),
        "lovasz.subgradient_calls": (len(greedy), "count"),
        "lovasz.subgradient_s": (total(greedy), "s"),
        "constraints.subgradient_calls": (len(trunc), "count"),
        "constraints.subgradient_s": (total(trunc), "s"),
        "maxflow.max_flow_calls": (len(flows), "count"),
        "maxflow.max_flow_s": (total(flows), "s"),
        "maxflow.max_flow_share": (share(total(flows)), "fraction"),
        "maxflow.min_cut_s": (total(cuts), "s"),
        "maxflow.arcs": (2 * arcs[0], "count"),
        "bench.traced_solve_s": (solve_s, "s"),
    }
