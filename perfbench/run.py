"""fracset solver benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload local-cut --seed 0 --seconds 34 --trace 0

Run from the repository root.  The benchmark imports fracset from ``src/``
of the checkout it sits in, builds the workload's inputs from ``--seed``
(set-up is repeated at least SETUP_REPEATS times and for at least
SETUP_SECONDS of CPU time, and timed), then sends the fixed query list
through the public API one query at a time.  The first pass over the list
is the quality pass: it always runs to the end, and its checked answers
are the run's result (``attempted`` is the number of queries).  While
``--seconds`` of wall time are left, the checked queries are solved again
with the same configuration, which repeats the same work and only adds
time samples.  Every time is corrected for the host's speed (hostclock.py)
and time metrics are taken over each query's median time, so every run
weighs the same queries equally however many repeats it reached.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the quality
pass once untraced and once traced, prints the per-layer metrics and writes
the spans to ``perfbench/out/``.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solves_per_s": ("1/s", "higher"),
    "solve_s_p50": ("s", "lower"),
    "solve_s_p90": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "value_gmean": ("ratio", "lower"),
    "hit_rate": ("fraction", "higher"),
    "feasible_rate": ("fraction", "higher"),
}


def import_fracset():
    """Import fracset from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fracset" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fracset sources under {src}")
    sys.path.insert(0, str(src))
    import fracset
    if Path(fracset.__file__).resolve().parent != (src / "fracset").resolve():
        sys.exit(f"perfbench: imported fracset from {fracset.__file__}, not {src}")
    return fracset


def environment(np):
    """Machine and library facts stored with every result."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_setup(fs, workload, seed, clock):
    """Identical set-ups, at least SETUP_REPEATS of them and SETUP_SECONDS of
    CPU time in all; returns (last setup, median corrected seconds)."""
    graphs = OUT / "graphs" / workload.name
    graphs.mkdir(parents=True, exist_ok=True)
    raw, times = [], []
    while len(times) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
        setup, cpu, seconds = clock.call(lambda: workload.setup(fs, seed, graphs))
        raw.append(cpu)
        times.append(seconds)
    return setup, statistics.median(times)


# workloads and tracer import numpy, so they are imported inside functions,
# after main() has set the thread variables.


def solve_checked(fs, q, clock=None, tracer=None, query=-1):
    """One public call and its checked answer.

    With a ``clock``, the record holds the call's corrected time
    (``times``) and its raw process CPU time (``cpu``).
    """
    from workloads import API_CALL, evaluate, is_hit, solve
    rec = {"query": query, "problems": []}
    try:
        if tracer is not None:
            tracer.query = query
            with tracer.span(API_CALL[q.kind]):
                members, value = solve(fs, q)
        elif clock is not None:
            (members, value), cpu, seconds = clock.call(lambda: solve(fs, q))
            rec.update(times=[seconds], cpu=[cpu])
        else:
            members, value = solve(fs, q)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        rec["raised"] = True
        return rec, None
    _, feasible, problems = evaluate(q, members, value)
    rec.update(value=float(value), feasible=bool(feasible),
               hit=bool(is_hit(q, value)), problems=problems,
               relative=float(value / q.reference) if q.exact else None)
    return rec, sorted(int(m) for m in members)


def quality_pass(fs, queries, clock=None, tracer=None):
    """Send every query once, in order; returns (records, answers)."""
    records, answers = [], []
    for i, q in enumerate(queries):
        rec, members = solve_checked(fs, q, clock, tracer, i)
        records.append(rec)
        answers.append(members)
    return records, answers


def repeat_pass(fs, queries, records, answers, deadline, clock):
    """Solve the checked queries again, in order; False once ``deadline`` passed.

    The solver is deterministic for a fixed configuration, so a repeat does
    the same work as the quality pass and only adds a time sample.  A repeat
    whose answer differs from the first is recorded as a problem of that
    query.  Queries that failed a check are not repeated.
    """
    todo = [i for i, r in enumerate(records) if not r["problems"]]
    for i in todo:
        if time.perf_counter() >= deadline:
            return False
        rec, members = solve_checked(fs, queries[i], clock, query=i)
        if members != answers[i] or rec.get("value") != records[i]["value"]:
            records[i]["problems"].append(
                f"repeat returned {rec.get('value')!r} on {members}, "
                f"first {records[i]['value']!r} on {answers[i]}")
            return False
        records[i]["times"] += rec["times"]
        records[i]["cpu"] += rec["cpu"]
    return bool(todo)


def traced_run(fs, setup):
    """Quality pass untraced, then again traced; returns (per-layer metrics,
    tracer, records of the traced pass).

    Both passes do identical work, so their wall-time difference is the
    tracing overhead.
    """
    from tracer import Tracer, layer_metrics
    from workloads import API_CALL
    t0 = time.perf_counter()
    quality_pass(fs, setup.queries)
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        records, _ = quality_pass(fs, setup.queries, tracer=tracer)
    traced = time.perf_counter() - t0
    metrics = layer_metrics(tracer.spans, set(API_CALL.values()))
    metrics["graph.load_s"] = (setup.load_s, "s")
    metrics["baselines.oracle_s"] = (setup.oracle_s, "s")
    metrics["bench.trace_overhead_s"] = (traced - untraced, "s")
    return metrics, tracer, records


def query_seconds(np, records):
    """Median solve time of each query that passed every check.

    Every such query has at least its quality-pass sample, so a repeat pass
    cut short by the deadline changes how often a query was timed, never
    which queries the time metrics are taken over.  Failed queries are
    counted in ``failed`` and ``feasible_rate``, not timed: a solve that
    raises can run for many times the usual solve time first.
    """
    return np.array([np.median(r["times"]) for r in records if not r["problems"]])


def end_to_end(np, records, setup_s):
    """End-to-end metrics of an untraced run, one record per query."""
    times = query_seconds(np, records)
    # Desk-batch values are divided by their brute-force optimum; raw values
    # of random 6-8 vertex instances span orders of magnitude.
    values = np.array([r["value"] if r["relative"] is None else r["relative"]
                       for r in records if "value" in r])
    values = values[np.isfinite(values) & (values > 0)]
    return {
        "setup_s": setup_s,
        # One pass at each query's median time, scaled by the share of
        # queries that passed every check.
        "solves_per_s": times.size / len(records) * times.size / times.sum(),
        "solve_s_p50": float(np.percentile(times, 50)),
        "solve_s_p90": float(np.percentile(times, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "value_gmean": float(np.exp(np.log(values).mean())) if values.size else float("nan"),
        "hit_rate": sum(r.get("hit", False) for r in records) / len(records),
        "feasible_rate": sum(r.get("feasible", False) for r in records) / len(records),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The solver runs single-threaded; keep numpy's BLAS pool at one thread
    # too, which never exceeds nproc.  Must happen before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    fs = import_fracset()
    import numpy as np
    from hostclock import PROBE_REF_S, HostClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(np)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    clock = HostClock()
    setup, setup_s = run_setup(fs, workload, args.seed, clock)
    queries = setup.queries
    print(f"workload {workload.name}: seed {args.seed}, {len(queries)} queries, "
          f"closed loop, 1 client, threads=1")

    if args.trace:
        metrics, tracer, records = traced_run(fs, setup)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
    else:
        deadline = time.perf_counter() + args.seconds
        records, answers = quality_pass(fs, queries, clock)
        while repeat_pass(fs, queries, records, answers, deadline, clock):
            pass
        metrics = {k: (v, END_TO_END[k][0]) for k, v in
                   end_to_end(np, records, setup_s).items()}
        cpu = np.array([np.median(r["cpu"]) for r in records if not r["problems"]])
        print(f"host: probe unit median {np.median(clock.units) * 1e3:.3f} ms "
              f"(reference {PROBE_REF_S * 1e3:.3f} ms), probing "
              f"{clock.probe_s:.2f} s CPU; raw CPU solve_s_p50 "
              f"{np.percentile(cpu, 50):.6g} s, p90 {np.percentile(cpu, 90):.6g} s")

    failed = [r for r in records if r["problems"]]
    metrics["error_rate"] = (len(failed) / len(records), "fraction")
    for r in failed:
        print(f"FAILED query {r['query']}: {'; '.join(r['problems'])}")
    timed = sum(len(r.get("times", ())) for r in records)
    print(f"queries: {len(records)} attempted, {len(failed)} failed"
          + ("" if args.trace else f"; {timed} timed solves"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    if not args.trace:
        # error_rate is 0 on a healthy run, so it travels as "failed" in the
        # result line rather than as a bounded end-to-end metric.
        del metrics["error_rate"]
    result = {
        "correct": not any(not r.get("raised") for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "env": env, "workload": workload.name,
                   "seed": args.seed, "seconds": args.seconds,
                   "probe_units": clock.units, "records": records}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
