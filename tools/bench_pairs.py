"""Alternating parent/change pairs of the benchmark, written to BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload local-cut --seed 313 --parent HEAD
    python3 tools/bench_pairs.py --workload global-density --seed 313 \
        --metric setup_s

Run from the repository root.  The change is the working tree as it stands
(tracked and untracked files, less what .gitignore lists); the parent is the
given revision.  Each side is exported with ``git archive`` into a temporary
directory (set TMPDIR to choose where), so neither runs in the repository
itself and both start without a ``perfbench/out``.  Each run is one
``perfbench/run.py --trace 0`` process in its side's checkout.  One such run
per side, parent first, warms its checkout up before pair 1 (it writes the
checkout's graph files and bytecode) and is left out of the record.  Pair i
then runs the parent first when i is odd and the change first when it is
even, so over the pair count, which must be even (``--pairs``), each side
runs first equally often.  After the pairs, ``TRACE_PASSES`` ``--trace 1``
runs per side, the parent first in odd passes and the change first in even
ones, give the per-layer metrics: the record keeps each one's median over a
side's passes, and whether every count read the same in each pass.
For every end-to-end metric the record also keeps the run-order effect,
the median over pairs of (first run - second run) / second run, and the
closing line prints it for the claimed metric: a set-up claim can then be
read next to the bias of running first.  It reads that bias directly when
both sides read alike, as in a run of one tree against itself; where the
change moves the metric, the pairs split into two groups by which side ran
first, and the median falls between them.

The verdict follows the benchmark's rule for claiming a gain on the claimed
metric (``--metric``, any end-to-end metric of BENCHMARK.json, solves_per_s
by default; its ``better`` gives the direction): at least ten pairs ran, the
change wins at least nine tenths of them (ties count for neither), the gap
between the medians exceeds the parent's interquartile range, no more
queries fail than at the parent, and no end-to-end metric is worse than at
the parent by more than the bound BENCHMARK.json fixes for it.  A metric
whose parent runs spread wider than its bound (interquartile range over
median) is listed as unresolved, not as unchanged, unless every change run
beats every parent run.  The record goes to BENCH_<workload>.json in the
repository only when the claim is met; otherwise it goes to the temporary
directory, and the closing line prints its path.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# A traced pass is wall time: passes of one tree spread about +-30% on a
# 2-core VM, so the per-layer metrics are medians over this many passes.
TRACE_PASSES = 5


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The files of ``rev`` under ``dest``, without any git metadata."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    Path(dest).mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree(tmp):
    """Tree id of the working tree as it stands, through a throwaway index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def checkouts(tmp, parent):
    """Fresh exports of ``parent`` and of the working tree under ``tmp``.

    Returns ({"parent": dir, "change": dir}, the working tree's tree id).
    """
    tree = working_tree(tmp)
    dirs = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
    export(parent, dirs["parent"])
    export(tree, dirs["change"])
    return dirs, tree


def run_bench(checkout, workload, seed, seconds, trace):
    """One benchmark process; returns (result line, environment record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    saved = Path(checkout, "perfbench", "out",
                 f"result-{workload}-seed{seed}-trace{trace}.json")
    return result, json.loads(saved.read_text())["env"]


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def relative(a, b):
    """(a - b) / b, or 0.0 when b is 0."""
    return (a - b) / b if b else 0.0


def summarize(runs, end_to_end):
    """Per-metric medians, quartiles, pair wins, the bound check, whether
    the parent's spread leaves the metric unresolved, and the run-order
    effect: the median over pairs of (first run - second run) / second run,
    whichever side ran first."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        par = [r["metrics"][name] for r in runs["parent"]]
        chg = [r["metrics"][name] for r in runs["change"]]
        p, c = quartiles(par), quartiles(chg)
        rel = relative(c["median"], p["median"])
        first_vs_second = [relative(a, b) if r["ran_first"] else relative(b, a)
                           for r, a, b in zip(runs["parent"], par, chg)]
        summary[name] = {
            "parent": p,
            "change": c,
            "change_vs_parent": rel,
            "pairs_change_better": sum(sign * (b - a) > 0 for a, b in zip(par, chg)),
            "pairs_change_worse": sum(sign * (b - a) < 0 for a, b in zip(par, chg)),
            "worse_by_more_than_bound": -sign * rel > spec["bound"],
            "unresolved": bool(
                p["q3"] - p["q1"] > spec["bound"] * abs(p["median"])
                and not min(sign * b for b in chg) > max(sign * a for a in par)),
            "first_vs_second": float(np.median(first_vs_second)),
        }
    return summary


def trace_summary(passes, counts):
    """Each metric's median over a side's traced passes (metric name to
    value dicts), and whether every metric named in ``counts`` read the
    same in each pass."""
    medians = {name: float(np.median([p[name] for p in passes]))
               for name in passes[0]}
    same = all(len({p[name] for p in passes}) == 1
               for name in passes[0] if name in counts)
    return medians, same


def verdict(summary, runs, metric, better):
    """The gain rule of the benchmark applied to ``metric``."""
    s = summary[metric]
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (s["change"]["median"] - s["parent"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    pairs = len(runs["parent"])
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    worse = sorted(name for name, m in summary.items()
                   if m["worse_by_more_than_bound"])
    return {
        "pairs_won": s["pairs_change_better"],
        "median_gap": gap,
        "parent_iqr": iqr,
        "failed_parent": failed["parent"],
        "failed_change": failed["change"],
        "metrics_worse": worse,
        "unresolved": sorted(name for name, m in summary.items()
                             if m["unresolved"]),
        "claim_met": bool(pairs >= 10 and s["pairs_change_better"] >= 0.9 * pairs
                          and gap > iqr and failed["change"] <= failed["parent"]
                          and not worse),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD", help="revision of the parent")
    ap.add_argument("--metric", default="solves_per_s",
                    help="the end-to-end metric the change claims")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {spec["name"]: spec["better"]
              for spec in bench["end_to_end"]}.get(args.metric)
    if better is None:
        ap.error(f"--metric {args.metric} is no end-to-end metric of "
                 "BENCHMARK.json")
    if args.pairs <= 0 or args.pairs % 2:
        ap.error(f"--pairs {args.pairs} is not a positive even count: only "
                 "even counts give each side as many first runs")
    runs = {"parent": [], "change": []}
    envs = {}
    with tempfile.TemporaryDirectory() as tmp:
        dirs, change_tree = checkouts(tmp, args.parent)
        for side in ("parent", "change"):
            run_bench(dirs[side], args.workload, args.seed, seconds, 0)
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, envs[side] = run_bench(dirs[side], args.workload,
                                               args.seed, seconds, 0)
                runs[side].append({
                    "pair": pair, "ran_first": side == order[0],
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                print(f"pair {pair} {side}: {args.metric} = "
                      f"{runs[side][-1]['metrics'][args.metric]:.6g}, "
                      f"failed {result['failed']}", flush=True)
        passes = {"parent": [], "change": []}
        for k in range(1, TRACE_PASSES + 1):
            for side in (("parent", "change") if k % 2
                         else ("change", "parent")):
                result = run_bench(dirs[side], args.workload, args.seed, 5, 1)[0]
                passes[side].append({name: m["value"] for name, m
                                     in result["metrics"].items()})

    summary = summarize(runs, bench["end_to_end"])
    counts = {spec["name"] for spec in bench["per_layer"]
              if spec["unit"] == "count"}
    traced = {side: trace_summary(passes[side], counts) for side in passes}
    command = (f"python3 perfbench/run.py --workload {args.workload} "
               f"--seed {args.seed} --seconds {seconds:g} --trace 0")
    record = {
        "label": args.workload,
        "claim": (f"{args.metric} on {args.workload}: the change's median is "
                  f"{better}, it wins at least nine tenths of the pairs, and the "
                  "gap between medians exceeds the parent's interquartile spread"),
        "command": command,
        "seed": args.seed,
        "seconds": float(seconds),
        "pairs": args.pairs,
        "method": ("one discarded warm-up run per side, then alternating "
                   "pairs: the parent ran first in odd pairs, the "
                   "change in even pairs; each run in its own checkout and "
                   "process; medians and quartiles by numpy.percentile (linear "
                   "interpolation) over the runs of one side; made by "
                   "tools/bench_pairs.py"),
        "host": envs["change"],
        "parent": {"commit": git("rev-parse", f"{args.parent}^{{commit}}"),
                   "src_tree": git("rev-parse", f"{args.parent}:src")},
        "change": {"commit": "the commit that adds this file (child of the parent)",
                   "src_tree": git("rev-parse", f"{change_tree}:src")},
        "verdict": verdict(summary, runs, args.metric, better),
        "trace": {
            "command": (f"python3 perfbench/run.py --workload {args.workload} "
                        f"--seed {args.seed} --seconds 5 --trace 1"),
            "passes": TRACE_PASSES,
            "note": ("per-layer metrics: each one's median over the traced "
                     "passes of a side, the parent first in odd passes and "
                     "the change first in even ones; wall time, not "
                     "host-corrected"),
            **{side: traced[side][0] for side in traced},
            "counts_same_in_every_pass": {side: traced[side][1]
                                          for side in traced},
        },
        "summary": summary,
        "runs": runs,
    }
    # a run that claims nothing keeps the committed record of a claim
    out = (ROOT if record["verdict"]["claim_met"]
           else Path(tempfile.gettempdir())) / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    v, s = record["verdict"], summary[args.metric]
    print(f"{args.metric}: parent median {s['parent']['median']:.6g}, "
          f"change median {s['change']['median']:.6g}; "
          f"{v['pairs_won']} of {args.pairs} pairs won, gap {v['median_gap']:.4g} "
          f"vs parent IQR {v['parent_iqr']:.4g}: claim "
          f"{'met' if v['claim_met'] else 'NOT met'}; unresolved: "
          f"{', '.join(v['unresolved']) or 'none'}; the first run of a pair "
          f"read {s['first_vs_second']:+.2%} against the second (median "
          f"over pairs) -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
