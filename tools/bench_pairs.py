"""Alternating parent/change pairs of the benchmark, written to BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload local-cut --seed 313 --parent HEAD
    python3 tools/bench_pairs.py --workload global-density --seed 313 \
        --metric setup_s

Run from the repository root.  The change is the working tree as it stands;
the parent is the given revision, exported with ``git archive`` into a
temporary directory (set TMPDIR to choose where).  Each run is one
``perfbench/run.py --trace 0`` process in its own checkout; pair i runs the
parent first when i is odd and the change first when it is even.  After the
pairs, one ``--trace 1`` run per side gives the per-layer metrics.

The verdict follows the benchmark's rule for claiming a gain on the claimed
metric (``--metric``, any end-to-end metric of BENCHMARK.json, solves_per_s
by default; its ``better`` gives the direction): at least ten pairs ran, the
change wins at least nine tenths of them (ties count for neither), the gap
between the medians exceeds the parent's interquartile range, no more
queries fail than at the parent, and no end-to-end metric is worse than at
the parent by more than the bound BENCHMARK.json fixes for it.
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


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The files of ``rev`` under ``dest``, without any git metadata."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    Path(dest).mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_src_tree(tmp):
    """Tree id of src/ in the working tree, through a throwaway index."""
    env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", "src", env=env)
    return git("write-tree", "--prefix=src/", env=env)


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


def summarize(runs, end_to_end):
    """Per-metric medians, quartiles, pair wins and the bound check."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        par = [r["metrics"][name] for r in runs["parent"]]
        chg = [r["metrics"][name] for r in runs["change"]]
        p, c = quartiles(par), quartiles(chg)
        rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        summary[name] = {
            "parent": p,
            "change": c,
            "change_vs_parent": rel,
            "pairs_change_better": sum(sign * (b - a) > 0 for a, b in zip(par, chg)),
            "pairs_change_worse": sum(sign * (b - a) < 0 for a, b in zip(par, chg)),
            "worse_by_more_than_bound": -sign * rel > spec["bound"],
        }
    return summary


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
    runs = {"parent": [], "change": []}
    envs = {}
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp, "parent")
        export(args.parent, parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, envs[side] = run_bench(checkouts[side], args.workload,
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
        traced = {side: run_bench(checkouts[side], args.workload, args.seed, 5, 1)[0]
                  for side in ("parent", "change")}
        change_src = working_src_tree(tmp)

    summary = summarize(runs, bench["end_to_end"])
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
        "method": ("alternating pairs: the parent ran first in odd pairs, the "
                   "change in even pairs; each run in its own checkout and "
                   "process; medians and quartiles by numpy.percentile (linear "
                   "interpolation) over the runs of one side; made by "
                   "tools/bench_pairs.py"),
        "host": envs["change"],
        "parent": {"commit": git("rev-parse", f"{args.parent}^{{commit}}"),
                   "src_tree": git("rev-parse", f"{args.parent}:src")},
        "change": {"commit": "the commit that adds this file (child of the parent)",
                   "src_tree": change_src},
        "verdict": verdict(summary, runs, args.metric, better),
        "trace": {
            "command": (f"python3 perfbench/run.py --workload {args.workload} "
                        f"--seed {args.seed} --seconds 5 --trace 1"),
            "note": ("per-layer metrics from one traced pass over the queries, "
                     "wall time, not host-corrected"),
            **{side: {k: v["value"] for k, v in traced[side]["metrics"].items()}
               for side in traced},
        },
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    v, s = record["verdict"], summary[args.metric]
    print(f"{args.metric}: parent median {s['parent']['median']:.6g}, "
          f"change median {s['change']['median']:.6g}; "
          f"{v['pairs_won']} of {args.pairs} pairs won, gap {v['median_gap']:.4g} "
          f"vs parent IQR {v['parent_iqr']:.4g}: claim "
          f"{'met' if v['claim_met'] else 'NOT met'} -> {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
