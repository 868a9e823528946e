"""Answer quality over several workload seeds, against exact optima.

    python3 tools/quality.py --seeds 742 733 201 202
    python3 tools/quality.py --seeds 742 733 201 202 --parent HEAD

Run from anywhere; it measures the checkout it sits in, importing fracset
from that checkout's src/ and the query generators from its
perfbench/workloads.py (read only).  To measure another revision, export it
(``git archive REV | tar -x -C DIR``) and run DIR/tools/quality.py.
``--parent REV`` does that on the same seeds after this checkout's pass,
prints the export's tables, then one row per seed and workload with both
digests, and exits 1 unless every pair is the same: a claim that a change
keeps every answer bit for bit is then one command.

Per seed it solves every query once, as the benchmark does, and reports:

- local-cut: exact hits, the geometric mean and the worst of value over
  optimum.  The optimum comes from enumerating, in plain numpy, every
  superset of the query's seed within the volume bound.
- desk-batch: hits against the brute-force optimum each query carries.
- global-density: the answers that pass the benchmark's checks and match or
  beat the planted community, the benchmark's hit on that workload.  The
  solver's answers are exact optima, so this checks them, it does not grade
  them.
- for each: the CPU seconds (``time.process_time``) of the solves alone,
  without the workload set-up, the checks or the optima, so one run shows
  what an answer costs next to how good it is.
- for each, after the table: a digest, the sha1 of every answer's set and
  reported value in query order (or of the error it raised).  Equal
  digests from two checkouts mean the same answers, bit for bit.

A hit is a checked answer (feasible, value recomputed, seed kept) within
1e-9 relative of the optimum.  Answers are deterministic, so one pass per
seed is the measurement; the CPU seconds vary from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tools")]

import numpy as np  # noqa: E402

import fracset  # noqa: E402
from bench_pairs import export  # noqa: E402
from perfbench import workloads  # noqa: E402

REL_TOL = 1e-9


def local_cut_optimum(edges, seed, bound):
    """Least cut(C) / (vol(C) vol(V \\ C)) over C containing ``seed`` with
    vol(C) <= bound (1 + 1e-12), the benchmark's feasibility test.

    Enumerates the 2^(n-1) supersets of the seed at once; inf when none is
    feasible with a positive denominator.
    """
    n, u, v, w = edges
    deg = np.bincount(u, weights=w, minlength=n) + np.bincount(
        v, weights=w, minlength=n)
    others = np.delete(np.arange(n), seed)
    bits = (np.arange(2 ** others.size)[:, None] >> np.arange(others.size)) & 1
    mask = np.zeros((bits.shape[0], n), dtype=bool)
    mask[:, others] = bits.astype(bool)
    mask[:, seed] = True
    cut = (mask[:, u] != mask[:, v]) @ w
    vol = mask @ deg
    den = vol * (deg.sum() - vol)
    ok = (den > 0) & (vol <= bound * (1.0 + 1e-12))
    return float((cut[ok] / den[ok]).min()) if ok.any() else math.inf


def solve_all(name, seed, workdir):
    """(query, checked value) for every query of one workload seed, the CPU
    seconds of the solves and the digest of the answers.  The checked value
    is the recomputed value of the answer, inf when it raised or failed a
    check."""
    setup = workloads.WORKLOADS[name].setup(fracset, seed, workdir)
    out, cpu, digest = [], 0.0, hashlib.sha1()
    for i, q in enumerate(setup.queries):
        start = time.process_time()
        try:
            members, value = workloads.solve(fracset, q)
        except Exception as exc:  # noqa: BLE001 - a raised query is a miss
            print(f"{name} seed {seed} query {i} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            digest.update(f"{i} {type(exc).__name__}: {exc}\n".encode())
            out.append((q, math.inf))
            continue
        finally:
            cpu += time.process_time() - start
        members = np.asarray(members, dtype=np.int64)
        digest.update(f"{i} {members.tolist()} {float(value).hex()}\n".encode())
        true, _, problems = workloads.evaluate(q, members, value)
        out.append((q, math.inf if problems else true))
    return out, cpu, digest.hexdigest()


def is_exact(value, optimum):
    return abs(value - optimum) <= REL_TOL * abs(optimum)


def local_cut_row(seed, workdir):
    answers, cpu, digest = solve_all("local-cut", seed, workdir)
    ratios = np.array([value / local_cut_optimum(q.edges, q.seed, q.bound)
                       for q, value in answers])
    finite = ratios[np.isfinite(ratios)]
    return {"hits": int(sum(is_exact(r, 1.0) for r in ratios)),
            "queries": ratios.size,
            "gmean": float(np.exp(np.log(finite).mean())) if finite.size else math.inf,
            "worst": float(ratios.max()), "cpu": cpu, "digest": digest}


def desk_batch_row(seed, workdir):
    answers, cpu, digest = solve_all("desk-batch", seed, workdir)
    return {"hits": sum(is_exact(value, q.reference) for q, value in answers),
            "queries": len(answers), "cpu": cpu, "digest": digest}


def global_density_row(seed, workdir):
    answers, cpu, digest = solve_all("global-density", seed, workdir)
    return {"hits": sum(workloads.is_hit(q, value) for q, value in answers),
            "queries": len(answers), "cpu": cpu, "digest": digest}


ROWS = {"local-cut": local_cut_row, "desk-batch": desk_batch_row,
        "global-density": global_density_row}


def digest_table(text):
    """{(seed, workload): digest} from the digest table in a run's output."""
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit() and cells[1] in ROWS:
            table[int(cells[0]), cells[1]] = cells[2]
    return table


def compare(parent, change):
    """Rows (seed, workload, parent digest, change digest, same) over the
    keys of either table, in the change's order; a digest one side lacks
    reads None and differs."""
    rows = []
    for key in list(change) + [k for k in parent if k not in change]:
        theirs, ours = parent.get(key), change.get(key)
        rows.append((*key, theirs, ours, ours is not None and theirs == ours))
    return rows


def parent_digests(rev, seeds):
    """The digest table of ``rev``'s own quality.py on ``seeds``, run in an
    export of ``rev``; its output is printed as it stands, and its standard
    error (the queries that raised) passes through."""
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp, "parent")
        export(rev, checkout)
        out = subprocess.run(
            [sys.executable, str(checkout / "tools" / "quality.py"), "--seeds",
             *map(str, seeds)], check=True, stdout=subprocess.PIPE,
            text=True).stdout
    print(f"\nparent {rev}:")
    print(out, end="")
    return digest_table(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[742, 733, 201, 202])
    ap.add_argument("--parent", metavar="REV",
                    help="also run REV's quality.py and compare the digests")
    args = ap.parse_args(argv)
    print(f"fracset from {ROOT / 'src'}")
    print("| seed | local-cut hits | value/opt gmean | worst | local-cut CPU s "
          "| desk-batch hits | desk-batch CPU s "
          "| global-density hits | global-density CPU s |")
    print("|---|---|---|---|---|---|---|---|---|")
    totals = np.zeros(9)
    digests = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as workdir:
            rows = {name: row(seed, workdir) for name, row in ROWS.items()}
        lc, db, gd = rows["local-cut"], rows["desk-batch"], rows["global-density"]
        totals += [lc["hits"], lc["queries"], lc["cpu"],
                   db["hits"], db["queries"], db["cpu"],
                   gd["hits"], gd["queries"], gd["cpu"]]
        digests += [(seed, name, r["digest"]) for name, r in rows.items()]
        print(f"| {seed} | {lc['hits']}/{lc['queries']} | {lc['gmean']:.4f} "
              f"| {lc['worst']:.4f} | {lc['cpu']:.2f} "
              f"| {db['hits']}/{db['queries']} | {db['cpu']:.2f} "
              f"| {gd['hits']}/{gd['queries']} | {gd['cpu']:.2f} |", flush=True)
    lc_hits, lc_n, lc_cpu, db_hits, db_n, db_cpu, gd_hits, gd_n, gd_cpu = totals
    print(f"| total | {lc_hits:.0f}/{lc_n:.0f} | | | {lc_cpu:.2f} "
          f"| {db_hits:.0f}/{db_n:.0f} | {db_cpu:.2f} "
          f"| {gd_hits:.0f}/{gd_n:.0f} | {gd_cpu:.2f} |")
    print()
    print("| seed | workload | answer digest (sha1) |")
    print("|---|---|---|")
    for seed, name, digest in digests:
        print(f"| {seed} | {name} | {digest} |")
    if args.parent is None:
        return 0
    rows = compare(parent_digests(args.parent, args.seeds),
                   {(seed, name): digest for seed, name, digest in digests})
    print()
    print(f"| seed | workload | parent {args.parent} | this checkout | |")
    print("|---|---|---|---|---|")
    for seed, name, theirs, ours, same in rows:
        print(f"| {seed} | {name} | {theirs} | {ours} "
              f"| {'same' if same else 'DIFFERS'} |")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
