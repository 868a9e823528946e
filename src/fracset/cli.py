"""Command line: solvers, baselines, the exact oracle, and data ingestion.

Every subcommand prints one JSON document on stdout and logs to stderr.
Exit codes: 0 on a feasible solution, 2 on declared infeasibility, 1 on
errors (bad flags, malformed files).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .baselines import brute_force, lrw_cluster
from .constraints import AllOf, SeedContainment, SuffixFeasibility, VolumeConstraint
from .graph import (GraphFormatError, assoc_value, coauthor_weights, cut_value,
                    load_edge_list, load_vertex_weights, restrict_ball,
                    save_edge_list, volume)
from .lovasz import NoFeasibleThreshold, SeededBalance
from .problems import (DensityProblemSpec, NCutProblemSpec,
                       dinkelbach_max_density, solve_local_ncut,
                       solve_max_density)
from .ratiodca import InfeasibleProblem, SolverConfig

SCHEMA = 1


def _parse_seed_ids(text):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise GraphFormatError(f"bad seed list {text!r}") from None


def _map_ids(original, ids, what="seed"):
    original = np.asarray(original, dtype=np.int64).reshape(-1)
    if original.size == 0:
        return original
    pos = np.searchsorted(ids, original)
    ok = bool(np.all(pos < ids.size)) and bool(
        np.all(ids[np.minimum(pos, ids.size - 1)] == original))
    if not ok:
        missing = [int(o) for o, p in zip(original, np.atleast_1d(pos))
                   if p >= ids.size or ids[p] != o]
        raise GraphFormatError(f"{what} vertices {missing} not present in the graph")
    return np.atleast_1d(pos)


def _solver_config(args):
    return SolverConfig(initializations=args.inits, seed=args.rng)


def _solution_record(sol, ids, constraints):
    slack = []
    for c in constraints:
        vol = float(c.weights[sol.set_ids].sum())
        slack.append(c.bound - vol if c.upper else vol - c.bound)
    return {
        "set": [int(ids[v]) for v in sol.set_ids],
        "size": int(sol.set_ids.size),
        "lambda": _js(sol.lam),
        "value": _js(sol.value),
        "penalized_value": _js(sol.penalized_value),
        "feasible": [bool(b) for b in sol.feasible],
        "constraint_slack": [_js(s) for s in slack],
        "gamma": _js(sol.gamma),
        "iterations": int(sol.iterations),
        "init_id": int(sol.init_id),
        "converged": bool(sol.converged),
        "trace": [_js(t) for t in sol.trace],
    }


def _js(x):
    x = float(x)
    if not np.isfinite(x):
        return None
    return x


def _emit(record, argv, started, code=0):
    record["schema"] = SCHEMA
    record["command"] = list(argv)
    record["wall_seconds"] = round(time.time() - started, 4)
    print(json.dumps(record, indent=2))
    return code


def _resolve_g(args, graph, orig_degrees=None):
    if getattr(args, "g_weights", None):
        return load_vertex_weights(args.g_weights, graph.n)
    choice = getattr(args, "g", "ones")
    if choice == "degree":
        return orig_degrees if orig_degrees is not None else graph.degrees
    return np.ones(graph.n)


def _cmd_local_cut(args, argv, started):
    graph, ids = load_edge_list(args.graph)
    seed = _map_ids(sorted(set(_parse_seed_ids(args.seed))), ids)
    cfg = _solver_config(args)
    deg = graph.degrees
    if args.vol is not None:
        bound = float(args.vol)
    elif args.vol_total_frac is not None:
        bound = float(args.vol_total_frac) * float(deg.sum())
    else:
        # seed-only solve first, then bound by a fraction of its volume
        base = solve_local_ncut(graph, NCutProblemSpec(seed=seed, bound=None), cfg)
        bound = float(args.vol_frac) * float(deg[base.set_ids].sum())
        print(f"seed-only volume {deg[base.set_ids].sum():.6g}, "
              f"bound {bound:.6g}", file=sys.stderr)
    sol = solve_local_ncut(graph, NCutProblemSpec(seed=seed, bound=bound), cfg)
    problem_constraints = [VolumeConstraint(deg, bound, upper=True)]
    rec = {
        "problem": "local-cut",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "rng": args.rng,
        "volume_bound": bound,
        "result": _solution_record(sol, ids, problem_constraints),
    }
    return _emit(rec, argv, started, 0 if all(sol.feasible) else 2)


def _cmd_max_density(args, argv, started):
    graph, ids = load_edge_list(args.graph)
    seed = _map_ids(sorted(set(_parse_seed_ids(args.seed))), ids)
    orig_degrees = graph.degrees
    chain = ids
    if args.ball_radius is not None:
        counts = (load_vertex_weights(args.counts, graph.n)
                  if args.counts else None)
        sub, kept = restrict_ball(graph, seed, args.ball_radius,
                                  counts=counts, min_count=args.min_count)
        orig_degrees = graph.degrees[kept]
        chain = ids[kept]
        seed = _map_ids(ids[seed], chain)
        graph = sub
        print(f"restricted to {graph.n} vertices / {graph.num_edges} edges",
              file=sys.stderr)
    g = _resolve_g(args, graph, orig_degrees)
    if args.size is not None:
        h = np.ones(graph.n)
        upper = float(args.size)
    elif args.vol is not None:
        h = (load_vertex_weights(args.h_weights, graph.n)
             if args.h_weights else np.ones(graph.n))
        upper = float(args.vol)
    else:
        h = np.ones(graph.n)
        upper = None
    lower = float(args.lower) if args.lower is not None else None
    spec = DensityProblemSpec(seed=seed, g=g, h=h, lower=lower, upper=upper)
    sol = solve_max_density(graph, spec, _solver_config(args))
    constraints = []
    if upper is not None:
        constraints.append(VolumeConstraint(h, upper, upper=True))
    if lower is not None:
        constraints.append(VolumeConstraint(h, lower, upper=False))
    result = _solution_record(sol, chain, constraints)
    result["density"] = _js(1.0 / sol.value) if sol.value and np.isfinite(sol.value) else None
    rec = {
        "problem": "max-density",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "rng": args.rng,
        "result": result,
    }
    return _emit(rec, argv, started, 0 if all(sol.feasible) else 2)


def _cmd_max_density_global(args, argv, started):
    graph, ids = load_edge_list(args.graph)
    g = _resolve_g(args, graph)
    members, ratio = dinkelbach_max_density(graph, g)
    rec = {
        "problem": "max-density-global",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "result": {
            "set": [int(ids[v]) for v in members],
            "size": int(members.size),
            "ratio": _js(ratio),
            "density": _js(1.0 / ratio) if ratio > 0 else None,
        },
    }
    return _emit(rec, argv, started)


def _objective_functions(graph, kind, g):
    deg = graph.degrees
    if kind == "ncut":
        total = float(deg.sum())
        return (lambda C: cut_value(graph, C)), SeededBalance(deg, 0.0, total)
    return (lambda C: volume(g, C)), (lambda C: assoc_value(graph, C))


def _cmd_lrw(args, argv, started):
    graph, ids = load_edge_list(args.graph)
    seed = _map_ids(sorted(set(_parse_seed_ids(args.seed))), ids)
    g = np.ones(graph.n)
    num, den = _objective_functions(graph, args.objective, g)
    parts = []
    if args.vol is not None:
        parts.append((graph.degrees if args.objective == "ncut" else g,
                      0.0, float(args.vol), True))
    predicate = AllOf(SeedContainment(seed), SuffixFeasibility(parts))
    best_set, value, step = lrw_cluster(
        graph, seed, num, den, feasibility=predicate,
        max_steps=args.max_steps, normalize_by_degree=args.normalize_by_degree)
    rec = {
        "problem": "lrw",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "result": {
            "set": [int(ids[v]) for v in best_set],
            "size": int(best_set.size),
            "value": _js(value),
            "step": int(step),
        },
    }
    return _emit(rec, argv, started)


def _cmd_oracle(args, argv, started):
    graph, ids = load_edge_list(args.graph)
    seed = _map_ids(sorted(set(_parse_seed_ids(args.seed))), ids) \
        if args.seed else np.empty(0, dtype=np.int64)
    g = np.ones(graph.n)
    num, den = _objective_functions(graph, args.objective, g)
    constraints = []
    if args.vol is not None:
        h = graph.degrees if args.objective == "ncut" else g
        constraints.append(VolumeConstraint(h, float(args.vol), upper=True))
    if args.size is not None:
        constraints.append(VolumeConstraint(np.ones(graph.n), float(args.size),
                                            upper=True))
    if args.lower is not None:
        h = graph.degrees if args.objective == "ncut" else g
        constraints.append(VolumeConstraint(h, float(args.lower), upper=False))
    res = brute_force(graph, num, den, constraints=constraints, seed=seed)
    rec = {
        "problem": "oracle",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "result": {
            "set": None if res.best_set is None else
                   [int(ids[v]) for v in res.best_set],
            "value": None if res.best_value is None else _js(res.best_value),
            "enumerated": int(res.enumerated),
            "feasible_count": int(res.feasible_count),
        },
    }
    return _emit(rec, argv, started, 2 if res.best_set is None else 0)


def _cmd_ingest_coauthor(args, argv, started):
    pubs = []
    with open(args.pubs) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            pubs.append(line.split())
    graph, authors = coauthor_weights(pubs)
    counts = np.zeros(graph.n)
    index = {a: i for i, a in enumerate(authors)}
    for pub in pubs:
        for a in set(pub):
            counts[index[a]] += 1
    save_edge_list(graph, args.out)
    if args.map_out:
        with open(args.map_out, "w") as fh:
            for i, a in enumerate(authors):
                fh.write(f"{i} {a}\n")
    if args.counts_out:
        with open(args.counts_out, "w") as fh:
            for c in counts:
                fh.write(f"{int(c)}\n")
    rec = {
        "problem": "ingest-coauthor",
        "graph": {"n": graph.n, "edges": graph.num_edges},
        "result": {"publications": len(pubs), "out": args.out},
    }
    return _emit(rec, argv, started)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracset",
        description="Constrained fractional set programs on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=True):
        p.add_argument("--graph", required=True, help="edge-list file")
        if needs_seed:
            p.add_argument("--seed", required=True,
                           help="seed vertex ids, comma or space separated")
        p.add_argument("--inits", type=int, default=10,
                       help="number of random initializations")
        p.add_argument("--rng", type=int, default=0, help="RNG seed")

    p = sub.add_parser("local-cut", help="seeded balanced cut with a volume bound")
    common(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--vol", type=float, help="absolute volume bound")
    grp.add_argument("--vol-frac", type=float,
                     help="bound = fraction of the seed-only solution's volume")
    grp.add_argument("--vol-total-frac", type=float,
                     help="bound = fraction of the total graph volume")
    p.set_defaults(handler=_cmd_local_cut)

    p = sub.add_parser("max-density", help="seeded maximum-density community")
    common(p)
    p.add_argument("--size", type=float, help="upper bound on |C|")
    p.add_argument("--vol", type=float, help="upper bound on vol_h(C)")
    p.add_argument("--h-weights", help="per-vertex h for the volume bound")
    p.add_argument("--lower", type=float, help="lower bound on vol_h(C)")
    p.add_argument("--g", choices=("ones", "degree"), default="ones",
                   help="denominator vertex weights")
    p.add_argument("--g-weights", help="per-vertex g file (overrides --g)")
    p.add_argument("--ball-radius", type=int,
                   help="restrict to this hop distance around the seed first")
    p.add_argument("--counts", help="per-vertex integer attribute file")
    p.add_argument("--min-count", type=int, default=0,
                   help="attribute threshold for the restriction")
    p.set_defaults(handler=_cmd_max_density)

    p = sub.add_parser("max-density-global",
                       help="globally optimal unconstrained densest subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--g", choices=("ones", "degree"), default="ones")
    p.add_argument("--g-weights")
    p.set_defaults(handler=_cmd_max_density_global)

    p = sub.add_parser("lrw", help="lazy-random-walk baseline")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--objective", choices=("ncut", "density"), default="ncut")
    p.add_argument("--vol", type=float, help="upper volume bound")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--normalize-by-degree", action="store_true",
                   help="threshold p_i/d_i instead of p_i")
    p.set_defaults(handler=_cmd_lrw)

    p = sub.add_parser("oracle", help="exhaustive constrained optimum (small n)")
    p.add_argument("--graph", required=True)
    p.add_argument("--objective", choices=("ncut", "density"), default="ncut")
    p.add_argument("--seed", default="")
    p.add_argument("--vol", type=float)
    p.add_argument("--size", type=float)
    p.add_argument("--lower", type=float)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("ingest-coauthor",
                       help="build a co-author graph from a publication list")
    p.add_argument("--pubs", required=True,
                   help="one publication per line: whitespace-separated author ids")
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--map-out", help="write 'new original' id pairs here")
    p.add_argument("--counts-out", help="write per-vertex publication counts here")
    p.set_defaults(handler=_cmd_ingest_coauthor)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    started = time.time()
    try:
        return args.handler(args, argv, started)
    except (InfeasibleProblem, NoFeasibleThreshold) as exc:
        print(json.dumps({"schema": SCHEMA, "command": argv,
                          "infeasible": True, "reason": str(exc)}, indent=2))
        return 2
    except (GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
