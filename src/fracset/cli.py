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
from functools import partial

import numpy as np

from .baselines import brute_force, lrw_cluster
from .constraints import SeedContainment, VolumeConstraint
from .graph import (GraphFormatError, assoc_value, coauthor_weights,
                    cut_value, data_lines, load_edge_list, load_vertex_weights,
                    restrict_ball, save_edge_list, volume)
from .lovasz import Assoc, Balance, Cut, ModularVolume
from .problems import (DensityProblemSpec, NCutProblemSpec, build_local_ncut,
                       build_max_density, dinkelbach_max_density,
                       solve_local_ncut)
from .ratiodca import (InfeasibleProblem, SolverConfig,
                       solve_with_gamma_schedule)

SCHEMA = 1


def _seed_positions(text, ids):
    """Graph positions of the vertex ids in ``--seed`` text, sorted and unique."""
    try:
        seed = np.unique(np.array([int(tok) for tok in
                                   text.replace(",", " ").split()],
                                  dtype=np.int64))
    except (ValueError, OverflowError):  # OverflowError: past int64
        raise GraphFormatError(f"bad seed list {text!r}") from None
    pos = np.searchsorted(ids, seed)
    missing = [int(s) for s, p in zip(seed, pos) if p == ids.size or ids[p] != s]
    if missing:
        raise GraphFormatError(f"seed vertices {missing} not present in the graph")
    return pos


def _solver_config(args):
    return SolverConfig(initializations=args.inits, seed=args.rng)


def _solution_record(sol, ids, constraints):
    slack = []
    for c in constraints:
        vol = volume(c.weights, sol.set_ids)
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


def _resolve_g(args, graph):
    if args.g_weights:
        return load_vertex_weights(args.g_weights, graph.n)
    return graph.degrees if args.g == "degree" else np.ones(graph.n)


# Each handler takes the parsed flags and the loaded --graph with its ids,
# and returns (graph, result fields, exit code); main adds the envelope.

def _cmd_local_cut(args, graph, ids):
    seed = _seed_positions(args.seed, ids)
    cfg = _solver_config(args)
    deg = graph.degrees
    if args.vol is not None:
        bound = float(args.vol)
    elif args.vol_total_frac is not None:
        bound = float(args.vol_total_frac) * float(deg.sum())
    else:
        # seed-only solve first, then bound by a fraction of its volume
        base = solve_local_ncut(graph, NCutProblemSpec(seed=seed, bound=None), cfg)
        base_vol = volume(deg, base.set_ids)
        bound = float(args.vol_frac) * base_vol
        print(f"seed-only volume {base_vol:.6g}, bound {bound:.6g}",
              file=sys.stderr)
    problem = build_local_ncut(graph, NCutProblemSpec(seed=seed, bound=bound))
    sol = solve_with_gamma_schedule(problem, cfg)
    return graph, {
        "rng": args.rng,
        "volume_bound": bound,
        "result": _solution_record(sol, ids, problem.constraints),
    }, 0 if all(sol.feasible) else 2


def _cmd_max_density(args, graph, ids):
    seed = _seed_positions(args.seed, ids)
    # per-vertex inputs are read against the input graph, then restricted
    # together with it
    g = _resolve_g(args, graph)
    h = np.ones(graph.n)
    if args.h_weights:
        if args.size is not None:
            raise ValueError("--h-weights cannot weigh the cardinality "
                             "bound --size; use --vol")
        h = load_vertex_weights(args.h_weights, graph.n)
    upper = args.size if args.size is not None else args.vol
    if args.ball_radius is None and (args.counts or args.min_count is not None):
        raise ValueError("--counts and --min-count filter the --ball-radius "
                         "restriction; they need --ball-radius")
    if (args.counts is None) != (args.min_count is None):
        raise ValueError("--counts and --min-count filter the ball together; "
                         "give both")
    if args.ball_radius is not None:
        counts = (load_vertex_weights(args.counts, graph.n)
                  if args.counts else None)
        graph, kept = restrict_ball(graph, seed, args.ball_radius,
                                    counts=counts,
                                    min_count=args.min_count or 0)
        ids, g, h = ids[kept], g[kept], h[kept]
        seed = np.searchsorted(kept, seed)
        print(f"restricted to {graph.n} vertices / {graph.num_edges} edges",
              file=sys.stderr)
    problem = build_max_density(graph, DensityProblemSpec(
        seed=seed, g=g, h=h, lower=args.lower, upper=upper))
    sol = solve_with_gamma_schedule(problem, _solver_config(args))
    result = _solution_record(sol, ids, problem.constraints)
    result["density"] = _js(1.0 / sol.value) if sol.value and np.isfinite(sol.value) else None
    return graph, {"rng": args.rng, "result": result}, (
        0 if all(sol.feasible) else 2)


def _cmd_max_density_global(args, graph, ids):
    members, ratio = dinkelbach_max_density(graph, _resolve_g(args, graph))
    return graph, {"result": {
        "set": [int(ids[v]) for v in members],
        "size": int(members.size),
        "ratio": _js(ratio),
        "density": _js(1.0 / ratio) if ratio > 0 else None,
    }}, 0


def _objective(graph, kind):
    """Numerator and denominator of the lrw ``--objective`` as sweepable set
    functions, and the vertex weights its volume bound weighs."""
    if kind == "ncut":
        return Cut(graph), Balance(graph.degrees), graph.degrees
    g = np.ones(graph.n)
    return ModularVolume(g), Assoc(graph), g


def _cmd_lrw(args, graph, ids):
    seed = _seed_positions(args.seed, ids)
    num, den, h = _objective(graph, args.objective)
    predicates = [SeedContainment(seed)]
    if args.vol is not None:
        predicates.append(VolumeConstraint(h, float(args.vol)))
    best = lrw_cluster(
        graph, seed, num, den, predicates=predicates,
        max_steps=args.max_steps, normalize_by_degree=args.normalize_by_degree)
    if best is None:
        raise InfeasibleProblem("the walk never produced a feasible threshold set")
    best_set, value, step = best
    return graph, {"result": {
        "set": [int(ids[v]) for v in best_set],
        "size": int(best_set.size),
        "value": _js(value),
        "step": int(step),
    }}, 0


def _cmd_oracle(args, graph, ids):
    # graph.py's textbook evaluators: the oracle shares no code with the
    # sweeps it checks
    if args.objective == "ncut":
        h, total = graph.degrees, float(graph.degrees.sum())
        num = partial(cut_value, graph)

        def den(C):
            vol = volume(h, C)
            return vol * (total - vol)
    else:
        h, num, den = np.ones(graph.n), len, partial(assoc_value, graph)
    constraints = []
    if args.vol is not None:
        constraints.append(VolumeConstraint(h, float(args.vol), upper=True))
    if args.size is not None:
        constraints.append(VolumeConstraint(np.ones(graph.n), float(args.size),
                                            upper=True))
    if args.lower is not None:
        constraints.append(VolumeConstraint(h, float(args.lower), upper=False))
    res = brute_force(graph, num, den, constraints=constraints,
                      seed=_seed_positions(args.seed, ids))
    return graph, {"result": {
        "set": None if res.best_set is None else
               [int(ids[v]) for v in res.best_set],
        "value": None if res.best_value is None else _js(res.best_value),
        "enumerated": int(res.enumerated),
        "feasible_count": int(res.feasible_count),
    }}, 2 if res.best_set is None else 0


def _cmd_ingest_coauthor(args, *_):
    pubs = [fields for _, fields in data_lines(args.pubs)]
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
    # the saved edge list has the authors with a co-author, in id order
    linked = np.flatnonzero(graph.degrees > 0)
    if args.counts_out:
        with open(args.counts_out, "w") as fh:
            for c in counts[linked]:
                fh.write(f"{int(c)}\n")
    return graph.induced_subgraph(linked)[0], {"result": {
        "publications": len(pubs), "out": args.out}}, 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracset",
        description="Constrained fractional set programs on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list file")
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
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--size", type=float, help="upper bound on |C|")
    grp.add_argument("--vol", type=float, help="upper bound on vol_h(C)")
    p.add_argument("--h-weights",
                   help="per-vertex h for --vol and --lower (default 1 each); "
                        "not allowed with --size")
    p.add_argument("--lower", type=float, help="lower bound on vol_h(C)")
    p.add_argument("--g", choices=("ones", "degree"), default="ones",
                   help="denominator vertex weights")
    p.add_argument("--g-weights", help="per-vertex g file (overrides --g)")
    p.add_argument("--ball-radius", type=int,
                   help="restrict to this hop distance around the seed first")
    p.add_argument("--counts", help="per-vertex integer attribute file; "
                   "needs --min-count and --ball-radius")
    p.add_argument("--min-count", type=int,
                   help="keep only vertices with at least this count in the "
                        "restriction; needs --counts and --ball-radius")
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
    p.add_argument("--seed", default="",
                   help="vertex ids every set must contain, comma or space "
                        "separated (default: none)")
    p.add_argument("--vol", type=float,
                   help="upper bound on the degree volume vol_d(C) for ncut, "
                        "on the cardinality |C| for density")
    p.add_argument("--size", type=float,
                   help="upper bound on the cardinality |C|, for either "
                        "objective")
    p.add_argument("--lower", type=float,
                   help="lower bound on the degree volume vol_d(C) for ncut, "
                        "on the cardinality |C| for density")
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
        loaded = (load_edge_list(args.graph) if "graph" in vars(args)
                  else (None, None))
        graph, fields, code = args.handler(args, *loaded)
    except InfeasibleProblem as exc:
        print(json.dumps({"schema": SCHEMA, "command": argv,
                          "infeasible": True, "reason": str(exc)}, indent=2))
        return 2
    except (GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"problem": args.command,
              "graph": {"n": graph.n, "edges": graph.num_edges}, **fields,
              "schema": SCHEMA, "command": argv,
              "wall_seconds": round(time.time() - started, 4)}
    print(json.dumps(record, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
