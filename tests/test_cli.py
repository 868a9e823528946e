import argparse
import itertools
import json

import numpy as np
import pytest

import fracset as fs
from fracset.cli import _build_parser, main

B6_LINES = "1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n3 4\n"


@pytest.fixture
def b6_file(tmp_path):
    p = tmp_path / "b6.txt"
    p.write_text("# barbell\n" + B6_LINES)
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_local_cut_absolute_volume(b6_file, capsys):
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol", "7", "--inits", "10", "--rng", "42"])
    assert code == 0
    assert rec["schema"] == 1
    assert rec["result"]["set"] == [1, 2, 3]
    assert rec["result"]["value"] == pytest.approx(1 / 49)
    assert rec["result"]["feasible"] == [True]
    assert rec["result"]["constraint_slack"][0] == pytest.approx(0.0)


def test_local_cut_bound_equal_to_the_seed_volume(b6_file, capsys):
    # vertex 1 has degree 2: the bare seed meets --vol 2
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol", "2", "--inits", "2"])
    assert code == 0
    assert rec["result"]["set"] == [1]
    assert rec["result"]["feasible"] == [True]
    assert rec["result"]["value"] == pytest.approx(1 / 12)
    assert rec["result"]["constraint_slack"] == [0.0]


def test_local_cut_total_fraction(b6_file, capsys):
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol-total-frac", "0.5", "--rng", "42"])
    assert code == 0
    assert rec["result"]["set"] == [1, 2, 3]


def test_local_cut_seed_relative_fraction(b6_file, capsys):
    # seed-only solution is {1,2,3} with volume 7; the bound becomes 3.5,
    # so the only feasible sets are {1} (value 1/12) and none better
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol-frac", "0.5", "--inits", "10",
                                 "--rng", "42"])
    assert code == 0
    g, ids = fs.load_edge_list(b6_file)
    deg = g.degrees
    num = lambda C: fs.cut_value(g, C)
    den = lambda C: fs.volume(deg, C) * (deg.sum() - fs.volume(deg, C))
    oracle = fs.brute_force(g, num, den,
                            constraints=[fs.VolumeConstraint(deg, 3.5,
                                                             upper=True)],
                            seed=(0,))
    assert rec["result"]["value"] == pytest.approx(oracle.best_value)
    assert rec["result"]["set"] == [int(ids[v]) for v in oracle.best_set]


def test_max_density_global(b6_file, capsys):
    code, rec = run_cli(capsys, ["max-density-global", "--graph", b6_file])
    assert code == 0
    assert rec["result"]["set"] == [1, 2, 3, 4, 5, 6]
    assert rec["result"]["ratio"] == pytest.approx(3 / 7)
    assert rec["result"]["density"] == pytest.approx(7 / 3)


def test_max_density_with_size_bound(b6_file, capsys):
    code, rec = run_cli(capsys, ["max-density", "--graph", b6_file,
                                 "--seed", "1", "--size", "3", "--rng", "42"])
    assert code == 0
    assert rec["result"]["set"] == [1, 2, 3]
    assert rec["result"]["density"] == pytest.approx(2.0)


def test_oracle_command(b6_file, capsys):
    code, rec = run_cli(capsys, ["oracle", "--graph", b6_file,
                                 "--objective", "ncut", "--seed", "1",
                                 "--vol", "7"])
    assert code == 0
    assert rec["result"]["value"] == pytest.approx(1 / 49)
    assert rec["result"]["set"] == [1, 2, 3]
    assert rec["result"]["enumerated"] == 32


def test_lrw_command(b6_file, capsys):
    code, rec = run_cli(capsys, ["lrw", "--graph", b6_file, "--seed", "1",
                                 "--objective", "ncut", "--vol", "7"])
    assert code == 0
    assert rec["result"]["set"] == [1, 2, 3]


@pytest.fixture
def three_block_file(tmp_path):
    """24 vertices in 3 blocks of 8, edge weights uniform in [0.5, 2]."""
    rng = np.random.default_rng(2024)
    block = np.repeat(np.arange(3), 8)
    lines = []
    for i in range(24):
        for j in range(i + 1, 24):
            if rng.random() < (0.6 if block[i] == block[j] else 0.08):
                lines.append(f"{i} {j} {rng.uniform(0.5, 2.0)!r}\n")
    p = tmp_path / "three_block.txt"
    p.write_text("".join(lines))
    return str(p)


# (objective, --vol or None) -> (set, value, step) of `fracset lrw` seeded
# at vertex 0 of the three-block graph
LRW_PINNED = {
    ("ncut", None): ([0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 15],
                     0.002446508693081497, 4),
    ("ncut", "60"): ([0, 2, 4, 5, 6, 7], 0.002654316703337926, 7),
    ("density", None): ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15,
                         16, 17, 18, 19, 20, 21, 22, 23],
                        0.13190303157608965, 13),
    ("density", "8"): ([0, 2, 4, 5, 6, 7], 0.17865087134278182, 7),
}


@pytest.mark.parametrize("objective,vol", sorted(LRW_PINNED, key=str))
def test_lrw_pinned_weighted_answers(three_block_file, capsys, objective,
                                     vol):
    argv = ["lrw", "--graph", three_block_file, "--seed", "0",
            "--objective", objective]
    if vol is not None:
        argv += ["--vol", vol]
    code, rec = run_cli(capsys, argv)
    assert code == 0
    members, value, step = LRW_PINNED[objective, vol]
    assert rec["result"]["set"] == members
    assert rec["result"]["step"] == step
    assert rec["result"]["value"] == pytest.approx(value, rel=1e-12)


def test_round_trip_objective_reproduction(b6_file, capsys):
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol", "7", "--rng", "3"])
    g, ids = fs.load_edge_list(b6_file)
    back = np.searchsorted(ids, rec["result"]["set"])
    deg = g.degrees
    vol = fs.volume(deg, back)
    value = fs.cut_value(g, back) / (vol * (deg.sum() - vol))
    assert value == pytest.approx(rec["result"]["value"], rel=1e-12)


def test_infeasible_exit_code(b6_file, capsys):
    code, rec = run_cli(capsys, ["local-cut", "--graph", b6_file, "--seed", "1",
                                 "--vol", "1", "--rng", "0"])
    assert code == 2
    assert rec["infeasible"] is True


def test_max_density_seed_only_bound_exits_infeasible(tmp_path, capsys):
    # --size 1 leaves room for the one-vertex seed alone, whose association
    # is 0, so no feasible set has a density
    p = tmp_path / "g.txt"
    p.write_text("0 1\n0 2\n1 2\n2 3\n")
    code, rec = run_cli(capsys, ["max-density", "--graph", str(p),
                                 "--seed", "0", "--size", "1"])
    assert code == 2
    assert rec["infeasible"] is True


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    code = main(["local-cut", "--graph", str(bad), "--seed", "1", "--vol", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "self-loop" in err


@pytest.mark.parametrize("edges,seed,message", [
    ("1 99999999999999999999 1\n", "1", ":1: vertex id out of range"),
    ("1 2\n1 3\n2 3\n", "99999999999999999999",
     "bad seed list '99999999999999999999'"),
])
def test_ids_past_int64_exit_with_an_error_line(tmp_path, capsys, edges, seed,
                                                message):
    p = tmp_path / "tri.txt"
    p.write_text(edges)
    assert main(["max-density", "--graph", str(p), "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_usage_error_exit_code(b6_file, capsys):
    assert main(["local-cut", "--graph", b6_file, "--seed", "1", "--vol", "7",
                 "--bogus"]) == 1
    assert main(["local-cut"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exit_code(capsys):
    assert main(["--help"]) == 0
    assert main(["local-cut", "--help"]) == 0
    assert "--vol" in capsys.readouterr().out


def test_unknown_seed_vertex(b6_file, capsys):
    code = main(["local-cut", "--graph", b6_file, "--seed", "99", "--vol", "7"])
    assert code == 1


def test_ingest_coauthor(tmp_path, capsys):
    pubs = tmp_path / "pubs.txt"
    pubs.write_text("# pubs\n7 8 9\n7 8\n5\n")
    out = tmp_path / "coauthor.txt"
    cmap = tmp_path / "map.txt"
    counts = tmp_path / "counts.txt"
    code, rec = run_cli(capsys, ["ingest-coauthor", "--pubs", str(pubs),
                                 "--out", str(out), "--map-out", str(cmap),
                                 "--counts-out", str(counts)])
    assert code == 0
    g, ids = fs.load_edge_list(out)
    mapping = dict(line.split() for line in cmap.read_text().splitlines())
    # authors 7 and 8 share two papers: weight 1/3 + 1/2
    by_orig = {v: k for k, v in mapping.items()}
    i7, i8 = int(by_orig["7"]), int(by_orig["8"])
    w = None
    for u, v, wt in zip(g.edge_u, g.edge_v, g.edge_w):
        if {int(ids[u]), int(ids[v])} == {i7, i8}:
            w = wt
    assert w == pytest.approx(5 / 6)
    cnt = fs.load_vertex_weights(counts)
    # author-publication incidences of the authors with a co-author
    assert cnt.sum() == 3 + 2
    assert cnt.size == g.n


def test_lrw_without_bound_handles_degenerate(b6_file, capsys):
    code, rec = run_cli(capsys, ["lrw", "--graph", b6_file, "--seed", "1",
                                 "--objective", "density"])
    assert code == 0


# -- characterization of the input paths: each CLI answer equals the
# library solve on the same inputs

def write_lines(path, values):
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path)


def cli_set(rec):
    return rec["result"]["set"]


def library_density_set(graph, ids, seed, rng=0, **spec):
    sol = fs.solve_max_density(graph, fs.DensityProblemSpec(seed=seed, **spec),
                               fs.SolverConfig(initializations=10, seed=rng))
    return [int(ids[v]) for v in sol.set_ids]


def per_vertex(n, lo=0.5, hi=2.0, seed=7):
    return np.random.default_rng(seed).uniform(lo, hi, n)


def test_max_density_volume_bound_with_h_weights(three_block_file, tmp_path,
                                                 capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    h = per_vertex(graph.n)
    hw = write_lines(tmp_path / "h.txt", h)
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--vol", "6",
                                 "--h-weights", hw])
    assert code == 0
    assert cli_set(rec) == library_density_set(graph, ids, [0], h=h, upper=6.0)
    members = np.searchsorted(ids, cli_set(rec))
    assert h[members].sum() <= 6.0
    assert rec["result"]["feasible"] == [True]


def test_max_density_lower_bound_with_h_weights(tmp_path, capsys):
    # the triangle 0 1 2 carries h = 5 each, so {0, 1} already meets
    # vol_h >= 8; with unit h no set of the 5 vertices would
    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n")
    h = np.array([5.0, 5.0, 5.0, 1.0, 1.0])
    hw = write_lines(tmp_path / "h.txt", h)
    code, rec = run_cli(capsys, ["max-density", "--graph", str(g),
                                 "--seed", "0", "--lower", "8",
                                 "--h-weights", hw])
    assert code == 0
    assert h[cli_set(rec)].sum() >= 8
    assert rec["result"]["feasible"] == [True]


@pytest.mark.parametrize("flag", ["--vol", "--h-weights"])
def test_max_density_size_takes_no_volume_input(b6_file, tmp_path, capsys,
                                                flag):
    # --size bounds |C|, so neither a volume bound nor an h may join it
    value = ("30" if flag == "--vol"
             else write_lines(tmp_path / "h.txt", np.ones(6)))
    code = main(["max-density", "--graph", b6_file, "--seed", "1",
                 "--size", "2", flag, value])
    assert code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [["--counts", "missing.txt"],
                                   ["--min-count", "1"]])
def test_max_density_count_filter_needs_ball_radius(b6_file, capsys, flags):
    # the count filter only filters the hop-ball restriction; without it the
    # flag is an error, before any file is opened
    code = main(["max-density", "--graph", b6_file, "--seed", "1",
                 "--size", "3", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ball-radius" in captured.err
    assert "missing.txt" not in captured.err


def test_max_density_min_count_needs_counts(b6_file, capsys):
    # --min-count compares against --counts, and --counts are read only
    # for --min-count: one without the other is an error, not a silently
    # unfiltered ball, and it is found before the counts file is opened
    for flags in (["--min-count", "5"], ["--counts", "missing.txt"]):
        code = main(["max-density", "--graph", b6_file, "--seed", "1",
                     "--size", "3", "--ball-radius", "1", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--counts" in captured.err and "--min-count" in captured.err
        assert "missing.txt" not in captured.err


def test_lrw_without_a_qualifying_set_exits_infeasible(b6_file, capsys):
    # every set holding vertex 1 has volume at least its degree 2 > 1
    code, rec = run_cli(capsys, ["lrw", "--graph", b6_file, "--seed", "1",
                                 "--vol", "1", "--max-steps", "5"])
    assert code == 2
    assert rec["infeasible"] is True


@pytest.mark.parametrize("flag", ["--g-weights", "--h-weights", "--counts"])
def test_two_column_vertex_file_is_an_error(b6_file, tmp_path, capsys, flag):
    # "id weight" lines are not read as their first column
    wf = tmp_path / "w.txt"
    wf.write_text("".join(f"{i} 1.5\n" for i in range(6)))
    count_filter = ["--min-count", "1"] if flag == "--counts" else []
    code = main(["max-density", "--graph", b6_file, "--seed", "1",
                 "--ball-radius", "1", *count_filter, flag, str(wf)])
    assert code == 1
    assert ":1: bad weight '0 1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["max-density-global", "--graph", "{bad}"],
    ["max-density", "--graph", "{b6}", "--seed", "1", "--g-weights", "{bad}"],
    ["ingest-coauthor", "--pubs", "{bad}", "--out", "{out}"],
])
def test_undecodable_input_exits_with_its_line(b6_file, tmp_path, capsys,
                                               argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 2\n2 3 \xff\n")
    paths = {"bad": bad, "b6": b6_file, "out": tmp_path / "out.txt"}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: bad ")


def test_max_density_lower_bound(three_block_file, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--lower", "12", "--rng", "3"])
    assert code == 0
    assert cli_set(rec) == library_density_set(graph, ids, [0], rng=3,
                                               lower=12.0)
    assert len(cli_set(rec)) >= 12


def test_max_density_degree_g(three_block_file, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--size", "6", "--g", "degree"])
    assert code == 0
    assert cli_set(rec) == library_density_set(graph, ids, [0],
                                               g=graph.degrees, upper=6.0)


def test_max_density_ball_with_counts(three_block_file, tmp_path, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    counts = np.arange(graph.n) % 3
    cf = write_lines(tmp_path / "counts.txt", counts.tolist())
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--size", "5",
                                 "--ball-radius", "1", "--counts", cf,
                                 "--min-count", "1"])
    assert code == 0
    sub, kept = fs.restrict_ball(graph, [0], 1, counts=counts, min_count=1)
    assert sub.n < graph.n
    assert rec["graph"] == {"n": sub.n, "edges": sub.num_edges}
    assert cli_set(rec) == library_density_set(sub, ids[kept], [0], upper=5.0)
    assert all(counts[np.searchsorted(ids, v)] >= 1 for v in cli_set(rec)
               if v != 0)


def test_oracle_size_bound(b6_file, capsys):
    code, rec = run_cli(capsys, ["oracle", "--graph", b6_file,
                                 "--objective", "density", "--size", "2"])
    assert code == 0
    # any one edge has density 1/2 per vertex: value vol/assoc = 2/2
    assert rec["result"]["value"] == pytest.approx(1.0)
    assert len(rec["result"]["set"]) == 2
    assert rec["result"]["enumerated"] == 64


def test_oracle_lower_bound(b6_file, capsys):
    code, rec = run_cli(capsys, ["oracle", "--graph", b6_file,
                                 "--objective", "ncut", "--seed", "1",
                                 "--lower", "8"])
    assert code == 0
    g, ids = fs.load_edge_list(b6_file)
    deg = g.degrees
    num = lambda C: fs.cut_value(g, C)
    den = lambda C: fs.volume(deg, C) * (deg.sum() - fs.volume(deg, C))
    # a lower bound of 8 rules out {1, 2, 3} (volume 7)
    candidates = [C for C in itertools.chain.from_iterable(
        itertools.combinations(range(6), k) for k in range(1, 6))
        if 0 in C and fs.volume(deg, C) >= 8]
    best = min(candidates, key=lambda C: num(C) / den(C))
    assert rec["result"]["value"] == pytest.approx(num(best) / den(best))
    assert rec["result"]["set"] == [int(ids[v]) for v in best]


def test_lrw_normalized_by_degree(three_block_file, capsys):
    code, rec = run_cli(capsys, ["lrw", "--graph", three_block_file,
                                 "--seed", "0", "--objective", "ncut",
                                 "--vol", "60", "--normalize-by-degree"])
    assert code == 0
    assert rec["result"]["set"] == [0, 8, 9, 10, 11, 12, 14, 15]
    assert rec["result"]["step"] == 106
    assert rec["result"]["value"] == pytest.approx(0.0023419211388819956,
                                                   rel=1e-12)


def test_max_density_global_degree_g(three_block_file, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    code, rec = run_cli(capsys, ["max-density-global", "--graph",
                                 three_block_file, "--g", "degree"])
    assert code == 0
    members, ratio = fs.dinkelbach_max_density(graph, graph.degrees)
    assert rec["result"]["set"] == [int(ids[v]) for v in members]
    assert rec["result"]["ratio"] == pytest.approx(ratio, rel=1e-12)


def test_max_density_global_g_weights(three_block_file, tmp_path, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    g = per_vertex(graph.n)
    gw = write_lines(tmp_path / "g.txt", g)
    code, rec = run_cli(capsys, ["max-density-global", "--graph",
                                 three_block_file, "--g-weights", gw])
    assert code == 0
    members, ratio = fs.dinkelbach_max_density(graph, g)
    assert rec["result"]["set"] == [int(ids[v]) for v in members]
    assert rec["result"]["ratio"] == pytest.approx(ratio, rel=1e-12)


@pytest.fixture
def pubs_file(tmp_path):
    p = tmp_path / "pubs.txt"
    p.write_text("1 2 3\n2 3\n1 3 4\n")
    return str(p)


ENVELOPE_RUNS = {
    "local-cut": (["--seed", "1", "--vol", "7"],
                  ["problem", "graph", "rng", "volume_bound", "result"]),
    "max-density": (["--seed", "1", "--size", "3"],
                    ["problem", "graph", "rng", "result"]),
    "max-density-global": ([], ["problem", "graph", "result"]),
    "lrw": (["--seed", "1"], ["problem", "graph", "result"]),
    "oracle": (["--seed", "1"], ["problem", "graph", "result"]),
    "ingest-coauthor": (None, ["problem", "graph", "result"]),
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_RUNS))
def test_envelope_keys_in_order(command, b6_file, pubs_file, tmp_path,
                                capsys):
    extra, head = ENVELOPE_RUNS[command]
    if extra is None:
        argv = [command, "--pubs", pubs_file, "--out",
                str(tmp_path / "out.txt")]
    else:
        argv = [command, "--graph", b6_file] + extra
    code, rec = run_cli(capsys, argv)
    assert code == 0
    assert list(rec) == head + ["schema", "command", "wall_seconds"]
    assert rec["problem"] == command
    assert rec["command"] == argv
    assert rec["schema"] == 1
    assert list(rec["graph"]) == ["n", "edges"]


# -- per-vertex files have one line per vertex of the input graph and are
# restricted together with it by --ball-radius

def restricted_density_set(graph, ids, **spec):
    sub, kept = fs.restrict_ball(graph, [0], 1)
    assert sub.n < graph.n
    spec = {k: v[kept] if isinstance(v, np.ndarray) else v
            for k, v in spec.items()}
    return sub, library_density_set(sub, ids[kept], [0], **spec)


def test_ball_restriction_with_g_weights(three_block_file, tmp_path, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    g = per_vertex(graph.n)
    gw = write_lines(tmp_path / "g.txt", g)
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--ball-radius", "1",
                                 "--g-weights", gw])
    assert code == 0
    sub, members = restricted_density_set(graph, ids, g=g)
    assert rec["graph"]["n"] == sub.n
    assert cli_set(rec) == members


@pytest.mark.parametrize("flags", [["--g-weights"], ["--h-weights"],
                                   ["--ball-radius", "1", "--min-count", "1",
                                    "--counts"]])
def test_negative_vertex_weight_names_its_line(b6_file, tmp_path, capsys,
                                               flags):
    p = tmp_path / "w.txt"
    p.write_text("# per vertex\n1\n1\n-1\n1\n1\n1\n")
    assert main(["max-density", "--graph", b6_file, "--seed", "1",
                 *flags, str(p)]) == 1
    assert f"error: {p}:4: negative weight -1.0" in capsys.readouterr().err


def test_ball_restriction_with_h_weights(three_block_file, tmp_path, capsys):
    graph, ids = fs.load_edge_list(three_block_file)
    h = per_vertex(graph.n, seed=11)
    hw = write_lines(tmp_path / "h.txt", h)
    code, rec = run_cli(capsys, ["max-density", "--graph", three_block_file,
                                 "--seed", "0", "--ball-radius", "1",
                                 "--vol", "4", "--h-weights", hw])
    assert code == 0
    sub, members = restricted_density_set(graph, ids, h=h, upper=4.0)
    assert cli_set(rec) == members
    assert h[np.searchsorted(ids, members)].sum() <= 4.0


def test_coauthor_pipeline_with_a_solo_author(tmp_path, capsys):
    # author 5 has no co-author, so the saved edge list has no line for
    # them and --counts-out has none either
    pubs = tmp_path / "pubs.txt"
    pubs.write_text("5\n7 8\n8 9\n")
    out, counts = tmp_path / "g.txt", tmp_path / "counts.txt"
    code, rec = run_cli(capsys, ["ingest-coauthor", "--pubs", str(pubs),
                                 "--out", str(out),
                                 "--counts-out", str(counts)])
    assert code == 0
    g, ids = fs.load_edge_list(out)
    assert rec["graph"] == {"n": g.n, "edges": g.num_edges} == {"n": 3,
                                                                "edges": 2}
    assert fs.load_vertex_weights(counts, g.n).tolist() == [1.0, 2.0, 1.0]
    code, rec = run_cli(capsys, ["max-density", "--graph", str(out),
                                 "--seed", str(ids[0]), "--ball-radius", "1",
                                 "--counts", str(counts), "--min-count", "1"])
    assert code == 0
    assert rec["graph"]["n"] == 2  # author 7 and their co-author 8
    assert rec["result"]["set"] == [int(i) for i in ids[:2]]


# Each subcommand's long options; a flag added or dropped shows here.
CLI_SURFACE = {
    "local-cut": ["--help", "--graph", "--seed", "--inits", "--rng", "--vol",
                  "--vol-frac", "--vol-total-frac"],
    "max-density": ["--help", "--graph", "--seed", "--inits", "--rng",
                    "--size", "--vol", "--h-weights", "--lower", "--g",
                    "--g-weights", "--ball-radius", "--counts",
                    "--min-count"],
    "max-density-global": ["--help", "--graph", "--g", "--g-weights"],
    "lrw": ["--help", "--graph", "--seed", "--objective", "--vol",
            "--max-steps", "--normalize-by-degree"],
    "oracle": ["--help", "--graph", "--objective", "--seed", "--vol",
               "--size", "--lower"],
    "ingest-coauthor": ["--help", "--pubs", "--out", "--map-out",
                        "--counts-out"],
}


def test_cli_surface_is_pinned():
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    surface = {name: [opt for action in sub._actions
                      for opt in action.option_strings
                      if opt.startswith("--")]
               for name, sub in commands.items()}
    assert surface == CLI_SURFACE


def test_oracle_help_names_the_volume_each_bound_bounds():
    # --vol and --lower bound the degree volume for ncut and |C| for
    # density; --size bounds |C| for both
    parser = _build_parser()
    oracle = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)
                  ).choices["oracle"]
    helps = {a.option_strings[0]: a.help for a in oracle._actions
             if a.option_strings[0] in ("--seed", "--vol", "--size",
                                        "--lower")}
    assert helps == {
        "--seed": "vertex ids every set must contain, comma or space "
                  "separated (default: none)",
        "--vol": "upper bound on the degree volume vol_d(C) for ncut, on "
                 "the cardinality |C| for density",
        "--size": "upper bound on the cardinality |C|, for either objective",
        "--lower": "lower bound on the degree volume vol_d(C) for ncut, on "
                   "the cardinality |C| for density",
    }
