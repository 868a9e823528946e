import json

import numpy as np
import pytest

import fracset as fs
from fracset.cli import main

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


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    code = main(["local-cut", "--graph", str(bad), "--seed", "1", "--vol", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "self-loop" in err


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
    assert cnt.sum() == 3 + 2 + 1  # total author-publication incidences


def test_lrw_without_bound_handles_degenerate(b6_file, capsys):
    code, rec = run_cli(capsys, ["lrw", "--graph", b6_file, "--seed", "1",
                                 "--objective", "density"])
    assert code == 0
