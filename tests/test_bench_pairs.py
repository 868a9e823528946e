"""The verdict of tools/bench_pairs.py on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "solves_per_s", "better": "higher", "bound": 0.25},
    {"name": "solve_s_p50", "better": "lower", "bound": 0.25},
    {"name": "value_gmean", "better": "lower", "bound": 0.2},
]


def runs_of(parent, change, failed=(0, 0), quality=(1.0, 1.0), setup=None):
    """Runs whose solves_per_s are ``parent`` and ``change``; their setup_s
    are ``setup`` = (parent values, change values), or 1.0 throughout."""
    setup = setup or ([1.0] * len(parent), [1.0] * len(change))

    def side(values, fails, value_gmean, setup_s, first):
        # the parent runs first in odd pairs, as in main()
        return [{"failed": fails, "ran_first": (i % 2 == 0) == first,
                 "metrics": {"setup_s": t, "solves_per_s": v,
                             "solve_s_p50": 1.0 / v,
                             "value_gmean": value_gmean}}
                for i, (v, t) in enumerate(zip(values, setup_s))]
    return {"parent": side(parent, failed[0], quality[0], setup[0], True),
            "change": side(change, failed[1], quality[1], setup[1], False)}


def judge(runs):
    summary = bench_pairs.summarize(runs, END_TO_END)
    return summary, bench_pairs.verdict(summary, runs, "solves_per_s", "higher")


def test_clear_gain_is_claimed():
    parent = [2.6 + 0.02 * i for i in range(10)]
    summary, v = judge(runs_of(parent, [5.6 + 0.01 * i for i in range(10)]))
    assert v["claim_met"] and v["pairs_won"] == 10 and v["metrics_worse"] == []
    assert v["parent_iqr"] == pytest.approx(0.09)
    s = summary["solve_s_p50"]
    assert s["pairs_change_better"] == 10 and not s["worse_by_more_than_bound"]
    assert s["change_vs_parent"] < 0


@pytest.mark.parametrize("case", ["eight_wins", "inside_spread", "more_failed",
                                  "three_pairs", "quality_lost"])
def test_claim_refused(case):
    parent = [2.0 + 0.1 * i for i in range(10)]
    change = [v + 0.05 for v in parent]          # wins 10 pairs, gap 0.05
    failed, quality = (0, 0), (1.0, 1.0)
    if case == "three_pairs":
        parent, change = parent[:3], [v + 2.0 for v in parent[:3]]
    elif case == "eight_wins":
        change = [v + 2.0 for v in parent[:8]] + [v - 0.01 for v in parent[8:]]
    elif case == "more_failed":
        change, failed = [v + 2.0 for v in parent], (0, 1)
    elif case == "quality_lost":
        # a clear speed gain that returns 30% worse sets
        change, quality = [v + 2.0 for v in parent], (1.0, 1.3)
    summary, v = judge(runs_of(parent, change, failed, quality))
    assert not v["claim_met"]
    if case == "quality_lost":
        assert v["pairs_won"] == 10 and v["median_gap"] > v["parent_iqr"]
        assert v["metrics_worse"] == ["value_gmean"]
    if case == "inside_spread":
        assert v["pairs_won"] == 10 and v["median_gap"] < v["parent_iqr"]


def test_bound_check_reads_direction():
    summary, v = judge(runs_of([4.0] * 10, [2.0] * 10))
    assert summary["solves_per_s"]["worse_by_more_than_bound"]
    assert summary["solve_s_p50"]["worse_by_more_than_bound"]
    assert summary["solves_per_s"]["pairs_change_worse"] == 10
    assert not v["claim_met"]


def test_lower_is_better_claim_on_setup():
    speed = [3.0 + 0.01 * i for i in range(10)]
    parent = [1.40 + 0.01 * i for i in range(10)]
    runs = runs_of(speed, speed, setup=(parent, [0.8 + 0.01 * i
                                                 for i in range(10)]))
    summary = bench_pairs.summarize(runs, END_TO_END)
    v = bench_pairs.verdict(summary, runs, "setup_s", "lower")
    assert v["claim_met"] and v["pairs_won"] == 10
    assert v["median_gap"] == pytest.approx(0.6)
    assert summary["setup_s"]["change_vs_parent"] < 0
    # the same runs read the other way round: a slower set-up is no gain,
    # and it is worse than the bound
    runs = {"parent": runs["change"], "change": runs["parent"]}
    summary = bench_pairs.summarize(runs, END_TO_END)
    v = bench_pairs.verdict(summary, runs, "setup_s", "lower")
    assert not v["claim_met"] and v["pairs_won"] == 0
    assert v["metrics_worse"] == ["setup_s"]


def test_metric_must_be_an_end_to_end_metric(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "local-cut", "--seed", "1",
                          "--metric", "inner.solves"])
    assert "no end-to-end metric" in capsys.readouterr().err


def test_pairs_must_be_a_positive_even_count(monkeypatch, capsys):
    # alternation gives each side as many first runs only over an even
    # count; the count is refused before anything is exported
    def checkouts(tmp, parent):
        raise AssertionError("exported before the count was checked")

    monkeypatch.setattr(bench_pairs, "checkouts", checkouts)
    for pairs in ("3", "0", "-2"):
        with pytest.raises(SystemExit):
            bench_pairs.main(["--workload", "local-cut", "--seed", "1",
                              "--pairs", pairs])
        assert f"--pairs {pairs} is not a positive even count" in \
            capsys.readouterr().err


@pytest.mark.skipif(not (bench_pairs.ROOT / ".git").exists(),
                    reason="exports need the repository's git data")
def test_neither_side_runs_in_the_repository(tmp_path):
    # both sides run in fresh exports: a run in the working tree would
    # start with the perfbench/out of earlier runs, the parent's without
    dirs, tree = bench_pairs.checkouts(tmp_path, "HEAD")
    root = bench_pairs.ROOT.resolve()
    assert sorted(dirs) == ["change", "parent"]
    for path in dirs.values():
        path = path.resolve()
        assert path != root and root not in path.parents
        assert (path / "perfbench" / "run.py").is_file()
        assert not (path / "perfbench" / "out").exists()
    # the change is the working tree as it stands, this file included
    here = Path(__file__).resolve()
    name = here.relative_to(root).as_posix()
    assert (dirs["change"] / name).read_bytes() == here.read_bytes()
    blob = bench_pairs.git("hash-object", str(here))
    assert bench_pairs.git("rev-parse", f"{tree}:{name}") == blob


def test_wide_parent_spread_is_unresolved():
    # the parent's solves_per_s spread 2.0..3.8, an IQR of a third of its
    # median, wider than the 25% bound: overlapping change runs leave it
    # unresolved, and the claim is judged as before
    parent = [2.0 + 0.2 * i for i in range(10)]
    summary, v = judge(runs_of(parent, [x + 0.1 for x in parent]))
    assert summary["solves_per_s"]["unresolved"]
    assert v["unresolved"] == ["solve_s_p50", "solves_per_s"]
    assert not v["claim_met"] and v["metrics_worse"] == []
    # every change run beats every parent run: resolved, and a gain
    summary, v = judge(runs_of(parent, [x + 2.0 for x in parent]))
    assert v["unresolved"] == [] and v["claim_met"]
    # a spread inside the bound is resolved whatever the runs read
    summary, v = judge(runs_of([3.0 + 0.01 * i for i in range(10)],
                               [3.0] * 10))
    assert v["unresolved"] == []


def stub_runs(tmp_path, monkeypatch, solves_per_s, layers=None):
    """main() on made-up runs in a repository under ``tmp_path``: no git,
    no export, and each run's solves_per_s is ``solves_per_s(checkout,
    trace)``; a traced run's per-layer metrics are ``layers(checkout)``
    where it names them, and every other metric is 1.0.  Returns
    (repository, temporary directory)."""
    root, temp = tmp_path / "repo", tmp_path / "tmp"
    root.mkdir()
    temp.mkdir()
    bench = (bench_pairs.ROOT / "BENCHMARK.json").read_text()
    (root / "BENCHMARK.json").write_text(bench)
    specs = json.loads(bench)
    names = [spec["name"] for spec in specs["end_to_end"]]
    layer_names = [spec["name"] for spec in specs["per_layer"]]
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(temp))
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: "0" * 40)
    monkeypatch.setattr(bench_pairs, "checkouts", lambda tmp, parent: (
        {"parent": "parent", "change": "change"}, "tree"))

    def run_bench(checkout, workload, seed, seconds, trace):
        metrics = {name: {"value": 1.0}
                   for name in names + (layer_names if trace else [])}
        metrics["solves_per_s"]["value"] = solves_per_s(checkout, trace)
        if trace and layers:
            for name, value in layers(checkout).items():
                metrics[name]["value"] = value
        return {"correct": 1, "attempted": 1, "failed": 0,
                "metrics": metrics}, {}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    return root, temp


def test_warm_up_runs_come_first_and_stay_out_of_the_record(
        tmp_path, monkeypatch):
    # one untraced run per side, parent first, before the alternating
    # pairs; the record holds the pairs alone, and the warm-ups' values
    # (here 100) reach no metric
    calls = []

    def solves_per_s(checkout, trace):
        calls.append((checkout, trace))
        return 100.0 if len(calls) <= 2 else 1.0

    _, temp = stub_runs(tmp_path, monkeypatch, solves_per_s)
    bench_pairs.main(["--workload", "local-cut", "--seed", "1",
                      "--pairs", "4"])
    assert calls == [("parent", 0), ("change", 0),
                     ("parent", 0), ("change", 0),
                     ("change", 0), ("parent", 0),
                     ("parent", 0), ("change", 0),
                     ("change", 0), ("parent", 0),
                     ("parent", 1), ("change", 1),
                     ("change", 1), ("parent", 1),
                     ("parent", 1), ("change", 1),
                     ("change", 1), ("parent", 1),
                     ("parent", 1), ("change", 1)]
    record = json.loads((temp / "BENCH_local-cut.json").read_text())
    assert [r["pair"] for r in record["runs"]["parent"]] == [1, 2, 3, 4]
    assert [r["pair"] for r in record["runs"]["change"]] == [1, 2, 3, 4]
    assert record["summary"]["solves_per_s"]["parent"]["q3"] == 1.0


def test_only_a_met_claim_writes_into_the_repository(tmp_path, monkeypatch,
                                                     capsys):
    # a run whose claim is not met must keep the committed record of a
    # claim: its record goes to the temporary directory, and the closing
    # line names it.  The runs are made up: the change doubles solves_per_s
    # or leaves every metric as the parent's
    gain = {}
    root, temp = stub_runs(tmp_path, monkeypatch,
                           lambda checkout, trace: gain.get(checkout, 1.0))
    name = "BENCH_global-density.json"
    args = ["--workload", "global-density", "--seed", "1"]
    bench_pairs.main(args + ["--pairs", "2"])
    record = json.loads((temp / name).read_text())
    assert not record["verdict"]["claim_met"] and not (root / name).exists()
    assert capsys.readouterr().out.rstrip().endswith(str(temp / name))
    gain["change"] = 2.0
    bench_pairs.main(args)
    record = json.loads((root / name).read_text())
    assert record["verdict"]["claim_met"] and record["pairs"] == 10
    assert capsys.readouterr().out.rstrip().endswith(str(root / name))


def test_layer_metrics_are_medians_of_alternating_traced_passes(
        tmp_path, monkeypatch):
    # TRACE_PASSES traced passes per side, the parent first in odd passes;
    # each layer metric is recorded as its median over a side's passes, and
    # the record says whether every count read the same in each pass
    order, seconds = [], {"parent": [5.0, 1.0, 4.0, 2.0, 3.0],
                          "change": [0.4, 0.9, 0.1, 0.7, 0.2]}
    solves = {"parent": [7, 7, 7, 7, 7], "change": [7, 7, 8, 7, 7]}

    def layers(checkout):
        k = sum(side == checkout for side in order)
        order.append(checkout)
        return {"inner.self_s": seconds[checkout][k],
                "inner.solves": solves[checkout][k]}

    _, temp = stub_runs(tmp_path, monkeypatch,
                        lambda checkout, trace: 1.0, layers)
    bench_pairs.main(["--workload", "local-cut", "--seed", "1",
                      "--pairs", "2"])
    assert order == ["parent", "change", "change", "parent", "parent",
                     "change", "change", "parent", "parent", "change"]
    trace = json.loads((temp / "BENCH_local-cut.json").read_text())["trace"]
    assert trace["passes"] == 5
    assert trace["parent"]["inner.self_s"] == 3.0
    assert trace["change"]["inner.self_s"] == 0.4
    assert trace["parent"]["inner.solves"] == trace["change"]["inner.solves"] \
        == 7.0
    assert trace["parent"]["solves_per_s"] == 1.0
    assert trace["counts_same_in_every_pass"] == {"parent": True,
                                                  "change": False}


def test_run_order_effect_is_recorded_and_printed(tmp_path, monkeypatch,
                                                  capsys):
    # the first run of every pair reads 10% higher solves_per_s than the
    # second, whichever side it is; the warm-ups and traced passes do not
    # count, and a metric that reads the same in both runs shows no effect
    calls = []

    def solves_per_s(checkout, trace):
        calls.append(checkout)
        pair_run = len(calls) - 3          # after the two warm-ups
        return 1.1 if not trace and pair_run >= 0 and pair_run % 2 == 0 \
            else 1.0

    _, temp = stub_runs(tmp_path, monkeypatch, solves_per_s)
    bench_pairs.main(["--workload", "desk-batch", "--seed", "1",
                      "--pairs", "4"])
    summary = json.loads((temp / "BENCH_desk-batch.json").read_text())[
        "summary"]
    assert summary["solves_per_s"]["first_vs_second"] == pytest.approx(0.1)
    assert summary["solves_per_s"]["pairs_change_better"] == 2
    assert summary["setup_s"]["first_vs_second"] == 0.0
    assert "the first run of a pair read +10.00% against the second" in \
        capsys.readouterr().out.splitlines()[-1]
