"""The verdict of tools/bench_pairs.py on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "solves_per_s", "better": "higher", "bound": 0.25},
    {"name": "solve_s_p50", "better": "lower", "bound": 0.25},
    {"name": "value_gmean", "better": "lower", "bound": 0.2},
]


def runs_of(parent, change, failed=(0, 0), quality=(1.0, 1.0)):
    def side(values, fails, value_gmean):
        return [{"failed": fails, "metrics": {"solves_per_s": v,
                                              "solve_s_p50": 1.0 / v,
                                              "value_gmean": value_gmean}}
                for v in values]
    return {"parent": side(parent, failed[0], quality[0]),
            "change": side(change, failed[1], quality[1])}


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
