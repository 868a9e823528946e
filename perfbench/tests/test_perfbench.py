"""Tests for the benchmark's own code: generators, checks, tracer, spec.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracset as fs
import run
from hostclock import PROBE_REF_S, HostClock
from tracer import TARGETS, Tracer, _owner, _self_times, layer_metrics
from workloads import MEASURED, WORKLOADS, evaluate

ROOT = Path(__file__).resolve().parents[2]

# Desk-scale variants of every workload: same generators, fewer and smaller inputs.
TINY = {
    "local-cut": replace(WORKLOADS["local-cut"], queries=2, blocks=2, block_size=4),
    "density": replace(WORKLOADS["density"], queries=2, n=120, community=12,
                       upper=8.0, inits=1),
    "global-density": replace(WORKLOADS["global-density"], queries=2, n=150,
                              community=12),
    "desk-batch": replace(WORKLOADS["desk-batch"], queries=4, inits=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_deterministic(name, tmp_path):
    workload = TINY[name]
    a = workload.setup(fs, 7, tmp_path)
    b = workload.setup(fs, 7, tmp_path)
    c = workload.setup(fs, 8, tmp_path)

    def arrays(setup):
        return [np.concatenate([[q.edges[0]], *q.edges[1:]]) for q in setup.queries]

    assert len(a.queries) == len(b.queries)
    assert all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))
    assert [q.seed for q in a.queries] == [q.seed for q in b.queries]
    assert [q.bound for q in a.queries] == [q.bound for q in b.queries]
    assert any(x.shape != y.shape or not np.array_equal(x, y)
               for x, y in zip(arrays(a), arrays(c)))


def test_checks_catch_wrong_answers(tmp_path):
    q = TINY["desk-batch"].setup(fs, 3, tmp_path).queries[0]
    n = q.edges[0]
    best = fs.brute_force(
        q.graph, lambda C: fs.cut_value(q.graph, C),
        lambda C: fs.volume(q.graph.degrees, C)
        * (q.graph.degrees.sum() - fs.volume(q.graph.degrees, C)),
        constraints=[fs.VolumeConstraint(q.graph.degrees, q.bound)],
        seed=(q.seed,))
    members = q.ids[best.best_set]
    true, feasible, problems = evaluate(q, members, best.best_value)
    assert feasible and not problems and abs(true - q.reference) < 1e-12
    assert evaluate(q, members, best.best_value * 1.01)[2]
    assert evaluate(q, members, float("nan"))[2]
    assert evaluate(q, members, best.best_value - 1e-6)[2]
    without_seed = np.setdiff1d(np.arange(n), [q.seed])
    assert any("seed" in p for p in evaluate(q, without_seed, 1.0)[2])
    everything = np.arange(n)
    _, feasible, problems = evaluate(q, everything, 1.0)
    assert not feasible and any("bound" in p for p in problems)


def _originals():
    return {(path, attr): _owner(path).__dict__[attr] for path, attr, _ in TARGETS}


@pytest.mark.parametrize("name", ["local-cut", "global-density"])
def test_traced_run_counts_add_up_and_restores(name, tmp_path):
    before = _originals()
    setup = TINY[name].setup(fs, 1, tmp_path)
    metrics, tracer, records = run.traced_run(fs, setup)
    assert _originals() == before
    assert all(_owner(p).__dict__[a] is before[(p, a)] for p, a, _ in TARGETS)
    assert len(records) == len(setup.queries)
    assert not any(r["problems"] for r in records)

    spans = tracer.spans
    per_solve = [s[6]["iterations"] for s in spans if s[1] == "solve_inner"]
    value = {k: v for k, (v, _) in metrics.items()}
    assert value["inner.iterations"] == sum(per_solve)
    assert value["inner.solves"] == len(per_solve)
    assert value["ratiodca.starts"] >= value["ratiodca.gamma_rounds"]
    _, self_s = _self_times(spans)
    assert np.all(self_s >= -1e-9)
    assert all(v >= 0 for k, v in value.items() if k.endswith("self_s"))
    assert all(s[3] is not None and s[3] >= s[2] for s in spans)
    if name == "local-cut":
        assert value["inner.solves"] > 0 and value["maxflow.max_flow_calls"] == 0
    else:
        assert value["maxflow.max_flow_calls"] > 0 and value["inner.solves"] == 0


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert fs.ratiodca.solve_inner is not before[("fracset.ratiodca", "solve_inner")]
            raise RuntimeError
    assert _originals() == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(MEASURED)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    layer = dict(layer_metrics([], set()))
    extra = {"graph.load_s": "s", "baselines.oracle_s": "s",
             "bench.trace_overhead_s": "s", "error_rate": "fraction"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {**{k: u for k, (_, u) in layer.items()}, **extra}
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_time_metrics_weigh_every_query_once():
    def rec(q, times, problems=()):
        return {"query": q, "times": list(times), "problems": list(problems),
                "value": 1.0, "relative": None, "feasible": not problems,
                "hit": True}

    # Query 0 was repeated once before the deadline; query 3 failed a check.
    records = [rec(0, [1.0, 2.0]), rec(1, [3.0]), rec(2, [2.0]),
               rec(3, [50.0], ["raised IndexError"])]
    assert list(run.query_seconds(np, records)) == [1.5, 3.0, 2.0]
    metrics = run.end_to_end(np, records, 0.1)
    assert metrics["solve_s_p50"] == 2.0
    assert metrics["solves_per_s"] == pytest.approx(3 / 4 * 3 / 6.5)


def test_repeats_redo_the_same_work(tmp_path):
    setup = TINY["desk-batch"].setup(fs, 2, tmp_path)
    clock = HostClock()
    records, answers = run.quality_pass(fs, setup.queries, clock)
    first = [r["value"] for r in records]
    assert run.repeat_pass(fs, setup.queries, records, answers, float("inf"), clock)
    assert [r["value"] for r in records] == first
    assert not any(r["problems"] for r in records)
    assert all(len(r["times"]) == len(r["cpu"]) == 2 for r in records)
    assert not run.repeat_pass(fs, setup.queries, records, answers, 0.0, clock)
    assert all(len(r["times"]) == 2 for r in records)


def test_host_clock_scales_by_the_probes_around_a_call():
    clock = HostClock()
    before = clock.probe()
    result, raw, corrected = clock.call(lambda: sum(range(100000)))
    after = clock.last
    assert result == sum(range(100000)) and raw > 0
    assert corrected == pytest.approx(raw * PROBE_REF_S * 2 / (before + after))
    assert clock.units == [before, after]
    with pytest.raises(ZeroDivisionError):
        clock.call(lambda: 1 / 0)
    assert len(clock.units) == 3      # the probe after a failed call still ran
