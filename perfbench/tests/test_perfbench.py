"""The benchmark's own tests: smoke runs, the checks' self-test, steadiness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--smoke`` sizes, so every workload and its checks
finish in seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import common  # noqa: E402
import steady  # noqa: E402

common.bootstrap()


def _spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=common.ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_and_reports_every_metric(trace):
    spec = _spec()
    proc = _run("--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(spec["workloads"]) + 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[kind]}
    for workload, result in zip(spec["workloads"], results):
        assert result["correct"], (workload["name"], proc.stderr)
        assert result["failed"] == 0 and result["attempted"] >= 1
        for name, entry in result["metrics"].items():
            assert names[name] == entry["unit"]
            assert math.isfinite(entry["value"])
        assert set(result["metrics"]) == set(names)
        if trace == "0":
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())


def test_spec_matches_the_reported_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "cpu_ms_per_op", "rss_mb"}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    import layers
    assert [m["name"] for m in spec["per_layer"]] == list(
        layers.per_layer_units())


def test_bare_directory_exits_without_a_result():
    bare = os.path.join(common.WORK_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cluster-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _record(steps):
    from repro.api import SensornetConfig, make_simulator
    config = SensornetConfig(n_channels=4, seed=7)
    sim = make_simulator("sensornet", config)
    sim.reset(7)
    for _ in range(steps):
        sim.step()
    wire = json.loads(json.dumps({"m": sim.metrics(), "s": sim.snapshot()}))
    return checks.SessionRecord("s1", "sensornet", config, steps,
                                wire["m"], wire["s"])


def test_replay_check_accepts_a_true_record_and_rejects_planted_errors():
    assert checks.replay_problems([_record(30)]) == []
    corrupted = _record(30)
    corrupted.snapshot = checks._corrupt(corrupted.snapshot)
    assert checks.replay_problems([corrupted])
    skipped = _record(29)
    skipped.steps = 30
    assert checks.replay_problems([skipped])
    assert checks.ack_problems("s1", 30, {"ok": True, "steps_taken": 29})


def _tables():
    from repro.experiments.harness import ExperimentTable
    e14 = ExperimentTable("E14", "serving", ["offered_load", "arm", "goodput"])
    e14.add_row(offered_load=4.0, arm="static", goodput=3.7)
    e14.add_row(offered_load=16.0, arm="static", goodput=7.95)
    e14.add_row(offered_load=16.0, arm="governor", goodput=14.85)
    e16 = ExperimentTable("E16", "cluster", ["traffic", "arm", "goodput"])
    e16.add_row(traffic="skewed", arm="collective", goodput=28.84)
    e16.add_row(traffic="skewed", arm="per_node", goodput=17.85)
    e18 = ExperimentTable("E18", "twin", ["arm", "live_rank", "twin_rank"])
    e18.add_row(arm="self_aware", live_rank=1.0, twin_rank=1.0)
    e18.append_note("rank agreement (live ordering == twin ordering): 1.00 "
                    "over 1 seed(s)")
    e9 = ExperimentTable("E9", "collective",
                         ["scheme", "mean_error", "aware_fraction"])
    e9.add_row(scheme="central", mean_error=math.nan, aware_fraction=0.0)
    return [e9, e14, e16, e18]


def test_table_checks_accept_true_tables_and_reject_altered_cells():
    assert checks.table_problems(_tables()) == []
    for experiment, row, column, value in [("E14", 2, "goodput", 7.0),
                                           ("E16", 0, "goodput", 17.0),
                                           ("E18", 0, "twin_rank", 2.0),
                                           ("E9", 0, "aware_fraction", 0.5),
                                           ("E14", 0, "goodput", math.inf)]:
        tables = _tables()
        table = next(t for t in tables if t.experiment_id == experiment)
        table.rows[row][column] = value
        assert checks.table_problems(tables), (experiment, column, value)


def test_steadiness_compare_applies_the_bounds():
    spec = {"end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher",
         "bound": 0.1}]}

    def runs(values, failed=0):
        return {"w": [{"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {"throughput_rps": {"value": v,
                                                      "unit": "req/s"}}}
                      for v in values]}

    base = runs([100, 101, 99, 100])
    assert steady.compare(base, runs([98, 97, 99, 98]), spec)
    assert not steady.compare(base, runs([80, 81, 79, 80]), spec)
    assert not steady.compare(base, runs([70, 130, 100, 100]), spec)
    assert not steady.compare(base, runs([100, 101, 99, 100], failed=1), spec)
