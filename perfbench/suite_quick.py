"""Workload ``suite-quick``: regenerating the quick experiment tables.

``run_suite(suite_jobs(quick=True))`` in this process with one job (no
pool) and a fresh, empty shard cache -- the cold run -- then a second
run served from that cache.  The suite covers every substrate, the
core loop, learning, ``explain``, the E14/E16/E18 simulations and the
engine, and bypasses the live serve stack.  The suite is fixed, so
``--seed`` and ``--seconds`` do not change its work.  An operation is
one shard of the cold run, whose CPU time is divided among its shards.

The traced run times shards, reduce, the shard cache and the code
fingerprint of the cold run from outside the engine, then makes one more
cold run (no cache) with telemetry enabled, only to read the core
loop's ``repro.obs`` phase timers: telemetry slows the suite by about
half, which would distort the shard times.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, List

import checks
import common
import layers

#: Jobs of the smoke size: the ones the property checks read, plus E9
#: for its defined NaN cell.
SMOKE_JOBS = ("E9", "E14", "E16", "E18")


def setup(smoke: bool) -> List[Any]:
    from repro.experiments.run_all import suite_jobs
    jobs = suite_jobs(quick=True)
    if smoke:
        jobs = [job for job in jobs if job.name in SMOKE_JOBS]
    return jobs


def run(seed: int, seconds: int, smoke: bool, trace: bool,
        probe: bool = False) -> common.Outcome:
    setup_s = (None if trace or probe
               else common.setup_seconds("suite-quick", seed, seconds, smoke))
    jobs = setup(smoke)
    if probe:
        common.signal_ready()
        return common.Outcome()
    from repro.experiments.engine import run_suite
    from repro.obs import TelemetrySession

    cache_dir = os.path.join(common.WORK_DIR, f"suite-cache-{os.getpid()}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    tracer = layers.Tracer() if trace else None
    values = {}
    if tracer is not None:
        layers.instrument_engine(tracer)
    try:
        start = time.perf_counter()
        cpu = time.process_time()
        cold = run_suite(jobs, n_jobs=1, cache=True, cache_dir=cache_dir)
        cpu_s = time.process_time() - cpu
        suite_s = time.perf_counter() - start
        if tracer is not None:
            values = layers.engine_layer_metrics(tracer)
            tracer.restore()
        rss_mb = common.peak_rss_mb()
        warm = run_suite(jobs, n_jobs=1, cache=True, cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    outcome = common.Outcome(attempted=cold.total_shards + warm.total_shards)
    outcome.errors.extend(checks.suite_problems(cold, warm))
    if trace:
        telemetry = TelemetrySession()
        with telemetry:
            timed = run_suite(jobs, n_jobs=1, telemetry=telemetry)
        values.update(layers.phase_metrics(telemetry.registry))
        outcome.attempted += timed.total_shards
        outcome.errors.extend(checks.table_problems(timed.tables))
    outcome.info({"suite_s": suite_s})
    end_to_end = {
        "cpu_ms_per_op": (cpu_s / cold.executed_shards * 1e3, "ms"),
        "rss_mb": (rss_mb, "MB"),
    }
    if setup_s is not None:
        end_to_end = {"setup_s": (setup_s, "s"), **end_to_end}
    return outcome.report(trace, end_to_end, values)
