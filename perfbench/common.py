"""Shared plumbing for the end-to-end benchmark.

Everything here is workload-independent: locating the checkout and the
``repro`` sources inside it, the serving settings both serve workloads
use, order statistics, peak memory, set-up probes and the one-line JSON
result every run ends with.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
#: Scratch space for shard caches; inside the checkout, ignored by git.
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("serve-socket", "cluster-mixed", "suite-quick")

#: Set-up is timed this many times per run (fresh interpreters); the
#: median is reported, so one slow start cannot move ``setup_s``.
SETUP_PROBES = 3

#: ``ServerConfig`` overrides shared by both serve workloads.  The stock
#: governor sheds about three quarters of a two-client closed loop (its
#: utilisation counts shed arrivals, so the saturated ticks it learns
#: service rates from measure its own admission cap).  Admission rate,
#: burst, queue bound and the initial service-rate belief are raised so
#: that nothing is shed; every other setting, including the governor's
#: one-second tick, stays stock.
SERVE_OVERRIDES = {"admission_rate": 1e6, "admission_burst": 1e6,
                   "max_queue": 1e6, "service_rate_guess": 1e6}


class BenchError(RuntimeError):
    """A run that cannot produce a result (the program is missing or broken)."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}; run from a checkout "
                         f"of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchError(f"repro imported from {where}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_rate(start: float, completions: Sequence[float],
                  windows: int = 10) -> float:
    """Median completion rate over ``windows`` runs of equally many requests.

    A closed loop's rate drifts as sessions age, and a co-tenant burst
    on a shared host stalls a few windows; the median keeps both the
    same for every run of the same work.
    """
    times = [start] + sorted(completions)
    per = (len(times) - 1) // windows
    if per < 1:
        return (len(times) - 1) / (times[-1] - start)
    rates = [per / (times[(i + 1) * per] - times[i * per])
             for i in range(windows)]
    return statistics.median(rates)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one run reports: operation counts, check failures, metrics."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def report(self, trace: bool, end_to_end: Dict[str, Tuple[float, str]],
               per_layer: Dict[str, float]) -> "Outcome":
        """Record the end-to-end metrics, or with ``trace`` every per-layer
        metric (0 where the workload bypasses the layer).  A traced run
        writes its own end-to-end figures to stderr: their difference from
        an untraced run is the tracing overhead."""
        if not trace:
            for name, (value, unit) in end_to_end.items():
                self.metric(name, value, unit)
            return self
        import layers
        print("end-to-end under tracing: " + ", ".join(
            f"{name}={value:.4g}" for name, (value, _) in end_to_end.items()),
            file=sys.stderr)
        for name, unit in layers.per_layer_units().items():
            self.metric(name, per_layer.get(name, 0.0), unit)
        return self

    @staticmethod
    def info(figures: Dict[str, float]) -> None:
        """Wall-clock figures kept out of the result line, to stderr."""
        print("wall clock: " + ", ".join(
            f"{name}={value:.4g}" for name, value in figures.items()),
            file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.errors

    def as_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

READY = "PERFBENCH-READY"


def probe_setup(workload: str, seed: int, seconds: int, smoke: bool,
                timeout: float = 90.0) -> float:
    """CPU seconds a fresh interpreter spends up to its first timed operation.

    The child (``run.py --setup-probe``) performs the workload's whole
    set-up, prints :data:`READY` with the CPU time the set-up took (its
    own, plus the serving process's for ``serve-socket``) and waits for
    its stdin to close before tearing down, so teardown is not counted.
    CPU time rather than wall time: on a shared virtual machine the
    hypervisor's steal time (a third of the wall clock at times) would
    otherwise set the figure.
    """
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--setup-probe"]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        cpu: Optional[float] = None
        assert proc.stdout is not None and proc.stdin is not None
        # A child that fails exits, which ends this loop.
        for line in proc.stdout:
            if line.startswith(READY + " "):
                cpu = float(line.split()[1])
                break
        proc.stdin.close()
        proc.wait(timeout=timeout)
        if cpu is None or proc.returncode != 0:
            raise BenchError(f"set-up probe for {workload} failed "
                             f"(exit {proc.returncode})")
        return cpu
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def setup_seconds(workload: str, seed: int, seconds: int, smoke: bool) -> float:
    probes = 1 if smoke else SETUP_PROBES
    return statistics.median(probe_setup(workload, seed, seconds, smoke)
                             for _ in range(probes))


def signal_ready(extra_cpu: float = 0.0) -> None:
    """Probe side: announce the end of set-up with its CPU seconds (this
    process's plus ``extra_cpu`` spent by helpers), then wait to be
    released."""
    print(f"{READY} {time.process_time() + extra_cpu!r}", flush=True)
    sys.stdin.read()
