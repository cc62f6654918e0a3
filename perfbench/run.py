"""End-to-end benchmark: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-socket --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke      # seconds, for tests

Workloads: ``serve-socket``, ``cluster-mixed``, ``suite-quick`` (see
README.md).  Each run does the work ``--seconds`` and ``--seed`` set
(a fixed script or suite, or whole rounds for ``--seconds`` on
serve-socket), checks the program's outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Wall-clock figures go to stderr.  ``all``
runs each workload in its own interpreter and ends with one combined
line whose metric names are prefixed with the workload.

Exits non-zero, without a result, when the program cannot be run (for
example when ``src/repro`` is missing from the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def run_workload(args: argparse.Namespace) -> common.Outcome:
    common.bootstrap()
    trace = bool(args.trace)
    if args.workload == "serve-socket":
        import serve_socket as workload
    elif args.workload == "cluster-mixed":
        import cluster_mixed as workload
    else:
        import suite_quick as workload
    return workload.run(args.seed, args.seconds, args.smoke, trace,
                        probe=args.setup_probe)


def run_all(args: argparse.Namespace) -> int:
    combined = common.Outcome()
    for name in common.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=common.ROOT, stdout=subprocess.PIPE,
                              text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined.attempted += result["attempted"]
        combined.failed += result["failed"]
        if not result["correct"]:
            combined.errors.append(name)
        for metric, entry in result["metrics"].items():
            combined.metric(f"{name}/{metric}", entry["value"], entry["unit"])
    print(combined.as_json(), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro serving stack and "
                    "experiment suite.")
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sets the amount of work (see README.md)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny work sizes: every workload and check in "
                             "seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.setup_probe:
        return 0
    for problem in outcome.errors:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(outcome.as_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
