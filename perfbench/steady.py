"""Steadiness: run a workload k times and compare sets of runs.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py run --workload cluster-mixed -k 10 --first-seed 1 --out a.json
    python3 perfbench/steady.py compare a.json b.json

``run`` executes ``run.py`` k times with seeds ``first-seed ..
first-seed+k-1`` and ``--seconds`` from ``BENCHMARK.json``, prints each
metric's median and quartiles with its spread -- the distance between
the quartiles as a share of the median -- against the metric's bound,
and saves every result.  ``compare`` checks a second set against a
first: for each end-to-end metric the second median may be worse than
the first by at most the bound, each spread (``setup_s`` excepted) must
stay within the bound, and the share of failed operations must be
identical.  Exit status 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_set(workload: str, k: int, first_seed: int,
            seconds: int) -> List[Dict[str, Any]]:
    results = []
    for seed in range(first_seed, first_seed + k):
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=common.ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        print(f"  seed {seed}: " + ", ".join(
            f"{name}={entry['value']:.4g}"
            for name, entry in result["metrics"].items()), flush=True)
    return results


def summarise(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    names = results[0]["metrics"]
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        out[name] = {"q1": q1, "median": median, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def failed_share(results: List[Dict[str, Any]]) -> List[float]:
    return sorted({r["failed"] / r["attempted"] for r in results})


def report(workload: str, results: List[Dict[str, Any]],
           bounds: Dict[str, float]) -> bool:
    ok = all(r["correct"] for r in results)
    print(f"{workload}: {len(results)} runs, correct={ok}, failed share "
          f"{failed_share(results)}")
    for name, s in summarise(results).items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = f"bound {bound:.2f} ({s['spread'] / bound:.2f} of it)"
            if name != "setup_s" and s["spread"] > bound:
                ok = False
                flag += "  TOO WIDE"
        print(f"  {name:<16} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
              f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  {flag}")
    return ok


def compare(first: Dict[str, Any], second: Dict[str, Any],
            spec: Dict[str, Any]) -> bool:
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in sorted(set(first) & set(second)):
            a, b = summarise(first[workload]), summarise(second[workload])
            if name not in a or name not in b:
                continue
            worse = ((b[name]["median"] - a[name]["median"]) if lower
                     else (a[name]["median"] - b[name]["median"]))
            share = worse / a[name]["median"]
            wide = name != "setup_s" and max(a[name]["spread"],
                                             b[name]["spread"]) > bound
            verdict = ("WORSE THAN BOUND" if share > bound
                       else "SPREAD WIDER THAN BOUND" if wide else "ok")
            ok &= verdict == "ok"
            print(f"{workload:<14} {name:<16} {a[name]['median']:.5g} -> "
                  f"{b[name]['median']:.5g}  worse by {share:+.4f}, spreads "
                  f"{a[name]['spread']:.4f} / {b[name]['spread']:.4f} "
                  f"(bound {bound})  {verdict}")
    for workload in sorted(set(first) & set(second)):
        if failed_share(first[workload]) != failed_share(second[workload]):
            ok = False
            print(f"{workload}: failed share differs: "
                  f"{failed_share(first[workload])} vs "
                  f"{failed_share(second[workload])}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--workload", action="append", required=True,
                       choices=common.WORKLOADS)
    run_p.add_argument("-k", type=int, default=10)
    run_p.add_argument("--first-seed", type=int, default=1)
    run_p.add_argument("--out", required=True)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("first")
    cmp_p.add_argument("second")
    args = parser.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.command == "run":
        sets, ok = {}, True
        for workload in args.workload:
            sets[workload] = run_set(workload, args.k, args.first_seed,
                                     spec["run_seconds"])
            ok &= report(workload, sets[workload], bounds)
        with open(args.out, "w") as handle:
            json.dump(sets, handle, indent=1)
        return 0 if ok else 1
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    return 0 if compare(first, second, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
