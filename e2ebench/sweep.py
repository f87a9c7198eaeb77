#!/usr/bin/env python3
"""Collect a set of benchmark runs and report their spread.

Runs e2ebench/run.py once per (seed, workload), interleaving the
workloads, and stores each run's stdout as
<out>/<workload>.trace<0|1>.seed<n>.out. Then prints, per workload and
metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json,
and the share of failed operations.

  python3 e2ebench/sweep.py --out runs_a --seeds 1-10
  python3 e2ebench/sweep.py --out runs_a --seeds 1-5 --workloads train_snip75
  python3 e2ebench/sweep.py --out runs_a --report-only

Two such directories are compared with e2ebench/compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_runs(directory, trace):
    """{workload: {seed: result}} from the stored outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) != 4 or parts[1] != f"trace{trace}" or parts[3] != "out":
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        runs.setdefault(parts[0], {})[int(parts[2][len("seed"):])] = result
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(directory, spec, trace):
    runs = load_runs(directory, trace)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload, by_seed in sorted(runs.items()):
        results = [r for r in by_seed.values() if r is not None]
        broken = len(by_seed) - len(results)
        wrong = sum(1 for r in results if not r["correct"])
        print(f"{workload}: {len(by_seed)} runs, {broken} without a result, "
              f"{wrong} with failed checks")
        if broken or wrong:
            ok = False
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share: {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            if len(values) < 2 or None in values:
                continue
            q1, med, q3 = spread(values)
            rel = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric) if trace == 0 else None
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "  OK" if rel <= bound / 3 else (
                    "  within bound" if rel <= bound else "  TOO WIDE")
                ok &= rel <= bound
            print(f"  {metric:28s} {med:14.6g} {unit:9s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {rel:7.4f}"
                  + (f" bound {bound}{flag}" if bound is not None else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    if not args.report_only:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                path = os.path.join(
                    args.out, f"{workload}.trace{args.trace}.seed{seed}.out")
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                with open(path, "w") as f:
                    code = subprocess.run(cmd, stdout=f, cwd=ROOT).returncode
                print(f"{workload} seed {seed}: exit {code}", flush=True)
    return 0 if report(args.out, spec, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
