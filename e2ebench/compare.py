#!/usr/bin/env python3
"""Compare two sets of benchmark runs (e.g. parent vs change).

Each set is a directory written by e2ebench/sweep.py. Runs are paired
by seed (and workload). Per workload and metric this prints each
side's median and quartiles, the number of pairs the change (B) wins,
and a verdict under the bounds in BENCHMARK.json:

  improved     B better in >= 9/10 of the pairs, and the medians
               differ by more than A's own quartile spread;
  REGRESSED    B worse in >= 9/10 of the pairs, and B's median worse
               than A's by more than the metric's bound;
  unresolved   A's own spread is wider than the bound, or B's median
               is worse by more than the bound without 9/10 pairs
               agreeing; more runs are needed;
  same         otherwise (B's median within the bound of A's).

Per-layer metrics (--trace 1 sets) have no bound; they get
"improved", "worse" or "same" by the pairs rule alone.

  python3 e2ebench/compare.py runs_parent runs_change [--trace 1]

Exit status 1 when any end-to-end metric REGRESSED.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from sweep import load_runs  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """a, b: values of paired runs (same seeds)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    need = 0.9 * len(a)
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    worse_by = sign * (a_med - b_med) / a_med if a_med else 0.0
    if wins >= need and abs(b_med - a_med) > a_q3 - a_q1:
        return wins, "improved"
    if bound is None:
        return wins, "worse" if losses >= need else "same"
    if losses >= need and worse_by > bound:
        return wins, "REGRESSED"
    if worse_by > bound or (a_q3 - a_q1) / a_med > bound:
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", help="baseline run directory (parent)")
    ap.add_argument("b", help="candidate run directory (change)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: m for m in group}
    runs_a = load_runs(args.a, args.trace)
    runs_b = load_runs(args.b, args.trace)

    regressed = False
    for workload in sorted(set(runs_a) & set(runs_b)):
        seeds = sorted(s for s in set(runs_a[workload]) & set(runs_b[workload])
                       if runs_a[workload][s] and runs_b[workload][s])
        print(f"{workload}: {len(seeds)} pairs")
        for side, runs in (("A", runs_a), ("B", runs_b)):
            results = [runs[workload][s] for s in seeds]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            wrong = sum(1 for r in results if not r["correct"])
            print(f"  {side}: {attempted} operations attempted, {failed} "
                  f"failed, {wrong} runs with failed checks")
        if not seeds:
            continue
        print(f"  {'metric':28s} {'unit':9s} {'A q1':>10s} {'A median':>10s} "
              f"{'A q3':>10s} {'B q1':>10s} {'B median':>10s} {'B q3':>10s} "
              f"{'B wins':>7s}  verdict")
        for name, m in metrics.items():
            a = [runs_a[workload][s]["metrics"][name]["value"] for s in seeds]
            b = [runs_b[workload][s]["metrics"][name]["value"] for s in seeds]
            wins, word = verdict(a, b, m["better"], m.get("bound"))
            regressed |= word == "REGRESSED"
            cells = [f"{v:10.4g}" for v in quartiles(a) + quartiles(b)]
            print(f"  {name:28s} {m['unit']:9s} {' '.join(cells)} "
                  f"{wins:3d}/{len(seeds):<3d}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
