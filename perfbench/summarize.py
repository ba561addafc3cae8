#!/usr/bin/env python3
"""Repeat the benchmark and summarise the spread of every metric.

Run from the repository root:

    python3 perfbench/summarize.py --runs 10 --seconds 15

Every workload of BENCHMARK.json runs N times with seeds 1..N; the order
of the workloads alternates between repetitions. For every metric the
script prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the relative spread
(q3 - q1) / median. An end-to-end metric whose spread exceeds its bound
in BENCHMARK.json is flagged. The exit code is non-zero when a run fails,
a check fails, the share of failed operations differs between runs of one
workload, or a metric is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="summarise the per-layer metrics instead")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, i + 1, args.seconds,
                              args.trace)
            results[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload}: "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    bad = False
    for workload in workloads:
        runs = results[workload]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) > 1:
            print(f"{workload}: a check failed or the failed share varies "
                  f"({sorted(shares)})")
            bad = True
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            flag = ""
            bound = metric.get("bound")
            if bound is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                    bad = True
                elif spread > bound / 3:
                    flag = "  over a third of bound"
            print(f"  {metric['name']:34} {median:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.3f}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
