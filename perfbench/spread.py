#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload long_walks --seeds 1-10 \
        [--seconds 20] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the bound BENCHMARK.json gives the metric.
Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect outputs" % seed)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (name, m["value"])
            for name, m in result["metrics"].items())), file=sys.stderr)

    print("%-28s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-28s %14.6g %10.4f %8s" % (name, median, spread,
                                          "-" if bound is None else bound))


if __name__ == "__main__":
    main()
