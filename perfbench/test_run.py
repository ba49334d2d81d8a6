#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

    python3 perfbench/test_run.py      # from the repository root

Checks that each run's last stdout line is the result object, that its
outputs are correct, and that it reports exactly the metrics BENCHMARK.json
names for that mode (end_to_end for --trace 0, per_layer for --trace 1),
each with its declared unit and a finite value.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=600)


class BenchmarkSmokeTest(unittest.TestCase):

    def check_mode(self, workload, trace, declared):
        proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_workload_emits_declared_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_mode(workload["name"], 0, SPEC["end_to_end"])
                self.check_mode(workload["name"], 1, SPEC["per_layer"])

    def test_unknown_workload_fails_without_result(self):
        proc = run("--workload", "nope", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
