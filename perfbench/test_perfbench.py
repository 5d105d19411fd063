#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny size of every workload.

    python3 perfbench/test_perfbench.py

Runs each workload of BENCHMARK.json through run.py at the self-test
size (CNN-LSTM only, 1 s) and asserts that
  - the untraced run prints every end-to-end metric with its unit, the
    traced run every per-layer metric, and both pass their output checks;
  - a deliberately perturbed golden trips the output check: the run
    reports correct=false and a failed operation, and exits non-zero.
Builds into .bench_build/ under the repository root, like run.py.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class Workloads(unittest.TestCase):
    def check_metrics(self, result, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, result, err = run(workload["name"], trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, key)

    def test_perturbed_golden_trips_the_check(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, result, err = run(workload["name"], 0,
                                        "--perturb-golden")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("CHECK FAILED", err)


if __name__ == "__main__":
    unittest.main()
