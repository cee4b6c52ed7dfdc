"""Tests of the benchmark harness, run against the real workloads.

    python3 -m unittest discover -s perfbench/tests

They check that every name in BENCHMARK.json is well formed, that every
workload emits exactly the five end-to-end metrics with their units and
passes its output checks, and that every count metric repeats exactly
across two traced runs. About three minutes on a 2-core host.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, seed=1):
    """One short run; returns its result line."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


class MetricNames(unittest.TestCase):
    def test_every_name_is_well_formed_and_unique(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))


class EndToEnd(unittest.TestCase):
    def test_every_workload_emits_the_five_metrics(self):
        spec = load_spec()
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(len(expected), 5)
        for workload in spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, result = run(workload["name"], 0)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


class Counts(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        spec = load_spec()
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        for workload in spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                first_code, first = run(workload["name"], 1, seed=3)
                second_code, second = run(workload["name"], 1, seed=3)
                self.assertEqual((first_code, second_code), (0, 0))
                self.assertEqual(set(first["metrics"]),
                                 {m["name"] for m in spec["per_layer"]})
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
