#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks that
  - the same seed produces the same CSV bytes (CRC-32, rows and size of
    every file), and another seed other bytes of the same shape;
  - a tiny-scale run of every workload passes every output check and
    reports every metric BENCHMARK.json names.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.01", "--seconds", "1"]


def bench(*args):
    code, out = run.run(list(args))
    lines = out.strip().splitlines()
    return code, [json.loads(line) for line in lines if line.startswith("{")]


class InputTest(unittest.TestCase):
    def manifest(self, workload, seed):
        code, lines = bench("--workload", workload, "--seed", str(seed),
                            "--scale", "0.01", "--gen-only")
        self.assertEqual(code, 0)
        return lines[0]["inputs"]

    def test_same_seed_same_bytes(self):
        for workload in WORKLOADS:
            first = self.manifest(workload, 5)
            self.assertEqual(first, self.manifest(workload, 5), workload)
            other = self.manifest(workload, 6)
            self.assertEqual([(f["rows"], f["bytes"]) for f in first],
                             [(f["rows"], f["bytes"]) for f in other])
            self.assertNotEqual([f["crc32"] for f in first],
                                [f["crc32"] for f in other])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, names):
        code, lines = bench("--workload", workload, "--seed", "1",
                            "--trace", str(trace), *TINY)
        self.assertEqual(code, 0, workload)
        result = lines[-1]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names), workload)
        return result["metrics"]

    def test_every_workload_end_to_end(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in WORKLOADS:
            metrics = self.check(workload, 0, names)
            for name in names:
                self.assertGreater(metrics[name]["value"], 0,
                                   f"{workload} {name}")

    def test_every_workload_traced(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in WORKLOADS:
            metrics = self.check(workload, 1, names)
            self.assertEqual(metrics["error_rate"]["value"], 0)


if __name__ == "__main__":
    if not run.build():
        sys.exit(1)
    unittest.main()
