#!/usr/bin/env python3
"""Checks that scripts/compare_bench.py refuses cross-host comparisons.

Writes BENCH-shaped JSON files to a temp directory and runs the script
on pairs of them: a same-host pair compares (exit 0), while a pair whose
context num_cpus or largest cache size differ is refused with exit 2, as
a debug-vs-release pair is. Also checks same_host_baseline, which picks
the baseline for scripts/run_benchmarks.sh --compare: the newest
same-host file, or none (the gate is then skipped).

Usage: compare_bench_test.py [REPO_ROOT]   (default: this file's parent)
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "compare_bench.py")
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from compare_bench import same_host_baseline  # noqa: E402


def bench_file(directory, name, num_cpus, l3_size):
    path = os.path.join(directory, name)
    doc = {
        "context": {
            "num_cpus": num_cpus,
            "hamlet_build_type": "release",
            "caches": [
                {"type": "Data", "level": 1, "size": 49152},
                {"type": "Unified", "level": 3, "size": l3_size},
            ],
        },
        "benchmarks": [
            {"name": "BM_HashJoin/1", "real_time": 10.0, "time_unit": "ms"},
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def compare(old, new):
    return subprocess.run([sys.executable, SCRIPT, old, new],
                          capture_output=True, text=True).returncode


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = bench_file(tmp, "base.json", 4, 1 << 25)
        cases = [
            ("same host", bench_file(tmp, "same.json", 4, 1 << 25), 0),
            ("num_cpus differ", bench_file(tmp, "cpus.json", 8, 1 << 25), 2),
            ("largest cache differs",
             bench_file(tmp, "cache.json", 4, 1 << 26), 2),
        ]
        failed = 0
        for what, other, want in cases:
            got = compare(base, other)
            status = "ok" if got == want else "FAILED"
            print(f"{what}: exit {got} (want {want}) {status}")
            failed += got != want

        same, cpus, cache = (path for _, path, _ in cases)
        for what, candidates, want in [
            ("baseline skips other hosts", [same, cpus, cache], same),
            ("no same-host baseline", [cpus, cache], None),
        ]:
            got = same_host_baseline(base, candidates)
            status = "ok" if got == want else "FAILED"
            print(f"{what}: {got} (want {want}) {status}")
            failed += got != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
