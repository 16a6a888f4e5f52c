#!/usr/bin/env python3
"""Loads every committed BENCH_*.json through compare_bench.load.

A BENCH file that stops mid-array, or is otherwise not JSON, cannot be
compared against; this check fails on it when the tests run rather than
when a later comparison needs it.

Usage: bench_files_test.py [REPO_ROOT]   (default: this file's parent)
"""

import glob
import os
import sys

sys.dont_write_bytecode = True
ROOT = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import compare_bench  # noqa: E402


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json under {ROOT}")
        return 1
    for path in paths:
        entries = compare_bench.load(path)
        if not entries:
            print(f"{os.path.basename(path)}: no benchmarks")
            return 1
        print(f"{os.path.basename(path)}: {len(entries)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
