#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first call configures and builds a
Release copy of the library plus the benchmark under .bench_build/perfbench
(about a minute on 4 cores); later calls only re-check the build. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
Any further arguments (e.g. --scale 0.01, --gen-only) pass through to the
benchmark binary. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(STATE, "build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The library's own telemetry stays off in everything the benchmark runs.
SCRUBBED_ENV = ("HAMLET_TRACE", "HAMLET_COST_PROFILE", "HAMLET_METRICS_JSONL")


def child_env():
    env = dict(os.environ)
    for var in SCRUBBED_ENV:
        env.pop(var, None)
    return env


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hamlet.h")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    cmd = [BINARY,
           "--workdir", os.path.join(STATE, "work"),
           "--resultdir", os.path.join(STATE, "results")] + list(args)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def main(argv):
    if not build():
        return 1
    code, out = run(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and "--gen-only" not in argv:
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if not last.startswith('{"correct"'):
            print("perfbench: no result line", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
