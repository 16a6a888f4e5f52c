#!/usr/bin/env python3
"""Compares two google-benchmark JSON files and fails on regressions.

Usage: compare_bench.py OLD.json NEW.json [--threshold 0.10]

Refuses (exit 2) to compare files from different build types or
different hosts (context num_cpus or largest cache size differ).
Benchmarks are matched by full name ("BM_Foo/25"). Only the feature
selection / Naive Bayes microbenches gate (see GATED below) — the rest of
the suite is reported but informational, since e.g. the obs probes sit at
nanosecond scale where scheduler noise swamps any real signal. Exits
nonzero when any gated benchmark's real_time regressed by more than the
threshold (default +10%).
"""

import argparse
import json
import re
import sys

# The perf-gated families: candidate evaluation and model training, the
# paths BENCH trajectories track across PRs (docs/PERFORMANCE.md), plus
# the serving stack's serde and batched-scoring paths plus the closed-
# loop load harness's sustained-throughput entries (docs/SERVING.md:
# BM_ServeLoad*, recorded by scripts/run_benchmarks.sh --serve-load as
# ns per scored row so a throughput drop reads as a real_time
# regression),
# the data-plane ingest/join fast paths (docs/PERFORMANCE.md "Ingest
# & join fast path": BM_ReadCsv*, BM_KfkJoin), the
# factorized-learning family (docs/PERFORMANCE.md "Factorized training":
# BM_Factorized*, BM_MaterializedStatsBuild), and the observability cost
# contract (docs/OBSERVABILITY.md: BM_HistogramRecord* — the prefix
# covers both the disabled probe path and its Enabled twin — and
# BM_TraceSpanPropagated, the cross-thread span propagation overhead).
GATED = re.compile(
    r"^BM_(NBTrain|NaiveBayesTrain|GreedyForward|ForwardSelection"
    r"|MiFilterScoring|SerdeSave|SerdeLoad|ServeScore|ServeLoad"
    r"|ReadCsv|KfkJoin"
    r"|Factorized|MaterializedStatsBuild"
    r"|HistogramRecord|TraceSpanPropagated"
    r"|TreeTrain|GbtTrain)"
)


def context(path):
    """A BENCH file's google-benchmark "context" object."""
    with open(path) as f:
        return json.load(f).get("context", {})


def build_type(path):
    """Hamlet's own build type recorded in a BENCH file's context.

    The binary stamps "hamlet_build_type" via AddCustomContext (the stock
    "library_build_type" key only describes libbenchmark's build, which
    the distro ships as debug). BENCH files from before the stamp exist
    and report "unknown" — comparisons against them stay allowed, with a
    warning, so history remains usable.
    """
    return context(path).get("hamlet_build_type", "unknown")


def host(path):
    """(num_cpus, largest cache size in bytes) from a BENCH file's context.

    Ratios between runs on different machines measure the machines, not
    the code, so main() refuses them. Missing fields read as None.
    """
    ctx = context(path)
    sizes = [c.get("size", 0) for c in ctx.get("caches", [])]
    return ctx.get("num_cpus"), max(sizes, default=None)


def same_host_baseline(new, candidates):
    """The last of `candidates` recorded on `new`'s host, or None.

    scripts/run_benchmarks.sh --compare passes the previous BENCH files
    oldest first, so this is the newest comparable baseline.
    """
    matching = [p for p in candidates if host(p) == host(new)]
    return matching[-1] if matching else None


def load(path):
    """Loads {base name -> entry}, preferring median aggregates.

    Files recorded with --benchmark_repetitions carry aggregate entries
    (mean/median/stddev/cv) whose run_name is the base benchmark name;
    the median is robust to the scheduler noise a single run picks up on
    a busy host, so it wins over raw entries when both exist. Raw-format
    files (one entry per benchmark, no aggregates) load unchanged, so
    old and new BENCH files stay comparable across the format change.
    """
    with open(path) as f:
        doc = json.load(f)
    raw = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        base = b.get("run_name", b["name"])
        if b.get("error_occurred"):
            # Skipped variants (e.g. BM_FactorizedVsMaterialized's 10M-row
            # arm without HAMLET_BENCH_LARGE=1) record real_time 0, which
            # would read as an infinite regression.
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[base] = b
            continue
        raw[base] = b
    out = raw
    out.update(medians)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed real_time regression fraction")
    args = parser.parse_args()

    bt_old, bt_new = build_type(args.old), build_type(args.new)
    if "unknown" in (bt_old, bt_new):
        print("compare_bench: warning: build type unknown for "
              f"{args.old if bt_old == 'unknown' else args.new} "
              "(recorded before hamlet_build_type was stamped); "
              "comparing anyway", file=sys.stderr)
    elif bt_old != bt_new:
        print(f"compare_bench: refusing to compare {args.old} "
              f"(hamlet_build_type={bt_old}) against {args.new} "
              f"(hamlet_build_type={bt_new}): debug-vs-release ratios "
              "are meaningless", file=sys.stderr)
        return 2

    host_old, host_new = host(args.old), host(args.new)
    if host_old != host_new:
        print(f"compare_bench: refusing to compare {args.old} "
              f"(num_cpus, largest cache = {host_old}) against {args.new} "
              f"({host_new}): cross-host ratios are meaningless",
              file=sys.stderr)
        return 2

    old = load(args.old)
    new = load(args.new)
    common = [name for name in new if name in old]
    if not common:
        print("compare_bench: no common benchmarks between "
              f"{args.old} and {args.new}", file=sys.stderr)
        return 2

    regressions = []
    print(f"{'benchmark':<44} {'old':>12} {'new':>12} {'ratio':>7}  gated")
    for name in common:
        t_old = old[name]["real_time"]
        t_new = new[name]["real_time"]
        ratio = t_new / t_old if t_old > 0 else float("inf")
        gated = bool(GATED.match(name))
        unit = new[name].get("time_unit", "ns")
        flag = "yes" if gated else "-"
        marker = ""
        if gated and ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
            marker = "  << REGRESSION"
        print(f"{name:<44} {t_old:>10.1f}{unit:>2} {t_new:>10.1f}{unit:>2} "
              f"{ratio:>6.2f}x  {flag}{marker}")

    # A gated benchmark silently disappearing from the new file is how a
    # perf gate stops gating — e.g. a rename or a deleted registration
    # would otherwise pass every future comparison. Shout, don't note.
    missing = sorted(
        name for name in old if name not in new and GATED.match(name))
    if missing:
        print(f"\ncompare_bench: WARNING: {len(missing)} gated "
              f"benchmark(s) present in {args.old} but MISSING from "
              f"{args.new} — these paths are no longer perf-gated:",
              file=sys.stderr)
        for name in missing:
            print(f"  MISSING GATED: {name}", file=sys.stderr)

    if regressions:
        print(f"\ncompare_bench: {len(regressions)} gated regression(s) "
              f"beyond +{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\ncompare_bench: no gated regressions beyond "
          f"+{args.threshold:.0%} ({len(common)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
