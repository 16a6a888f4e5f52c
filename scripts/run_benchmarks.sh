#!/usr/bin/env bash
# Builds the google-benchmark targets in Release and runs the
# microbenchmark suite with JSON output, writing BENCH_<date>.json at the
# repo root (see docs/DEVELOPMENT.md "Benchmarks"). Pass a filter regex
# to run a subset, e.g.:
#
#   scripts/run_benchmarks.sh                    # everything
#   scripts/run_benchmarks.sh 'BM_TraceSpan.*'   # just the obs probes
#
# --compare additionally diffs the fresh BENCH json against the most
# recent previous one recorded on the same host (same num_cpus and
# largest cache size; scripts/compare_bench.py) and exits nonzero on a
# >10% real_time regression in the gated microbenches (the FS/NB
# families, the serving stack's BM_SerdeSave/Load and BM_ServeScore* —
# see docs/SERVING.md — the ingest/join fast paths BM_ReadCsv*,
# BM_HashJoin*, BM_KfkJoin, the factorized-learning family
# BM_Factorized* / BM_MaterializedStatsBuild — see docs/PERFORMANCE.md —
# and the tree training family BM_TreeTrain* / BM_GbtTrain* — see
# docs/TREES.md; BM_FactorizedVsMaterialized's 10M-row variant and
# BM_GbtTrain's 1M-row arm additionally need HAMLET_BENCH_LARGE=1):
#
#   scripts/run_benchmarks.sh --compare          # run + regression gate
#
# --serve-load additionally builds and runs the closed-loop serve-load
# harness (bench/serve_load.cc) and merges its google-benchmark-format
# output — the BM_ServeLoadSustained/{baseline,sharded} entries, whose
# real_time is ns per scored row, plus a structured "serve_load"
# section — into the same BENCH file, so the --compare gate covers
# sustained serving throughput too (a >10% scores/s drop reads as a
# >10% real_time regression; see docs/SERVING.md "Load harness"):
#
#   scripts/run_benchmarks.sh --serve-load --compare
#
# Env: BUILD_DIR (default build-bench), JOBS (default nproc),
#      OUT (default BENCH_<YYYY-MM-DD>.json),
#      COMPARE_THRESHOLD (default 0.10), REPETITIONS (default 3; the
#      JSON records mean/median/stddev/cv aggregates and the gate
#      compares medians — raw-format BENCH files from before the
#      repetition change still compare fine).
set -euo pipefail
cd "$(dirname "$0")/.."

COMPARE=0
SERVE_LOAD=0
while [[ "${1:-}" == "--compare" || "${1:-}" == "--serve-load" ]]; do
  if [[ "$1" == "--compare" ]]; then COMPARE=1; else SERVE_LOAD=1; fi
  shift
done

BUILD_DIR=${BUILD_DIR:-build-bench}
JOBS=${JOBS:-$(nproc)}
OUT=${OUT:-BENCH_$(date +%Y-%m-%d).json}
FILTER=${1:-.}
COMPARE_THRESHOLD=${COMPARE_THRESHOLD:-0.10}

# Before overwriting today's file, remember the previous BENCH jsons as
# comparison candidates (lexicographic order == chronological order).
PREVS=""
if [[ "${COMPARE}" == 1 ]]; then
  PREVS=$(ls BENCH_*.json 2>/dev/null | grep -vFx "${OUT}" | sort || true)
fi

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DHAMLET_BUILD_BENCHMARKS=ON \
  -DHAMLET_BUILD_EXAMPLES=OFF
BENCH_TARGETS=(micro_benchmarks tree_benchmarks)
if [[ "${SERVE_LOAD}" == 1 ]]; then
  BENCH_TARGETS+=(serve_load)
fi
cmake --build "${BUILD_DIR}" -j"${JOBS}" \
  $(printf -- '--target %s ' "${BENCH_TARGETS[@]}")

# Three repetitions, medians recorded: single runs on a shared (noisy)
# host swing short benches by 10-30%; compare_bench.py gates on the
# median aggregate, which is stable run to run. The gated suite spans
# two binaries (micro_benchmarks + tree_benchmarks — the tree/GBT
# training paths live in their own binary, docs/TREES.md); each writes
# its own JSON and the two are merged into one BENCH file so the
# compare gate sees every gated family in a single place.
PARTS=()
for BIN in micro_benchmarks tree_benchmarks; do
  PART="${OUT}.${BIN}.part"
  "${BUILD_DIR}/bench/${BIN}" \
    --benchmark_filter="${FILTER}" \
    --benchmark_repetitions="${REPETITIONS:-3}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="${PART}" \
    --benchmark_out_format=json
  PARTS+=("${PART}")
done

# The serve-load harness is not a google-benchmark binary (it drives a
# wall-clock closed loop, not a timed inner loop) but writes the same
# JSON shape: BM_ServeLoadSustained/* entries with real_time = ns per
# scored row, plus a "serve_load" section the merge carries through.
if [[ "${SERVE_LOAD}" == 1 ]]; then
  PART="${OUT}.serve_load.part"
  "${BUILD_DIR}/bench/serve_load" \
    --duration="${SERVE_LOAD_DURATION:-1.5}" \
    --clients="${SERVE_LOAD_CLIENTS:-8}" \
    --out="${PART}"
  PARTS+=("${PART}")
fi

python3 - "${OUT}" "${PARTS[@]}" <<'EOF'
import json, sys
out, parts = sys.argv[1], sys.argv[2:]
docs = [json.load(open(p)) for p in parts]
merged = docs[0]
for doc in docs[1:]:
    theirs = doc.get("context", {}).get("hamlet_build_type")
    ours = merged.get("context", {}).get("hamlet_build_type")
    if theirs != ours:
        sys.exit(f"refusing to merge: hamlet_build_type {ours} vs {theirs}")
    merged["benchmarks"].extend(doc.get("benchmarks", []))
    if "serve_load" in doc:
        merged["serve_load"] = doc["serve_load"]
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
EOF
rm -f "${PARTS[@]}"

echo "Wrote ${OUT}"

# Provenance check: the benchmark binary records hamlet's own build type
# in the JSON context as "hamlet_build_type" (the stock
# "library_build_type" key describes how *libbenchmark* was compiled —
# the distro package is a debug build, so that key always says "debug"
# and proves nothing about hamlet). A debug-built hamlet produces
# numbers that are meaningless to compare; fail loudly rather than let
# them land in a BENCH file.
HAMLET_BUILD_TYPE=$(python3 - "${OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    print(json.load(f).get("context", {}).get("hamlet_build_type", "unknown"))
EOF
)
if [[ "${HAMLET_BUILD_TYPE}" != "release" ]]; then
  echo "ERROR: ${OUT} was produced by a '${HAMLET_BUILD_TYPE}' hamlet" >&2
  echo "build; benchmarks must run with CMAKE_BUILD_TYPE=Release" >&2
  echo "(delete ${BUILD_DIR} if its cache pinned another build type)." >&2
  rm -f "${OUT}"
  exit 1
fi
echo "Provenance: hamlet_build_type=${HAMLET_BUILD_TYPE}"

if [[ "${COMPARE}" == 1 ]]; then
  # The baseline is the newest previous file recorded on this host
  # (compare_bench.py refuses cross-host pairs).
  PREV=$(python3 - "${OUT}" ${PREVS} <<'EOF'
import sys
sys.dont_write_bytecode = True
sys.path.insert(0, "scripts")
from compare_bench import same_host_baseline
print(same_host_baseline(sys.argv[1], sys.argv[2:]) or "")
EOF
)
  if [[ -z "${PREVS}" ]]; then
    echo "No previous BENCH_*.json to compare against; skipping the gate."
  elif [[ -z "${PREV}" ]]; then
    echo "No previous BENCH_*.json from this host (same num_cpus and"
    echo "largest cache size) to compare against; skipping the gate."
  else
    echo "Comparing ${PREV} -> ${OUT}"
    python3 scripts/compare_bench.py "${PREV}" "${OUT}" \
      --threshold "${COMPARE_THRESHOLD}"
  fi
fi
