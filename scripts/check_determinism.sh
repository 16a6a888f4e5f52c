#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (HAMLET_SANITIZE=thread) and runs
# the threading + determinism suites: the thread pool contract (width
# scopes included), the ParallelFor exception/no-op/coverage tests, the
# bit-for-bit determinism regressions for search/filters/Monte Carlo, the
# greedy tie-break, the factorized-vs-materialized equivalence sweep
# (every Factorized* suite, including the avoid-materialization pipeline
# end to end), the run-width suite (RunWidthTest: a width-1 pipeline
# touches no pool worker, and widths 1, 2 and 8 give the same bits for
# every classifier on both views), and the learners' own
# BitIdenticalAcrossThreadCounts tests (DecisionTreeTest, GbtTest), whose
# large inputs shard the per-node histogram, split and subtraction loops.
# A second pass runs the obs-labeled suite under TSAN: the telemetry
# pipeline's lock-free sharded histograms, cross-thread span
# propagation, and concurrent registry snapshots (the writer-storm test)
# are exactly the code most likely to hide a data race.
# A third pass runs the fs-labeled suite (the forward/backward, filter
# and exhaustive searches and the runner) under TSAN: every search scores
# its candidates in parallel into per-index slots through one shared
# scorer, and the serial reduction over those slots is what keeps
# selections identical at any thread count.
# A fourth pass runs the joins-labeled suite (tests/join_test.cc) under
# TSAN: KfkJoin's sharded probe reports the lowest failing row through a
# relaxed-atomic min, and its output gathers write shared arrays from
# ParallelFor workers.
# A fifth pass runs the sharded serving data plane
# (tests/service_shard_determinism_test.cc + the artifact store's
# concurrent shared-lock hit tests): N dispatcher threads draining MPSC
# queues, load shedding, deadline expiry, the generation-validated warm
# model cache, and the closed-loop load harness — the serving stack's
# cross-thread hand-offs.
# A sixth pass rebuilds with AddressSanitizer in its own tree and runs
# the byte parsers under it: serde (every model kind decodes through
# DeserializeModel), the artifact store's read-through path, the
# service's resolve + score path, and the CSV and JSON readers — the CSV
# reader including its multi-chunk determinism sweeps and seeded
# mutation fuzz, whose chunk dictionaries view the file buffer, and the
# flat label index under Domain (the JSON reader is test support, built
# into the test binaries). It also runs the factorized view's gathers:
# FactorizedViewTest (DataView::GatherCodes on both views) and the tree
# learners' FactorizedTreeTest/FactorizedGbtTest, whose one Train and
# one Predict per learner read either view through those gathers and
# index the gathered codes. The same ASan tree then runs the obs
# suite: a run's span tree (obs::RunTrace) is closed by its destructor
# on every early error return, and an untraced run erases its events
# from the Tracer's shards under their locks.
# A seventh pass rebuilds with UndefinedBehaviorSanitizer in its own tree
# (halting on the first report) and runs the join — the `joins` label
# plus the JoinDeterminismTest bit-identity sweeps, whose code remaps and
# FK -> row gathers are index-heavy — and the same byte parsers' serde,
# CSV (plus the CSV determinism and mutation suites) and JSON suites,
# and the Domain label index. The same UBSan tree runs the artifact
# store and service suites and the `fs` label: GCC's
# -fsanitize=undefined includes the vptr check, which catches a wrong
# downcast behind ModelAs (the store's typed getters, serde's codec
# table) and the nb_delta scorer's Naive Bayes cast, each checked
# against Classifier::traits().
#
# Usage: scripts/check_determinism.sh [extra ctest args...]
# Env:   BUILD_DIR (default build-tsan), ASAN_BUILD_DIR (default
#        build-asan), UBSAN_BUILD_DIR (default build-ubsan), JOBS
#        (default nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHAMLET_SANITIZE=thread \
  -DHAMLET_BUILD_BENCHMARKS=OFF \
  -DHAMLET_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j"${JOBS}"

# Everything whose name binds it to the threading/determinism contract.
ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'ThreadPool|ParallelFor|Determinism|TieBreak|ThreadInvariant|ParallelSearch|Factorized|RunWidth|BitIdenticalAcrossThreadCounts' \
  "$@"

# The observability suite (metrics/trace/propagation/exporter tests,
# label `obs`) under the same TSAN build.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L obs "$@"

# The feature-selection searches and runner (label `fs`) under the same
# TSAN build.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L fs "$@"

# The KFK join lockdown (error cases, equivalence against the frozen
# reference join, the phase probes; label `joins`) under the same TSAN
# build.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L joins "$@"

# The sharded scoring data plane (multi-queue dispatch, admission
# control, warm cache) and the artifact store's concurrent hit path.
ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'ShardedServiceTest|ServiceTest|ArtifactStoreTest' "$@"

# The byte parsers under AddressSanitizer (separate build tree).
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
cmake -B "${ASAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHAMLET_SANITIZE=address \
  -DHAMLET_BUILD_BENCHMARKS=OFF \
  -DHAMLET_BUILD_EXAMPLES=OFF
cmake --build "${ASAN_BUILD_DIR}" -j"${JOBS}"
ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure \
  -R 'SerdeTest|ArtifactStoreTest|ServiceTest|ShardedServiceTest|CsvTest|CsvDeterminismTest|CsvMutationTest|DomainTest|JsonReaderTest|FactorizedTreeTest|FactorizedGbtTest|FactorizedViewTest' \
  "$@"
ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure -L obs "$@"

# The KFK join, the byte parsers and the kind-checked model downcasts
# under UndefinedBehaviorSanitizer (separate build tree). UBSan reports
# and carries on by default; halt_on_error turns a report into a test
# failure.
UBSAN_BUILD_DIR=${UBSAN_BUILD_DIR:-build-ubsan}
cmake -B "${UBSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHAMLET_SANITIZE=undefined \
  -DHAMLET_BUILD_BENCHMARKS=OFF \
  -DHAMLET_BUILD_EXAMPLES=OFF
cmake --build "${UBSAN_BUILD_DIR}" -j"${JOBS}"
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
ctest --test-dir "${UBSAN_BUILD_DIR}" --output-on-failure -L joins "$@"
ctest --test-dir "${UBSAN_BUILD_DIR}" --output-on-failure \
  -R 'JoinDeterminismTest|SerdeTest|ArtifactStoreTest|ServiceTest|CsvTest|CsvDeterminismTest|CsvMutationTest|DomainTest|JsonReaderTest' \
  "$@"
ctest --test-dir "${UBSAN_BUILD_DIR}" --output-on-failure -L fs "$@"
