#ifndef HAMLET_OBS_COST_PROFILE_H_
#define HAMLET_OBS_COST_PROFILE_H_

/// \file cost_profile.h
/// Persisted per-operator cost calibration — the bridge between the
/// telemetry pipeline and the cost-calibrated join-or-avoid planner on
/// the roadmap. While collection is enabled, instrumented operators
/// (join.kfk, join.hash, ingest.csv, fs.search, serve.score) report each
/// execution's measured input features and phase timings here; the store
/// aggregates them into one CostRecord per distinct feature vector, and
/// MergeIntoFile folds the window's records into a JSON file under
/// artifacts/ so repeated runs accumulate training data for a learned
/// cost model instead of throwing their measurements away.
///
/// Feature vectors deliberately mirror the join-feature sets cost-model
/// work keys on (rows in/out, build-side size, distinct key count,
/// thread count): they are everything a planner knows *before* running
/// the operator, so records double as (features → observed cost)
/// training pairs.
///
/// Determinism/round-trip contract: records live in a std::map keyed by
/// the features' canonical string, every persisted field is an integer,
/// and WriteJson emits keys in sorted order — so load → merge(empty) →
/// save reproduces a file byte for byte (pinned by
/// tests/cost_profile_test.cc), and concurrent writers cannot corrupt a
/// profile because SaveToFile publishes via tmp + rename.
///
/// Cost contract: Record() is gated on obs::Enabled() at the call sites
/// (operators only assemble features while a collection window is open)
/// and takes one short mutex; operators report once per execution, not
/// per row, so the store is never on a hot path.

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hamlet::obs {

/// What a planner knows about an operator execution before it runs.
/// `op` names the operator ("join.kfk"); unused dimensions stay 0
/// (ingest.csv has no build side).
struct OperatorFeatures {
  std::string op;
  uint64_t rows_in = 0;        ///< Probe-side / input rows.
  uint64_t rows_out = 0;       ///< Rows produced.
  uint64_t build_rows = 0;     ///< Build-side rows (joins); for
                               ///< serve.score, requests fused per pass.
  uint64_t distinct_keys = 0;  ///< Distinct join/FK key codes.
  uint32_t num_threads = 0;    ///< ParallelFor shards the execution used.
  /// Dispatcher shards of the serving data plane the execution ran
  /// under (serve.score); 0 for operators without a dispatch dimension.
  /// Absent in pre-shard files (schema v1 kept): defaults to 0.
  uint32_t shards = 0;

  /// Canonical map key: op|rows_in|rows_out|build_rows|distinct_keys|
  /// num_threads|shards. Stable across runs, sorts lexicographically
  /// by op.
  std::string Key() const;
};

/// One execution's measured cost. Phases that do not apply stay 0.
struct CostObservation {
  uint64_t total_ns = 0;
  uint64_t build_ns = 0;
  uint64_t probe_ns = 0;
  uint64_t materialize_ns = 0;
  /// HashJoin-only phases: the radix path's two-pass partition scatter
  /// (join.radix) and the Bloom pre-filter build (either path, when the
  /// filter is on). 0 elsewhere.
  uint64_t partition_ns = 0;
  uint64_t bloom_build_ns = 0;
};

/// Aggregate of every observation sharing one feature vector.
struct CostRecord {
  OperatorFeatures features;
  uint64_t observations = 0;
  uint64_t total_ns_sum = 0;
  uint64_t total_ns_min = 0;
  uint64_t total_ns_max = 0;
  uint64_t build_ns_sum = 0;
  uint64_t probe_ns_sum = 0;
  uint64_t materialize_ns_sum = 0;
  uint64_t partition_ns_sum = 0;
  uint64_t bloom_build_ns_sum = 0;

  void Add(const CostObservation& obs);
  void Merge(const CostRecord& other);

  /// Mean total cost (0 when no observations).
  uint64_t MeanTotalNs() const {
    return observations == 0 ? 0 : total_ns_sum / observations;
  }
};

/// A set of cost records keyed by OperatorFeatures::Key(), with JSON
/// persistence. Not thread-safe; CostProfileStore provides the locked
/// process-wide instance.
class CostProfile {
 public:
  /// Current on-disk schema version (the loader rejects newer files).
  static constexpr int kSchemaVersion = 1;

  void Add(const OperatorFeatures& features, const CostObservation& obs);

  /// Folds every record of `other` into this profile.
  void Merge(const CostProfile& other);

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  const std::map<std::string, CostRecord>& records() const {
    return records_;
  }

  /// Deterministic JSON dump (sorted keys, integer fields, trailing
  /// newline) — see the \file block's round-trip contract.
  void WriteJson(std::ostream& os) const;

  /// WriteJson to `path` atomically (tmp + rename), creating parent
  /// directories as needed.
  Status SaveToFile(const std::string& path) const;

  /// Parses a WriteJson document into `*this` (replacing its contents).
  Status ParseJsonText(const std::string& text);

  /// ParseJsonText on a file's contents. NotFound when the file does
  /// not exist (so first runs can treat it as an empty profile).
  Status LoadFromFile(const std::string& path);

  /// Observation-weighted mean cost per probe row (total_ns / rows_in)
  /// over every record of operator `op` taken at `num_threads` threads
  /// whose build_rows lies within a factor of 4 of `build_rows` — a
  /// log-scale neighborhood, because an exact feature-vector hit is rare
  /// while per-row cost varies slowly with build size. Thread counts
  /// must match exactly: a parallel run's per-row cost says nothing
  /// about a serial one. Returns 0 when no comparable record exists.
  /// This is what JoinAlgorithm::kAuto ranks competing operators with
  /// (relational/radix_join.h).
  double MeanNsPerProbeRow(std::string_view op, uint64_t build_rows,
                           uint32_t num_threads) const;

 private:
  std::map<std::string, CostRecord> records_;
};

/// The process-wide, mutex-protected sink operators report into while a
/// collection window is open. ScopedCollection clears it at window
/// start; the pipeline/serving shutdown paths drain it with
/// MergeIntoFile.
class CostProfileStore {
 public:
  static CostProfileStore& Global();

  /// Adds one observation. Call sites gate on obs::Enabled().
  void Record(const OperatorFeatures& features, const CostObservation& obs);

  /// Copy of everything recorded since the last Clear().
  CostProfile Snapshot() const;

  void Clear();

  /// Loads `path` if it exists, merges this store's records into it,
  /// and saves the union back atomically. The store keeps its records
  /// (callers may merge into several files).
  Status MergeIntoFile(const std::string& path) const;

  /// Replaces the calibration profile with `path`'s contents. The
  /// calibration profile is the feedback loop's memory: a previous run's
  /// persisted measurements, consulted by MeanNsPerProbeRow when the
  /// live window has no comparable record yet. It survives Clear() (and
  /// therefore ScopedCollection window resets). NotFound is returned
  /// as-is; callers seeding best-effort (the pipeline) ignore it.
  Status SeedCalibrationFromFile(const std::string& path);
  void ClearCalibration();

  /// CostProfile::MeanNsPerProbeRow over the live window, falling back
  /// to the seeded calibration profile when the window has no
  /// comparable record.
  double MeanNsPerProbeRow(std::string_view op, uint64_t build_rows,
                           uint32_t num_threads) const;

 private:
  CostProfileStore() = default;

  mutable std::mutex mu_;
  CostProfile profile_;
  CostProfile calibration_;
};

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_COST_PROFILE_H_
