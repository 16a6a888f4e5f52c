#ifndef HAMLET_OBS_METRICS_H_
#define HAMLET_OBS_METRICS_H_

/// \file metrics.h
/// Process-wide named counters and log-scale latency histograms — the
/// "how much / how long" half of the observability layer (obs/trace.h is
/// the "what happened when" half).
///
/// Cost contract: instrumentation is compiled in but collection is OFF by
/// default, and the disabled path of every probe is one relaxed atomic
/// load plus a predictable branch (bench/micro_benchmarks.cc pins this).
/// When collection is on, increments shard onto per-thread atomic slots
/// keyed by ThreadPool::CurrentWorkerId(), so the hot path is lock-free
/// and, with one writer per shard (the pool's normal regime),
/// contention-free. Snapshots sum the shards; they are taken off the hot
/// path (end of a traced run, tests).
///
/// Naming convention: `<layer>.<noun>` for counters
/// ("fs.models_trained", "join.rows_probed") and `<layer>.<noun>_ns` for
/// nanosecond latency histograms ("fs.candidate_eval_ns"). See
/// docs/OBSERVABILITY.md for the full catalogue.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram_buckets.h"
#include "common/thread_pool.h"

namespace hamlet::obs {

namespace internal {
/// The process-wide probe word, shared with tracing: bit 0 is the
/// collection switch, and every open obs::RunTrace adds kRunUnit. Zero
/// means no probe has anything to record, so a disabled counter,
/// histogram or span is one relaxed load of this word and a branch.
/// Plain inline atomic so the hot-path load never pays a static-init
/// guard.
inline constexpr uint32_t kCollectBit = 1;
inline constexpr uint32_t kRunUnit = 2;
inline std::atomic<uint32_t> g_probe_state{0};
}  // namespace internal

/// True while collection is enabled (one relaxed load).
inline bool Enabled() {
  return (internal::g_probe_state.load(std::memory_order_relaxed) &
          internal::kCollectBit) != 0;
}

/// Flips collection on/off. Also toggles the global thread pool's
/// queue-wait timing so pool scheduling costs are captured while a trace
/// is being taken. Prefer ScopedCollection (obs/trace.h) to raw calls.
void SetEnabled(bool on);

/// True if the HAMLET_TRACE environment variable requests collection
/// (set and not "0"; checked once and cached).
bool EnvRequested();

/// A named monotonic counter with per-worker sharded storage.
class Counter {
 public:
  /// Adds `delta` (no-op unless collection is enabled).
  void Add(uint64_t delta = 1) {
    if (!Enabled()) return;
    shards_[ShardIndex()].value.fetch_add(delta,
                                          std::memory_order_relaxed);
  }

  /// Sum over shards (take off the hot path).
  uint64_t Total() const;

  void Reset();

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  static uint32_t ShardIndex() {
    return ThreadPool::CurrentWorkerId() & (kShards - 1);
  }

  static constexpr uint32_t kShards = 16;  // Power of two for the mask.
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  Shard shards_[kShards];
};

/// Point-in-time view of one histogram (see Histogram for bucket math).
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_nanos = 0;
  std::vector<uint64_t> buckets;  ///< Histogram::kBuckets entries.

  double MeanNanos() const;
  /// Percentile estimate (p in [0,1]) by linear interpolation inside the
  /// bucket holding the p-quantile observation. With the log-linear
  /// layout every bucket is at most 1/32 of its value wide, so the
  /// estimate is within ~±1.6% of the exact order statistic (the
  /// calibration test in tests/metrics_registry_test.cc pins <10% at
  /// p99). Pinned edge cases:
  ///   - empty histogram: returns 0 (there is no observation to rank);
  ///   - the final bucket has no upper edge (it absorbs everything past
  ///     2^47 ns), so a percentile landing there returns the bucket's
  ///     lower bound — a deliberate underestimate, never an invented
  ///     upper value.
  uint64_t PercentileNanos(double p) const;
};

/// A named latency histogram over the shared log-linear (HDR-style)
/// nanosecond buckets of common/histogram_buckets.h: values below 32 ns
/// get an exact bucket each, and every octave [2^e, 2^(e+1)) above that
/// is split into 32 equal sub-buckets, so bucket width is ≤1/32 of the
/// value everywhere (the old pure-log2 layout was 2x wide, putting p99
/// estimates up to 2x off). The last bucket (floor 2^47 ns ≈ 39 hours)
/// absorbs everything above it. Writes stay lock-free and sharded; the
/// disabled path is one relaxed load plus a branch.
class Histogram {
 public:
  static constexpr uint32_t kBuckets = log_linear::kNumBuckets;

  /// Records one observation (no-op unless collection is enabled).
  void Record(uint64_t nanos) {
    if (!Enabled()) return;
    RecordAlways(nanos);
  }

  /// Records unconditionally (for callers that already gated).
  void RecordAlways(uint64_t nanos);

  /// Bucket index for a value (exposed for the bucket-edge tests).
  static uint32_t BucketFor(uint64_t nanos);

  /// Smallest value mapping to `bucket` (0 for bucket 0).
  static uint64_t BucketLowerBound(uint32_t bucket);

  /// Exclusive upper edge of `bucket` (UINT64_MAX for the final,
  /// unbounded bucket).
  static uint64_t BucketUpperBound(uint32_t bucket);

  HistogramSnapshot Snapshot() const;

  void Reset();

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  static uint32_t ShardIndex() {
    return ThreadPool::CurrentWorkerId() & (kShards - 1);
  }

  static constexpr uint32_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_nanos{0};
    std::atomic<uint64_t> buckets[kBuckets]{};
  };

  std::string name_;
  Shard shards_[kShards];
};

/// One counter's point-in-time value.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

/// Everything the registry (plus the global thread pool) knows, sorted
/// by name for deterministic rendering.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a counter by name (0 when absent).
  uint64_t CounterValue(const std::string& name) const;

  /// Human-readable dump (one metric per line), for reports and tests.
  std::string ToString() const;
};

/// The process-wide registry of named metrics. Registration (GetCounter /
/// GetHistogram) takes a mutex and is meant to run once per site — cache
/// the returned reference in a static local; increments on the returned
/// objects are lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter/histogram with this name, creating it on first
  /// use. References stay valid for the process lifetime.
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Snapshots every registered metric; when `include_thread_pool` is
  /// set (the default), folds in the global pool's lifetime stats as
  /// `threadpool.*` counters and the `threadpool.queue_wait_ns`
  /// histogram.
  MetricsSnapshot Snapshot(bool include_thread_pool = true) const;

  /// Zeroes every registered metric (not the pool's lifetime stats).
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_METRICS_H_
