#ifndef HAMLET_OBS_TRACE_H_
#define HAMLET_OBS_TRACE_H_

/// \file trace.h
/// RAII trace spans forming the pipeline's execution tree — the "what
/// happened when" half of the observability layer (obs/metrics.h is the
/// "how much / how long" half).
///
/// A TraceSpan covers one stage of work (pipeline → advise → join →
/// encode → split → fs.search → fs.step → fs.final_fit, see
/// docs/OBSERVABILITY.md for the taxonomy). Spans nest through the
/// thread pool's per-thread task context, so a callee's span is
/// automatically parented under its caller's without plumbing — and
/// because ThreadPool::RunShards copies the submitting thread's context
/// into every queued task, spans opened inside ParallelFor bodies parent
/// under the span that issued the region even when they run on a pool
/// worker. The explain tree and Chrome export therefore show the real
/// pipeline→join→shard hierarchy at any thread count; a span roots
/// (parent 0) only when the thread genuinely has no enclosing span.
/// Completed spans land in the global Tracer, which Collect() drains
/// into a Trace for the exporters in obs/report.h (explain tree, Chrome
/// trace-event JSON).
///
/// Cost contract: with collection disabled (the default) constructing and
/// destroying a span costs one relaxed atomic load and a predictable
/// branch each — bench/micro_benchmarks.cc's BM_TraceSpanDisabled pins
/// it. Enabled spans pay a clock read at open and close plus one
/// sharded-mutex push at close; attribute adds are amortized vector
/// pushes. Span recording never perturbs the determinism contract: ids
/// and timestamps are observational only.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hamlet::obs {

/// Monotonic (steady_clock) nanoseconds since an arbitrary epoch.
uint64_t NowNanos();

/// Id of the innermost open span on this thread (0 when none). Inside a
/// pool task this is the *submitting* thread's innermost span — the
/// propagated trace context — until the task opens spans of its own.
uint64_t CurrentSpanId();

/// One key/value annotation on a span. Numbers keep their numeric form
/// so the explain tree can sum them across merged spans (e.g. candidates
/// evaluated per greedy step → total candidates).
struct TraceAttr {
  std::string key;
  std::string text;    ///< Display/JSON form when !is_number.
  int64_t number = 0;  ///< Value when is_number.
  bool is_number = false;
};

/// A completed span, as stored by the Tracer.
struct TraceEvent {
  uint64_t id = 0;
  uint64_t parent_id = 0;  ///< 0 = root (no enclosing span on the thread).
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t worker_id = 0;  ///< ThreadPool::CurrentWorkerId() at open.
  std::vector<TraceAttr> attrs;

  double Seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// An immutable collected trace: events sorted by (start_ns, id).
struct Trace {
  std::vector<TraceEvent> events;

  bool empty() const { return events.empty(); }
};

/// The process-wide sink completed spans drain into. Storage is sharded
/// by worker id (vector + mutex per shard) so concurrent span closes
/// rarely contend.
class Tracer {
 public:
  static Tracer& Global();

  /// Drops every stored event (start of a collection window).
  void Clear();

  /// Copies out everything recorded so far, sorted by (start_ns, id).
  Trace Collect() const;

  /// Next span id (1-based; 0 means "no span"). Used by TraceSpan.
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stores a completed span. Used by TraceSpan.
  void Record(TraceEvent event);

 private:
  Tracer() = default;

  static constexpr uint32_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::vector<TraceEvent> events;
  };

  std::atomic<uint64_t> next_id_{1};
  mutable std::array<Shard, kShards> shards_;
};

/// RAII span: opens at construction, records into the global Tracer at
/// destruction. Inert (active() == false) when collection is disabled at
/// construction time.
class TraceSpan {
 public:
  /// `name` must outlive the span (string literals in practice).
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }

  /// Attach a key/value attribute (no-ops when inactive). `key` must
  /// outlive the span.
  void AddAttr(const char* key, int64_t value);
  void AddAttr(const char* key, uint64_t value) {
    AddAttr(key, static_cast<int64_t>(value));
  }
  void AddAttr(const char* key, uint32_t value) {
    AddAttr(key, static_cast<int64_t>(value));
  }
  void AddAttr(const char* key, const std::string& value);

  /// Nanoseconds since the span opened (0 when inactive).
  uint64_t ElapsedNanos() const { return active_ ? NowNanos() - start_ns_ : 0; }

  /// Seconds since the span opened (0 when inactive).
  double ElapsedSeconds() const;

 private:
  const char* name_;
  bool active_ = false;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<TraceAttr> attrs_;
};

/// RAII collection window: when constructed with enable=true, clears the
/// tracer, resets the metrics registry, and turns collection on; the
/// destructor restores the previous enabled state (collected events stay
/// available for Collect()). With enable=false it is a no-op, so callers
/// can write `ScopedCollection c(config.trace);` unconditionally.
class ScopedCollection {
 public:
  explicit ScopedCollection(bool enable);
  ~ScopedCollection();

  ScopedCollection(const ScopedCollection&) = delete;
  ScopedCollection& operator=(const ScopedCollection&) = delete;

  bool enabled() const { return enabled_; }

 private:
  bool enabled_;
  bool prev_ = false;
};

/// RAII latency probe: records the scope's duration into `histogram` at
/// destruction. One branch (plus no clock reads) when collection is off.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : ScopedLatency(Enabled() ? &histogram : nullptr) {}

  /// Takes the histogram's accessor instead, and calls it only when
  /// collection is on, so a probe that never collects never registers
  /// its histogram (each one is ~180 KB of sharded buckets).
  explicit ScopedLatency(Histogram& (*histogram)())
      : ScopedLatency(Enabled() ? &histogram() : nullptr) {}

  ~ScopedLatency() {
    if (histogram_ != nullptr) histogram_->RecordAlways(NowNanos() - start_ns_);
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  explicit ScopedLatency(Histogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram_ != nullptr ? NowNanos() : 0) {}

  Histogram* histogram_;
  uint64_t start_ns_;
};

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_TRACE_H_
