#ifndef HAMLET_COMMON_THREAD_POOL_H_
#define HAMLET_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// A shared pool of persistent worker threads with deterministic, chunked
/// static scheduling, and the one parallelism rule every loop in the
/// library follows. The pool exists so that the hot loops of feature
/// selection search and Monte Carlo simulation — which issue thousands of
/// short parallel regions — stop paying a thread spawn/join per call.
///
/// The width rule: a run's parallel width is a property of the run, not
/// of the objects it touches. An entry point (RunPipeline, a feature
/// selector's search, KfkJoin/JoinSubset, the CSV reader, Monte Carlo,
/// the scoring service) opens one ScopedWidth from its `num_threads`
/// option, and every loop below it on that thread reads the width from
/// the scope: 1 runs the whole run serially, k shards each region k
/// ways. A width of 0 inherits the enclosing scope, so a nested entry
/// point forwards nothing; with no scope open, 0 means DefaultShards().
/// The width is a thread-local of the caller's thread and is not carried
/// into pool tasks: a region nested inside a running region runs
/// serially anyway (see Nesting).
///
/// Determinism contract (the invariant every user of this pool inherits):
/// work items are indexed, each item writes only its own output slot, any
/// randomness an item needs is derived from its index, and reductions over
/// item outputs happen on the calling thread in index order. Under that
/// discipline results are bit-for-bit identical at any width, which the
/// determinism suites in tests/ lock down.
///
/// Scheduling is chunked and static: index range [0, n) is split into
/// `shards` contiguous chunks balanced within one item, shard 0 runs
/// inline on the calling thread, and shards 1..k-1 are queued to the
/// persistent workers. There is no work stealing and no atomic index
/// counter, so the item → thread assignment is a pure function of (n,
/// shards) — never of timing.
///
/// Grain: a region gets at most n / grain shards (ShardsFor), so every
/// shard owns at least `grain` items, and a region too small for two
/// shards runs inline on the caller without touching the pool (no region
/// counted, no worker woken). The default grain of 1 shards by the width
/// alone. A caller whose items cost less than a handoff passes the item
/// count that amortizes one; the grain changes where items run, never
/// what they compute. A site that sizes per-shard state itself asks
/// ShardsFor for its shard count, so it plans exactly the width the pool
/// will run.
///
/// Nesting: a ParallelFor issued from inside a running parallel region
/// (worker thread or the caller's inline shard) degrades to a serial loop
/// instead of re-submitting to the pool, and ShardsFor returns 1 there,
/// so a site that sizes per-shard state inside a region plans serial
/// work too. Composed parallelism — e.g. the Monte Carlo outer repeat
/// loop over a parallel inner training loop — therefore cannot deadlock
/// or oversubscribe: whichever region starts first owns the workers.
///
/// Exceptions: an exception thrown by a work item aborts that shard's
/// remaining items, every other shard still runs to completion, and the
/// exception from the lowest-indexed throwing shard is rethrown on the
/// calling thread once the region completes.
///
/// Task context: the pool carries one opaque thread-local uint64 — the
/// "task context" — across the enqueue boundary: RunShards captures the
/// submitting thread's value and installs it on the worker for the
/// task's duration (restoring the worker's own value afterwards). The
/// observability layer stores the current trace-span id there, which is
/// how spans opened inside pool tasks parent under the span that
/// submitted the region instead of rooting at the worker thread
/// (obs/trace.h). The pool itself never interprets the value; with
/// tracing off it is always 0 and costs one TLS copy per task.

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/histogram_buckets.h"

namespace hamlet {

/// Lifetime counters a pool accumulates while scheduling work. The three
/// counters are always on (one relaxed atomic increment per region/task);
/// the queue-wait histogram is gated by set_collect_queue_wait because it
/// needs two clock reads per task. The observability layer (obs/metrics.h)
/// snapshots this struct into named metrics.
struct ThreadPoolStats {
  uint64_t regions = 0;              ///< Parallel regions dispatched.
  uint64_t tasks_run = 0;            ///< Queued shard tasks executed.
  uint64_t serial_degradations = 0;  ///< Nested regions run serially.
  uint64_t queue_wait_count = 0;     ///< Tasks with a measured wait.
  uint64_t queue_wait_total_ns = 0;  ///< Sum of measured waits.
  /// Log-linear wait histogram over the shared bucket layout
  /// (common/histogram_buckets.h) — the same edges obs::Histogram uses,
  /// so the pool's wait distribution snapshots straight into the
  /// metrics registry without rebucketing.
  std::vector<uint64_t> queue_wait_ns_buckets;
};

/// Fixed-size pool of persistent workers (see \file block for the full
/// scheduling / determinism / nesting / exception contract).
class ThreadPool {
 public:
  /// Spawns `num_workers` persistent threads. 0 means "hardware
  /// concurrency minus one": the calling thread always executes shard 0
  /// inline, so workers + caller together saturate the machine.
  explicit ThreadPool(uint32_t num_workers = 0);

  /// Joins all workers. Must not run while a ParallelFor is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent worker threads (excludes the calling thread).
  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Shards a region uses when no scope sets a width: the workers plus
  /// the inline caller, capped at the hardware concurrency. The pool
  /// always spawns at least one worker (so the scheduling machinery is
  /// exercised everywhere), but on a single-core host time-slicing two
  /// shards on one core only adds handoff latency — default regions run
  /// serial there instead. An explicit width is honored uncapped.
  uint32_t DefaultShards() const {
    static const uint32_t hardware =
        std::max(1u, std::thread::hardware_concurrency());
    return std::min(num_workers() + 1, hardware);
  }

  /// The shard count of a region of `n` items, each shard at least
  /// `grain` items (0 reads as 1), under the current thread's width
  /// (CurrentWidth(), or DefaultShards() when no scope sets one): at
  /// least 1, at most the width, and 1 inside a running region (where
  /// ParallelFor runs serial). ParallelFor shards by it, and a site that
  /// sizes per-shard state asks it for the same count.
  uint32_t ShardsFor(uint32_t n, uint32_t grain = 1) const {
    return InParallelRegion() ? 1 : WidthShards(n, grain);
  }

  /// Runs fn(i) for every i in [0, n) on ShardsFor(n, grain) contiguous
  /// shards; a region with one shard runs inline. Blocks until every
  /// item finishes. fn must be safe to call concurrently for distinct
  /// indices. Called from inside a parallel region, runs serial.
  template <typename Fn>
  void ParallelFor(uint32_t n, Fn&& fn, uint32_t grain = 1) {
    if (n == 0) return;
    const uint32_t shards = WidthShards(n, grain);
    if (shards <= 1) {
      for (uint32_t i = 0; i < n; ++i) fn(i);
      return;
    }
    if (InParallelRegion()) {
      // A nested region degrades to serial (see the nesting contract);
      // count it so composition mistakes show up in the stats.
      serial_degradations_.fetch_add(1, std::memory_order_relaxed);
      for (uint32_t i = 0; i < n; ++i) fn(i);
      return;
    }
    RunShards(shards, [n, shards, &fn](uint32_t s) {
      const uint64_t lo = static_cast<uint64_t>(s) * n / shards;
      const uint64_t hi = (static_cast<uint64_t>(s) + 1) * n / shards;
      for (uint64_t i = lo; i < hi; ++i) fn(static_cast<uint32_t>(i));
    });
  }

  /// The process-wide pool every ParallelFor (common/parallel_for.h)
  /// call shares. Constructed on first use with hardware sizing.
  static ThreadPool& Global();

  /// True while the current thread is executing pool work (a worker, or
  /// the caller inside its inline shard). Nested ParallelFor calls check
  /// this to degrade to serial.
  static bool InParallelRegion();

  /// Small dense id of the current thread for per-thread sharding of
  /// observability state: 0 for any non-pool thread (the main thread),
  /// 1..k for pool workers (unique across every pool in the process).
  /// Worker ids are assigned once at worker startup and never reused,
  /// so a worker's id is stable for the process lifetime (the Chrome
  /// trace exporter keys thread lanes on it).
  static uint32_t CurrentWorkerId();

  /// The current thread's opaque task context (see the \file block).
  /// 0 outside any context. The observability layer stores the current
  /// trace-span id here; RunShards propagates it into queued tasks.
  static uint64_t CurrentTaskContext();

  /// Installs `context` as the current thread's task context. Callers
  /// (obs::TraceSpan) restore the previous value when their scope ends.
  static void SetCurrentTaskContext(uint64_t context);

  /// The current thread's parallel width: the innermost ScopedWidth's
  /// nonzero value, or 0 when no scope sets one.
  static uint32_t CurrentWidth();

  /// Snapshot of the lifetime scheduling stats (see ThreadPoolStats).
  ThreadPoolStats GetStats() const;

  /// Enables the per-task queue-wait histogram (two steady_clock reads
  /// per queued task). Off by default: the disabled path costs one
  /// relaxed atomic load per enqueue.
  void set_collect_queue_wait(bool on) {
    collect_queue_wait_.store(on, std::memory_order_relaxed);
  }
  bool collect_queue_wait() const {
    return collect_queue_wait_.load(std::memory_order_relaxed);
  }

  /// Number of queue-wait histogram buckets (the shared log-linear
  /// nanosecond layout of common/histogram_buckets.h).
  static constexpr uint32_t kQueueWaitBuckets = log_linear::kNumBuckets;

 private:
  /// Queues shards 1..shards-1, runs shard 0 inline, waits for all, and
  /// rethrows the lowest-shard exception if any item threw.
  void RunShards(uint32_t shards,
                 const std::function<void(uint32_t)>& shard_fn);

  void WorkerLoop();

  void RecordQueueWait(uint64_t wait_ns);

  // ShardsFor before the nesting rule: what the region would get at top
  // level.
  uint32_t WidthShards(uint32_t n, uint32_t grain) const {
    uint32_t width = CurrentWidth();
    if (width == 0) width = DefaultShards();
    return std::max(1u, std::min(width, n / std::max(grain, 1u)));
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;

  // Lifetime stats: always-on relaxed counters plus the gated wait
  // histogram (see ThreadPoolStats for bucket semantics).
  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> serial_degradations_{0};
  std::atomic<bool> collect_queue_wait_{false};
  std::atomic<uint64_t> queue_wait_count_{0};
  std::atomic<uint64_t> queue_wait_total_ns_{0};
  std::array<std::atomic<uint64_t>, kQueueWaitBuckets> queue_wait_buckets_{};
};

/// Sets the current thread's parallel width for its lifetime (see the
/// width rule in the \file block). An entry point opens one from its
/// `num_threads` option; 0 leaves the enclosing width in place. The
/// previous width is restored on destruction.
class ScopedWidth {
 public:
  explicit ScopedWidth(uint32_t num_threads);
  ~ScopedWidth();

  ScopedWidth(const ScopedWidth&) = delete;
  ScopedWidth& operator=(const ScopedWidth&) = delete;

 private:
  uint32_t prev_;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_THREAD_POOL_H_
