#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace hamlet {

namespace {

// Set while the current thread executes pool work. Worker threads hold it
// for their whole lifetime; the calling thread holds it only while running
// its inline shard. Nested ParallelFor calls consult it to degrade to a
// serial loop instead of re-entering the queue (which could deadlock the
// caller behind its own work).
thread_local bool tls_in_parallel_region = false;

// Dense per-thread id for observability sharding: 0 for non-pool threads,
// 1..k for workers (assigned once at worker startup, unique across pools).
thread_local uint32_t tls_worker_id = 0;
std::atomic<uint32_t> g_next_worker_id{1};

// Opaque per-thread task context (the submitting span's id, for the
// observability layer). RunShards copies the submitter's value into each
// queued task so cross-thread work keeps its logical parent.
thread_local uint64_t tls_task_context = 0;

// The innermost ScopedWidth's width on this thread (0 = none set). Not
// propagated into pool tasks: a region nested in a running one is serial.
thread_local uint32_t tls_width = 0;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class ScopedParallelRegion {
 public:
  ScopedParallelRegion() : prev_(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~ScopedParallelRegion() { tls_in_parallel_region = prev_; }

 private:
  bool prev_;
};

}  // namespace

ThreadPool::ThreadPool(uint32_t num_workers) {
  const uint32_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const uint32_t n =
      num_workers == 0 ? std::max(1u, hardware - 1) : num_workers;
  workers_.reserve(n);
  for (uint32_t t = 0; t < n; ++t) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;  // Workers never spawn nested regions.
  tls_worker_id = g_next_worker_id.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Count before running: the task's completion handoff wakes the
    // region's caller, so counting after would let a stats snapshot
    // observe a finished region with its tasks still uncounted.
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
}

void ThreadPool::RecordQueueWait(uint64_t wait_ns) {
  queue_wait_count_.fetch_add(1, std::memory_order_relaxed);
  queue_wait_total_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
  queue_wait_buckets_[log_linear::BucketFor(wait_ns)].fetch_add(
      1, std::memory_order_relaxed);
}

ThreadPoolStats ThreadPool::GetStats() const {
  ThreadPoolStats stats;
  stats.regions = regions_.load(std::memory_order_relaxed);
  stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  stats.serial_degradations =
      serial_degradations_.load(std::memory_order_relaxed);
  stats.queue_wait_count = queue_wait_count_.load(std::memory_order_relaxed);
  stats.queue_wait_total_ns =
      queue_wait_total_ns_.load(std::memory_order_relaxed);
  stats.queue_wait_ns_buckets.reserve(kQueueWaitBuckets);
  for (const auto& b : queue_wait_buckets_) {
    stats.queue_wait_ns_buckets.push_back(
        b.load(std::memory_order_relaxed));
  }
  return stats;
}

void ThreadPool::RunShards(
    uint32_t shards, const std::function<void(uint32_t)>& shard_fn) {
  // Per-region completion state lives on the caller's stack; the caller
  // blocks until `remaining` hits zero, so it outlives every task.
  struct ForState {
    std::mutex mu;
    std::condition_variable done_cv;
    uint32_t remaining;
    // One slot per shard; slot writes race with nothing (distinct shards)
    // and are published by the `remaining` handoff below.
    std::vector<std::exception_ptr> errors;
  };
  ForState state;
  state.remaining = shards - 1;  // Shard 0 runs inline on this thread.
  state.errors.assign(shards, nullptr);

  regions_.fetch_add(1, std::memory_order_relaxed);
  // 0 doubles as "timing off": steady_clock is monotonically far from 0.
  const uint64_t enqueue_ns =
      collect_queue_wait_.load(std::memory_order_relaxed) ? NowNanos() : 0;
  // Capture the submitter's task context (the enclosing trace span, if
  // any) so work on the workers keeps its logical parent; each task
  // restores the worker's own context when it finishes.
  const uint64_t submitter_context = tls_task_context;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s = 1; s < shards; ++s) {
      queue_.emplace_back(
          [this, &state, &shard_fn, s, enqueue_ns, submitter_context] {
        if (enqueue_ns != 0) RecordQueueWait(NowNanos() - enqueue_ns);
        const uint64_t prev_context = tls_task_context;
        tls_task_context = submitter_context;
        try {
          shard_fn(s);
        } catch (...) {
          state.errors[s] = std::current_exception();
        }
        tls_task_context = prev_context;
        std::lock_guard<std::mutex> done(state.mu);
        if (--state.remaining == 0) state.done_cv.notify_one();
      });
    }
  }
  work_cv_.notify_all();

  {
    ScopedParallelRegion region;
    try {
      shard_fn(0);
    } catch (...) {
      state.errors[0] = std::current_exception();
    }
  }

  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done_cv.wait(lock, [&] { return state.remaining == 0; });
  }

  // Deterministic propagation: the lowest-indexed shard's exception wins,
  // independent of which shard finished (or threw) first in wall time.
  for (uint32_t s = 0; s < shards; ++s) {
    if (state.errors[s]) std::rethrow_exception(state.errors[s]);
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

uint32_t ThreadPool::CurrentWorkerId() { return tls_worker_id; }

uint64_t ThreadPool::CurrentTaskContext() { return tls_task_context; }

void ThreadPool::SetCurrentTaskContext(uint64_t context) {
  tls_task_context = context;
}

uint32_t ThreadPool::CurrentWidth() { return tls_width; }

ScopedWidth::ScopedWidth(uint32_t num_threads) : prev_(tls_width) {
  if (num_threads != 0) tls_width = num_threads;
}

ScopedWidth::~ScopedWidth() { tls_width = prev_; }

}  // namespace hamlet
