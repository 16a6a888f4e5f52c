#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

namespace hamlet::obs {

// The innermost open span is tracked via the thread pool's opaque task
// context (ThreadPool::CurrentTaskContext) instead of a private
// thread_local: RunShards copies the submitter's context into every
// queued task, so a span opened inside a ParallelFor body parents under
// the span that issued the region — on any worker, at any thread count —
// rather than rooting at the worker thread.

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.events.clear();
  }
}

Trace Tracer::Collect() const {
  Trace trace;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    trace.events.insert(trace.events.end(), shard.events.begin(),
                        shard.events.end());
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return trace;
}

Trace Tracer::Subtree(uint64_t root_id, bool remove) {
  Trace trace = Collect();
  // Sorted by start time, a span's parent precedes it, so one sweep
  // finds every descendant.
  std::unordered_set<uint64_t> ids = {root_id};
  std::vector<TraceEvent> kept;
  for (TraceEvent& event : trace.events) {
    if (event.id == root_id || ids.count(event.parent_id) != 0) {
      ids.insert(event.id);
      kept.push_back(std::move(event));
    }
  }
  trace.events = std::move(kept);
  if (remove) {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      std::erase_if(shard.events, [&](const TraceEvent& event) {
        return ids.count(event.id) != 0;
      });
    }
  }
  return trace;
}

void Tracer::Record(TraceEvent event) {
  Shard& shard =
      shards_[ThreadPool::CurrentWorkerId() & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(std::move(event));
}

uint64_t CurrentSpanId() { return ThreadPool::CurrentTaskContext(); }

void TraceSpan::OpenIfRecording() {
  if (Enabled() || ThreadPool::CurrentTaskContext() != 0) Open();
}

void TraceSpan::Open() {
  active_ = true;
  id_ = Tracer::Global().NextSpanId();
  parent_id_ = ThreadPool::CurrentTaskContext();
  ThreadPool::SetCurrentTaskContext(id_);
  start_ns_ = NowNanos();
}

void TraceSpan::Close() {
  active_ = false;
  TraceEvent event;
  event.id = id_;
  event.parent_id = parent_id_;
  event.name = name_;
  event.start_ns = start_ns_;
  event.end_ns = NowNanos();
  event.worker_id = ThreadPool::CurrentWorkerId();
  event.attrs = std::move(attrs_);
  ThreadPool::SetCurrentTaskContext(parent_id_);
  Tracer::Global().Record(std::move(event));
}

void TraceSpan::AddAttr(const char* key, int64_t value) {
  if (!active_) return;
  TraceAttr attr;
  attr.key = key;
  attr.number = value;
  attr.is_number = true;
  attrs_.push_back(std::move(attr));
}

void TraceSpan::AddAttr(const char* key, const std::string& value) {
  if (!active_) return;
  TraceAttr attr;
  attr.key = key;
  attr.text = value;
  attrs_.push_back(std::move(attr));
}

ScopedCollection::ScopedCollection(bool enable) : enabled_(enable) {
  if (!enabled_) return;
  prev_ = Enabled();
  Tracer::Global().Clear();
  MetricsRegistry::Global().Reset();
  SetEnabled(true);
}

ScopedCollection::~ScopedCollection() {
  if (enabled_) SetEnabled(prev_);
}

RunTrace::RunTrace(const char* name)
    : root_(name, TraceSpan::AlwaysRecord{}) {
  remove_ = root_.parent_id_ == 0 && !Enabled();
  internal::g_probe_state.fetch_add(internal::kRunUnit,
                                    std::memory_order_relaxed);
}

RunTrace::~RunTrace() {
  if (root_.active_) {  // Unfinished: the run returned early.
    root_.Close();
    if (remove_) Tracer::Global().Subtree(root_.id_, true);
  }
  internal::g_probe_state.fetch_sub(internal::kRunUnit,
                                    std::memory_order_relaxed);
}

Trace RunTrace::Finish() {
  root_.Close();
  return Tracer::Global().Subtree(root_.id_, remove_);
}

}  // namespace hamlet::obs
