#include "obs/trace.h"

#include <algorithm>
#include <chrono>

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

void Tracer::Record(TraceEvent event) {
  Shard& shard =
      shards_[ThreadPool::CurrentWorkerId() & (kShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(std::move(event));
}

uint64_t CurrentSpanId() { return ThreadPool::CurrentTaskContext(); }

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!Enabled()) return;
  active_ = true;
  id_ = Tracer::Global().NextSpanId();
  parent_id_ = ThreadPool::CurrentTaskContext();
  ThreadPool::SetCurrentTaskContext(id_);
  start_ns_ = NowNanos();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
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

double TraceSpan::ElapsedSeconds() const {
  return static_cast<double>(ElapsedNanos()) * 1e-9;
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

}  // namespace hamlet::obs
