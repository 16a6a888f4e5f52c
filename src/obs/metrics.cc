#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"

namespace hamlet::obs {

void SetEnabled(bool on) {
  if (on) {
    internal::g_probe_state.fetch_or(internal::kCollectBit,
                                     std::memory_order_relaxed);
  } else {
    internal::g_probe_state.fetch_and(~internal::kCollectBit,
                                      std::memory_order_relaxed);
  }
  // While collecting, also time the pool's task queue so scheduling cost
  // shows up in the snapshot; off again when collection stops.
  ThreadPool::Global().set_collect_queue_wait(on);
}

bool EnvRequested() {
  static const bool requested = [] {
    const char* v = std::getenv("HAMLET_TRACE");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
  }();
  return requested;
}

uint64_t Counter::Total() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

void Histogram::RecordAlways(uint64_t nanos) {
  Shard& shard = shards_[ShardIndex()];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
  shard.buckets[BucketFor(nanos)].fetch_add(1, std::memory_order_relaxed);
}

uint32_t Histogram::BucketFor(uint64_t nanos) {
  return log_linear::BucketFor(nanos);
}

uint64_t Histogram::BucketLowerBound(uint32_t bucket) {
  return log_linear::BucketLowerBound(bucket);
}

uint64_t Histogram::BucketUpperBound(uint32_t bucket) {
  return log_linear::BucketUpperBound(bucket);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.buckets.assign(kBuckets, 0);
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum_nanos += s.sum_nanos.load(std::memory_order_relaxed);
    for (uint32_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum_nanos.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::MeanNanos() const {
  return count == 0
             ? 0.0
             : static_cast<double>(sum_nanos) / static_cast<double>(count);
}

uint64_t HistogramSnapshot::PercentileNanos(double p) const {
  // Edge semantics (pinned in tests/metrics_registry_test.cc): an empty
  // histogram has no observation to rank and returns 0.
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t rank =
      std::min<uint64_t>(count - 1,
                         static_cast<uint64_t>(p * static_cast<double>(count)));
  uint64_t seen = 0;
  for (uint32_t b = 0; b < buckets.size(); ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    seen += in_bucket;
    if (seen <= rank) continue;
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    // The final bucket is unbounded above: interpolating inside it would
    // invent values, so return its lower bound (a known underestimate).
    if (hi == UINT64_MAX) return lo;
    // Width-1 buckets (the exact region below 2^kSubBucketBits) hold one
    // value; otherwise place the ranked observation at the midpoint of
    // its within-bucket slot, assuming a uniform spread across the
    // bucket. `pos` is the rank's 0-based offset into this bucket.
    const uint64_t width = hi - lo;
    if (width <= 1) return lo;
    const uint64_t pos = rank - (seen - in_bucket);
    const double frac = (static_cast<double>(pos) + 0.5) /
                        static_cast<double>(in_bucket);
    return lo + static_cast<uint64_t>(static_cast<double>(width) * frac);
  }
  return Histogram::BucketLowerBound(
      static_cast<uint32_t>(buckets.size()) - 1);
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream oss;
  for (const CounterSnapshot& c : counters) {
    oss << StringFormat("%-32s %llu\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.value));
  }
  for (const HistogramSnapshot& h : histograms) {
    oss << StringFormat(
        "%-32s count=%llu mean=%.0fns p50=%lluns p99=%lluns\n",
        h.name.c_str(), static_cast<unsigned long long>(h.count),
        h.MeanNanos(),
        static_cast<unsigned long long>(h.PercentileNanos(0.5)),
        static_cast<unsigned long long>(h.PercentileNanos(0.99)));
  }
  return oss.str();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(name)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot(bool include_thread_pool) const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      snap.counters.push_back({name, counter->Total()});
    }
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms.push_back(histogram->Snapshot());
    }
  }
  if (include_thread_pool) {
    const ThreadPoolStats stats = ThreadPool::Global().GetStats();
    snap.counters.push_back({"threadpool.regions", stats.regions});
    snap.counters.push_back(
        {"threadpool.serial_degradations", stats.serial_degradations});
    snap.counters.push_back({"threadpool.tasks_run", stats.tasks_run});
    HistogramSnapshot wait;
    wait.name = "threadpool.queue_wait_ns";
    wait.count = stats.queue_wait_count;
    wait.sum_nanos = stats.queue_wait_total_ns;
    wait.buckets = stats.queue_wait_ns_buckets;
    wait.buckets.resize(Histogram::kBuckets, 0);  // Pad to obs width.
    snap.histograms.push_back(std::move(wait));
    std::sort(snap.counters.begin(), snap.counters.end(),
              [](const CounterSnapshot& a, const CounterSnapshot& b) {
                return a.name < b.name;
              });
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
                return a.name < b.name;
              });
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace hamlet::obs
