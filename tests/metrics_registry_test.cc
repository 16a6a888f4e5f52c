#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

TEST(MetricsRegistryTest, DisabledCounterCountsNothing) {
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.disabled_counter");
  counter.Reset();
  ASSERT_FALSE(obs::Enabled());
  counter.Add(5);
  counter.Add();
  EXPECT_EQ(counter.Total(), 0u);
}

TEST(MetricsRegistryTest, EnabledCounterSumsAcrossShards) {
  obs::ScopedCollection collection(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.enabled_counter");
  counter.Add(3);
  counter.Add();
  EXPECT_EQ(counter.Total(), 4u);
  counter.Reset();
  EXPECT_EQ(counter.Total(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsFromPoolWorkersAreLossless) {
  obs::ScopedCollection collection(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  constexpr uint32_t kItems = 10000;
  ThreadPool pool(4);
  pool.ParallelFor(kItems, [&](uint32_t) { counter.Add(); });
  EXPECT_EQ(counter.Total(), kItems);
}

TEST(MetricsRegistryTest, RegistryReturnsSameObjectForSameName) {
  obs::Counter& a = obs::MetricsRegistry::Global().GetCounter("test.dedup");
  obs::Counter& b = obs::MetricsRegistry::Global().GetCounter("test.dedup");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 =
      obs::MetricsRegistry::Global().GetHistogram("test.dedup_ns");
  obs::Histogram& h2 =
      obs::MetricsRegistry::Global().GetHistogram("test.dedup_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(HistogramTest, BucketEdges) {
  // Log-linear layout (common/histogram_buckets.h): one exact bucket
  // per value below 32, then 32 linear sub-buckets per octave.
  for (uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(obs::Histogram::BucketFor(v), v) << "v=" << v;
  }
  // First sub-bucketed octave [32, 64): sub-bucket width 1.
  EXPECT_EQ(obs::Histogram::BucketFor(32), 32u);
  EXPECT_EQ(obs::Histogram::BucketFor(33), 33u);
  EXPECT_EQ(obs::Histogram::BucketFor(63), 63u);
  // Octave [64, 128): sub-bucket width 2, group starts at index 64.
  EXPECT_EQ(obs::Histogram::BucketFor(64), 64u);
  EXPECT_EQ(obs::Histogram::BucketFor(65), 64u);
  EXPECT_EQ(obs::Histogram::BucketFor(66), 65u);
  EXPECT_EQ(obs::Histogram::BucketFor(127), 95u);
  // Every octave start lands on a group boundary (index multiple of 32).
  for (uint32_t e = 5; e <= 47; ++e) {
    const uint64_t lo = uint64_t{1} << e;
    EXPECT_EQ(obs::Histogram::BucketFor(lo), (e - 5 + 1) * 32u)
        << "e=" << e;
    EXPECT_EQ(obs::Histogram::BucketFor(2 * lo - 1),
              (e - 5 + 1) * 32u + 31u)
        << "e=" << e;
  }
  // Everything past the last octave clamps into the final bucket.
  EXPECT_EQ(obs::Histogram::BucketFor(uint64_t{1} << 48),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketFor(UINT64_MAX),
            obs::Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsInvertBucketFor) {
  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0u);
  for (uint32_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    const uint64_t lo = obs::Histogram::BucketLowerBound(b);
    const uint64_t hi = obs::Histogram::BucketUpperBound(b);
    // The lower bound maps back to its own bucket; the value just below
    // it maps to the previous bucket; the upper bound starts the next.
    EXPECT_EQ(obs::Histogram::BucketFor(lo), b) << "b=" << b;
    if (b > 0) {
      EXPECT_EQ(obs::Histogram::BucketFor(lo - 1), b - 1) << "b=" << b;
    }
    if (b + 1 < obs::Histogram::kBuckets) {
      EXPECT_EQ(hi, obs::Histogram::BucketLowerBound(b + 1));
      EXPECT_EQ(obs::Histogram::BucketFor(hi), b + 1) << "b=" << b;
    } else {
      EXPECT_EQ(hi, UINT64_MAX);  // Final bucket is unbounded.
    }
  }
}

TEST(HistogramTest, BucketRelativeWidthIsBoundedBy1Over32) {
  // The property the percentile-accuracy contract rests on: above the
  // exact region, every bucket spans at most 1/32 of its lower bound.
  for (uint32_t b = 32; b + 1 < obs::Histogram::kBuckets; ++b) {
    const uint64_t lo = obs::Histogram::BucketLowerBound(b);
    const uint64_t width = obs::Histogram::BucketUpperBound(b) - lo;
    EXPECT_LE(width * 32, lo) << "b=" << b;
  }
}

TEST(HistogramTest, RecordSnapshotMeanAndPercentile) {
  obs::ScopedCollection collection(true);
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.latency_ns");
  // 10 observations of 4 ns (exact bucket 4) and 90 of 100 ns (octave
  // [64,128), sub-bucket width 2 -> bucket holds [100, 102)).
  for (int i = 0; i < 10; ++i) histogram.Record(4);
  for (int i = 0; i < 90; ++i) histogram.Record(100);
  obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum_nanos, 10u * 4 + 90u * 100);
  ASSERT_EQ(snap.buckets.size(), obs::Histogram::kBuckets);
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketFor(4)], 10u);
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketFor(100)], 90u);
  EXPECT_DOUBLE_EQ(snap.MeanNanos(), (10.0 * 4 + 90.0 * 100) / 100.0);
  // p5 lands in the exact 4-ns bucket; p50 and p99 in [100, 102), so
  // the interpolated estimate stays within that bucket.
  EXPECT_EQ(snap.PercentileNanos(0.05), 4u);
  EXPECT_GE(snap.PercentileNanos(0.50), 100u);
  EXPECT_LT(snap.PercentileNanos(0.50), 102u);
  EXPECT_GE(snap.PercentileNanos(0.99), 100u);
  EXPECT_LT(snap.PercentileNanos(0.99), 102u);
}

TEST(HistogramTest, PercentileEdgeCasesArePinned) {
  // Empty histogram: no observation to rank -> 0 at every p.
  obs::HistogramSnapshot empty;
  empty.buckets.assign(obs::Histogram::kBuckets, 0);
  EXPECT_EQ(empty.PercentileNanos(0.0), 0u);
  EXPECT_EQ(empty.PercentileNanos(0.5), 0u);
  EXPECT_EQ(empty.PercentileNanos(1.0), 0u);

  // Observations past 2^47 ns clamp into the final (unbounded) bucket;
  // a percentile landing there reports the bucket's lower bound rather
  // than interpolating into values that were never observed.
  obs::ScopedCollection collection(true);
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.overflow_ns");
  histogram.Record(UINT64_MAX);
  histogram.Record(UINT64_MAX - 1);
  obs::HistogramSnapshot snap = histogram.Snapshot();
  const uint64_t last_floor =
      obs::Histogram::BucketLowerBound(obs::Histogram::kBuckets - 1);
  EXPECT_EQ(snap.PercentileNanos(0.5), last_floor);
  EXPECT_EQ(snap.PercentileNanos(1.0), last_floor);
}

TEST(HistogramTest, LogLinearP99TracksExactOrderStatistic) {
  // Calibration contract (ISSUE acceptance): the p50/p99 read from the
  // log-linear buckets must land within 10% of the exact order
  // statistic of the recorded values. A deterministic LCG produces a
  // long-tailed sample spanning several octaves, like serve.score_ns.
  obs::ScopedCollection collection(true);
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.calibration_ns");
  std::vector<uint64_t> values;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mix of scales: ~1us base with a x16 tail on every 16th draw.
    uint64_t v = 200 + (x >> 40);  // [200, ~17M) ns.
    if (i % 16 == 0) v *= 16;
    values.push_back(v);
    histogram.Record(v);
  }
  std::sort(values.begin(), values.end());
  obs::HistogramSnapshot snap = histogram.Snapshot();
  for (const double p : {0.50, 0.90, 0.99}) {
    const uint64_t exact =
        values[static_cast<size_t>(p * (values.size() - 1))];
    const uint64_t approx = snap.PercentileNanos(p);
    const double rel =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LT(rel, 0.10) << "p=" << p << " exact=" << exact
                         << " approx=" << approx;
  }
}

TEST(MetricsRegistryTest, WriterStormSnapshotsSeeMonotonicCounts) {
  // Writer storm: pool workers hammer a counter and a histogram while
  // the main thread repeatedly snapshots. Every snapshot must be
  // internally consistent (histogram bucket sum == histogram count) and
  // counts must grow monotonically across snapshots — torn or partially
  // visible shard reads would violate both. Runs under TSAN via
  // scripts/check_determinism.sh's obs pass.
  obs::ScopedCollection collection(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.storm_counter");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.storm_ns");
  constexpr uint32_t kItems = 200000;
  ThreadPool pool(4);
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    uint64_t last_count = 0;
    uint64_t last_hist = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t c = counter.Total();
      const obs::HistogramSnapshot h = histogram.Snapshot();
      uint64_t bucket_sum = 0;
      for (const uint64_t b : h.buckets) bucket_sum += b;
      // Mid-storm snapshots may lag the writers, but the counts a
      // reader sees must never run backwards or overshoot the total
      // work submitted.
      EXPECT_GE(c, last_count);
      EXPECT_GE(h.count, last_hist);
      EXPECT_LE(bucket_sum, kItems);
      last_count = c;
      last_hist = h.count;
    }
  });
  pool.ParallelFor(kItems, [&](uint32_t i) {
    counter.Add();
    histogram.Record(i);
  });
  done.store(true, std::memory_order_release);
  snapshotter.join();
  // Quiesced: everything is visible and self-consistent.
  EXPECT_EQ(counter.Total(), kItems);
  const obs::HistogramSnapshot final_snap = histogram.Snapshot();
  EXPECT_EQ(final_snap.count, kItems);
  uint64_t bucket_sum = 0;
  for (const uint64_t b : final_snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kItems);
}

TEST(HistogramTest, DisabledRecordIsANoOp) {
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.noop_ns");
  histogram.Reset();
  ASSERT_FALSE(obs::Enabled());
  histogram.Record(1000);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, SnapshotIncludesThreadPoolLifetimeStats) {
  obs::ScopedCollection collection(true);
  // Force at least one global-pool region so the counters are nonzero.
  // The explicit width matters: a default-width region runs serial on a
  // single-core host and would never reach the pool.
  {
    const ScopedWidth width(2);
    ParallelFor(64, [](uint32_t) {});
  }
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.CounterValue("threadpool.regions"), 1u);
  EXPECT_GE(snap.CounterValue("threadpool.tasks_run"),
            snap.CounterValue("threadpool.regions"));
  bool found_queue_wait = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "threadpool.queue_wait_ns") found_queue_wait = true;
  }
  EXPECT_TRUE(found_queue_wait);
  // Snapshots are sorted by name for deterministic rendering.
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_NE(snap.ToString().find("threadpool.tasks_run"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesRegisteredMetrics) {
  obs::ScopedCollection collection(true);
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.reset_counter");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("test.reset_ns");
  counter.Add(7);
  histogram.Record(42);
  obs::MetricsRegistry::Global().Reset();
  EXPECT_EQ(counter.Total(), 0u);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST(MetricsRegistryTest, ScopedCollectionResetsAndRestores) {
  ASSERT_FALSE(obs::Enabled());
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("test.window_counter");
  {
    obs::ScopedCollection collection(true);
    EXPECT_TRUE(obs::Enabled());
    EXPECT_TRUE(collection.enabled());
    counter.Add(2);
    EXPECT_EQ(counter.Total(), 2u);
  }
  EXPECT_FALSE(obs::Enabled());
  {
    // A second window starts from a clean registry.
    obs::ScopedCollection collection(true);
    EXPECT_EQ(counter.Total(), 0u);
  }
}

}  // namespace
}  // namespace hamlet
