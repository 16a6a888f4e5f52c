#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/pipeline.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "ml/factorized.h"
#include "ml/logistic_regression.h"
#include "obs/report.h"

namespace hamlet {
namespace {

// Collected events by name, for asserting on the parent links.
std::vector<obs::TraceEvent> EventsNamed(const obs::Trace& trace,
                                         const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : trace.events) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

TEST(TracePropagationTest, ParallelForSpansParentUnderSubmittingSpan) {
  // The ISSUE acceptance case: spans opened inside ParallelFor bodies
  // running on pool workers must parent under the span that issued the
  // region, at num_threads >= 4.
  obs::ScopedCollection collection(true);
  ThreadPool pool(4);
  {
    obs::TraceSpan region("test.region");
    pool.ParallelFor(32, 2, [](uint32_t i) {
      obs::TraceSpan shard("test.shard");
      shard.AddAttr("item", i);
    });
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  const auto regions = EventsNamed(trace, "test.region");
  const auto shards = EventsNamed(trace, "test.shard");
  ASSERT_EQ(regions.size(), 1u);
  ASSERT_EQ(shards.size(), 32u);
  // Work actually fanned out to more than one worker; propagation must
  // hold regardless of which thread ran each shard.
  std::set<uint32_t> workers;
  for (const auto& s : shards) {
    workers.insert(s.worker_id);
    EXPECT_EQ(s.parent_id, regions[0].id);
  }
  EXPECT_GT(workers.size(), 1u);
}

TEST(TracePropagationTest, CurrentSpanIdPropagatesIntoPoolTasks) {
  obs::ScopedCollection collection(true);
  ThreadPool pool(4);
  uint64_t submitter_span = 0;
  std::atomic<uint32_t> mismatches{0};
  {
    obs::TraceSpan region("test.region");
    submitter_span = obs::CurrentSpanId();
    ASSERT_NE(submitter_span, 0u);
    pool.ParallelFor(16, 2, [&](uint32_t) {
      // Inside a task with no span of its own, the current id IS the
      // submitter's innermost span — the propagated context.
      if (obs::CurrentSpanId() != submitter_span) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    // Propagation must not disturb the submitting thread's own context.
    EXPECT_EQ(obs::CurrentSpanId(), submitter_span);
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
}

TEST(TracePropagationTest, NestedSpansInsideTasksChainToTheirOwnParent) {
  // A span opened inside a task becomes the context for further spans
  // in that task: outer (parented to the submitter) -> inner (parented
  // to outer), never inner -> submitter directly.
  obs::ScopedCollection collection(true);
  ThreadPool pool(4);
  {
    obs::TraceSpan region("test.region");
    pool.ParallelFor(8, 2, [](uint32_t) {
      obs::TraceSpan outer("test.outer");
      obs::TraceSpan inner("test.inner");
    });
  }
  obs::Trace trace = obs::Tracer::Global().Collect();
  const auto regions = EventsNamed(trace, "test.region");
  ASSERT_EQ(regions.size(), 1u);
  std::map<uint64_t, uint64_t> outer_ids;  // id -> parent
  for (const auto& e : EventsNamed(trace, "test.outer")) {
    EXPECT_EQ(e.parent_id, regions[0].id);
    outer_ids[e.id] = e.parent_id;
  }
  const auto inners = EventsNamed(trace, "test.inner");
  ASSERT_EQ(inners.size(), 8u);
  for (const auto& e : inners) {
    EXPECT_TRUE(outer_ids.count(e.parent_id))
        << "inner span skipped its task-local parent";
  }
}

TEST(TracePropagationTest, WorkersRestoreContextBetweenRegions) {
  // A worker that ran region A's tasks must not leak A's context into
  // region B's tasks: each region's shard spans parent under their own
  // region span only.
  obs::ScopedCollection collection(true);
  ThreadPool pool(4);
  {
    obs::TraceSpan a("test.region_a");
    pool.ParallelFor(16, 2, [](uint32_t) { obs::TraceSpan s("test.shard_a"); });
  }
  {
    obs::TraceSpan b("test.region_b");
    pool.ParallelFor(16, 2, [](uint32_t) { obs::TraceSpan s("test.shard_b"); });
  }
  // And with no region open at all, tasks see no stale context.
  pool.ParallelFor(16, 2, [](uint32_t) { obs::TraceSpan s("test.shard_none"); });

  obs::Trace trace = obs::Tracer::Global().Collect();
  const auto a = EventsNamed(trace, "test.region_a");
  const auto b = EventsNamed(trace, "test.region_b");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  for (const auto& e : EventsNamed(trace, "test.shard_a")) {
    EXPECT_EQ(e.parent_id, a[0].id);
  }
  for (const auto& e : EventsNamed(trace, "test.shard_b")) {
    EXPECT_EQ(e.parent_id, b[0].id);
  }
  for (const auto& e : EventsNamed(trace, "test.shard_none")) {
    EXPECT_EQ(e.parent_id, 0u);
  }
}

TEST(TracePropagationTest, TracedPipelineRunHasNoOrphanedPoolSpans) {
  // End to end: in a traced pipeline run, every span recorded from a
  // pool worker must hang off the stage that submitted it — parent ids
  // always resolve to a collected event, and no pool-worker span is a
  // root (before propagation, every shard-level span opened on a worker
  // rooted at its thread and the explain tree lost the hierarchy).
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config;
  config.method = FsMethod::kMiFilter;
  config.metric = ErrorMetric::kRmse;
  config.seed = 7;
  config.trace = true;
  auto report = RunPipeline(ds, config);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->trace.empty());

  std::set<uint64_t> ids;
  for (const auto& e : report->trace.events) ids.insert(e.id);
  for (const auto& e : report->trace.events) {
    if (e.parent_id != 0) {
      EXPECT_TRUE(ids.count(e.parent_id))
          << e.name << " points at an uncollected parent";
    }
    if (e.worker_id != 0) {
      EXPECT_NE(e.parent_id, 0u)
          << e.name << " ran on worker " << e.worker_id
          << " but is an orphaned root";
    }
  }
}

// --- RunTrace: every run carries its own stage tree. ----------------------

PipelineConfig UntracedConfig(uint64_t seed) {
  PipelineConfig config;
  config.enable_join_avoidance = false;  // join.kfk spans as well.
  config.method = FsMethod::kMiFilter;
  config.metric = ErrorMetric::kRmse;
  config.seed = seed;
  config.num_threads = 2;
  return config;
}

// Ids of `trace`'s events that descend from its `pipeline` root; events
// are sorted by start time, so a parent always precedes its children.
std::set<uint64_t> DescendantsOfPipelineRoot(const obs::Trace& trace) {
  std::set<uint64_t> ids;
  for (const auto& e : trace.events) {
    if ((e.name == "pipeline" && e.parent_id == 0) ||
        ids.count(e.parent_id) != 0) {
      ids.insert(e.id);
    }
  }
  return ids;
}

TEST(RunTraceTest, ConcurrentUntracedRunsKeepTheirOwnTrees) {
  ASSERT_FALSE(obs::Enabled());
  obs::Tracer::Global().Clear();
  const NormalizedDataset ds = *MakeDataset("Walmart", 0.02, 3);
  std::vector<PipelineReport> reports(2);
  std::vector<Status> statuses(2);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < reports.size(); ++t) {
    threads.emplace_back([&, t] {
      auto report = RunPipeline(ds, UntracedConfig(7 + t));
      statuses[t] = report.status();
      if (report.ok()) reports[t] = std::move(*report);
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<uint64_t> seen;
  for (size_t t = 0; t < reports.size(); ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t];
    const obs::Trace& trace = reports[t].trace;
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.events[0].name, "pipeline");
    EXPECT_EQ(trace.events[0].parent_id, 0u);
    EXPECT_EQ(DescendantsOfPipelineRoot(trace).size(), trace.events.size())
        << "run " << t << " holds a span outside its own tree";
    EXPECT_FALSE(EventsNamed(trace, "join.kfk").empty());
    for (const auto& e : trace.events) {
      EXPECT_TRUE(seen.insert(e.id).second)
          << e.name << " appears in both runs' trees";
    }
  }
  EXPECT_TRUE(obs::Tracer::Global().Collect().empty());
  EXPECT_FALSE(obs::Enabled());
}

TEST(RunTraceTest, FailingUntracedRunLeavesTheTracerEmpty) {
  ASSERT_FALSE(obs::Enabled());
  obs::Tracer::Global().Clear();
  const NormalizedDataset ds = *MakeDataset("Walmart", 0.01, 3);
  std::vector<std::string> fks;
  for (const auto& fk : ds.foreign_keys()) fks.push_back(fk.fk_column);
  const FactorizedDataset data = *FactorizedDataset::Make(ds, fks);
  Rng rng(5);
  const HoldoutSplit split = MakeHoldoutSplit(data.num_rows(), rng);
  auto selector = MakeSelector(FsMethod::kForwardSelection);
  // No factorized scorer serves logistic regression.
  auto report = RunFeatureSelectionFactorized(
      *selector, data, split, MakeLogisticRegressionFactory(),
      ErrorMetric::kZeroOne, data.AllFeatureIndices());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(obs::Tracer::Global().Collect().empty());
}

TEST(RunTraceTest, UntracedRunLeavesCollectionOffAndTheCallersCounters) {
  obs::Counter& caller =
      obs::MetricsRegistry::Global().GetCounter("test.caller_window");
  obs::Counter& models =
      obs::MetricsRegistry::Global().GetCounter("fs.models_trained");
  {
    obs::ScopedCollection window(true);
    caller.Add(7);
  }
  ASSERT_FALSE(obs::Enabled());
  obs::Tracer::Global().Clear();
  const uint64_t models_before = models.Total();

  const NormalizedDataset ds = *MakeDataset("Walmart", 0.02, 3);
  auto report = RunPipeline(ds, UntracedConfig(7));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->selection.selection.models_trained, 0u);
  EXPECT_FALSE(obs::Enabled());
  // The run opened no collection window: the caller's counter survives,
  // and the run's own counters stayed off throughout.
  EXPECT_EQ(caller.Total(), 7u);
  EXPECT_EQ(models.Total(), models_before);
  EXPECT_TRUE(report->trace_summary.counters.empty());
  EXPECT_TRUE(obs::Tracer::Global().Collect().empty());
}

TEST(RunTraceTest, TracedRunNestsUnderTheCallersOpenSpan) {
  obs::ScopedCollection window(true);
  const NormalizedDataset ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = UntracedConfig(7);
  config.trace = true;
  PipelineReport report;
  uint64_t caller_id = 0;
  {
    obs::TraceSpan caller("test.caller");
    caller_id = obs::CurrentSpanId();
    auto result = RunPipeline(ds, config);
    ASSERT_TRUE(result.ok()) << result.status();
    report = std::move(*result);
  }
  EXPECT_TRUE(obs::Enabled());  // The caller's window is still open.
  ASSERT_FALSE(report.trace.empty());
  EXPECT_EQ(report.trace.events[0].name, "pipeline");
  EXPECT_EQ(report.trace.events[0].parent_id, caller_id);

  // The run's events stay in the caller's window, under the caller.
  const obs::Trace trace = obs::Tracer::Global().Collect();
  std::set<uint64_t> window_ids;
  for (const auto& e : trace.events) window_ids.insert(e.id);
  EXPECT_TRUE(window_ids.count(caller_id));
  for (const auto& e : report.trace.events) {
    EXPECT_TRUE(window_ids.count(e.id)) << e.name << " left the window";
  }
  EXPECT_EQ(EventsNamed(trace, "pipeline").size(), 1u);
}

}  // namespace
}  // namespace hamlet
