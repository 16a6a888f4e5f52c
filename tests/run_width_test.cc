/// \file run_width_test.cc
/// The one parallelism rule (common/thread_pool.h), end to end: a run
/// sets its width once, at its entry point, and every loop under it —
/// the join, the statistics, the search, each candidate model's own
/// training, the final fit — reads that width. A RunPipeline at
/// num_threads = 1 therefore runs no pool region and no pool task, for
/// every classifier the factorized view serves, on both views, under a
/// forward and a backward search; and the same cells give the same bits
/// at widths 1, 2 and 8. scripts/check_determinism.sh runs this suite
/// under TSAN.

#include <gtest/gtest.h>

#include <string>

#include "analytics/pipeline.h"
#include "common/thread_pool.h"
#include "datasets/registry.h"

namespace hamlet {
namespace {

struct PoolUse {
  uint64_t regions = 0;
  uint64_t tasks_run = 0;
};

// The pool work one RunPipeline call issues: the deltas of the global
// pool's lifetime counters around it (nothing else in this process
// submits work meanwhile).
Result<PipelineReport> RunCounted(const NormalizedDataset& dataset,
                                  const PipelineConfig& config,
                                  PoolUse* use) {
  const ThreadPoolStats before = ThreadPool::Global().GetStats();
  Result<PipelineReport> report = RunPipeline(dataset, config);
  const ThreadPoolStats after = ThreadPool::Global().GetStats();
  use->regions = after.regions - before.regions;
  use->tasks_run = after.tasks_run - before.tasks_run;
  return report;
}

TEST(RunWidthTest, SerialPipelineRunsNoPoolTaskAndEveryWidthAgrees) {
  const NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 61);
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kDecisionTree,
        ClassifierKind::kGradientBoostedTrees}) {
    for (FsMethod method :
         {FsMethod::kForwardSelection, FsMethod::kBackwardSelection}) {
      for (bool factorized : {false, true}) {
        SCOPED_TRACE(std::string(ClassifierKindToString(kind)) + " " +
                     FsMethodToString(method) +
                     (factorized ? " factorized" : " materialized"));
        PipelineConfig config;
        config.classifier = kind;
        config.method = method;
        config.metric = *MetricForDataset("Walmart");
        config.enable_join_avoidance = false;  // Join (or factorize) all.
        config.avoid_materialization = factorized;
        config.seed = 61;

        config.num_threads = 1;
        PoolUse serial_use;
        const Result<PipelineReport> serial =
            RunCounted(dataset, config, &serial_use);
        ASSERT_TRUE(serial.ok()) << serial.status();
        EXPECT_EQ(serial->factorized, factorized);
        EXPECT_EQ(serial_use.regions, 0u);
        EXPECT_EQ(serial_use.tasks_run, 0u);

        for (uint32_t width : {2u, 8u}) {
          config.num_threads = width;
          PoolUse use;
          const Result<PipelineReport> run =
              RunCounted(dataset, config, &use);
          ASSERT_TRUE(run.ok()) << run.status();
          const std::string what = "width " + std::to_string(width);
          EXPECT_EQ(run->selection.selected_names,
                    serial->selection.selected_names)
              << what;
          EXPECT_EQ(run->selection.selection.validation_error,
                    serial->selection.selection.validation_error)
              << what;
          EXPECT_EQ(run->selection.selection.models_trained,
                    serial->selection.selection.models_trained)
              << what;
          EXPECT_EQ(run->selection.holdout_test_error,
                    serial->selection.holdout_test_error)
              << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hamlet
