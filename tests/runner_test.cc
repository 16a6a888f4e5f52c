#include "fs/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "analytics/pipeline.h"
#include "common/rng.h"
#include "datasets/registry.h"
#include "ml/naive_bayes.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

struct RunnerFixture {
  EncodedDataset data;
  HoldoutSplit split;

  explicit RunnerFixture(uint64_t seed) {
    Rng rng(seed);
    const uint32_t n = 1000;
    std::vector<uint32_t> f(n), g(n), y(n);
    for (uint32_t i = 0; i < n; ++i) {
      f[i] = rng.Uniform(2);
      g[i] = rng.Uniform(3);
      y[i] = rng.Bernoulli(0.9) ? f[i] : 1 - f[i];
    }
    data = EncodedDataset({f, g}, {{"F", 2}, {"G", 3}}, y, 2);
    Rng split_rng(seed + 1);
    split = MakeHoldoutSplit(n, split_rng);
  }
};

// The text of attribute `key` on the first span named `name`, or "".
std::string SpanText(const obs::Trace& trace, const std::string& name,
                     const std::string& key) {
  for (const obs::TraceEvent& event : trace.events) {
    if (event.name != name) continue;
    for (const obs::TraceAttr& attr : event.attrs) {
      if (attr.key == key) return attr.text;
    }
  }
  return "";
}

// Spans named `name` in `trace`, and how many of them are children of
// an `fs.run` span.
struct SpanCount {
  uint32_t total = 0;
  uint32_t under_run = 0;
};

SpanCount CountSpans(const obs::Trace& trace, const std::string& name) {
  SpanCount count;
  for (const obs::TraceEvent& event : trace.events) {
    if (event.name != name) continue;
    ++count.total;
    for (const obs::TraceEvent& parent : trace.events) {
      if (parent.id == event.parent_id && parent.name == "fs.run") {
        ++count.under_run;
      }
    }
  }
  return count;
}

PipelineConfig WalmartConfig(ClassifierKind kind) {
  PipelineConfig config;
  config.classifier = kind;
  config.metric = *MetricForDataset("Walmart");
  config.num_threads = 1;
  return config;
}

TEST(FsRunnerTest, MakeSelectorCoversAllMethods) {
  for (FsMethod m : AllFsMethods()) {
    auto selector = MakeSelector(m);
    ASSERT_NE(selector, nullptr);
    EXPECT_FALSE(selector->name().empty());
  }
}

TEST(FsRunnerTest, MethodNames) {
  EXPECT_STREQ(FsMethodToString(FsMethod::kForwardSelection),
               "Forward Selection");
  EXPECT_STREQ(FsMethodToString(FsMethod::kBackwardSelection),
               "Backward Selection");
  EXPECT_STREQ(FsMethodToString(FsMethod::kMiFilter), "MI Filter");
  EXPECT_STREQ(FsMethodToString(FsMethod::kIgrFilter), "IGR Filter");
}

TEST(FsRunnerTest, AllMethodsOrderedAsInFigure7) {
  auto methods = AllFsMethods();
  ASSERT_EQ(methods.size(), 4u);
  EXPECT_EQ(methods[0], FsMethod::kForwardSelection);
  EXPECT_EQ(methods[3], FsMethod::kIgrFilter);
}

TEST(FsRunnerTest, ReportContainsEverything) {
  RunnerFixture f(1);
  auto selector = MakeSelector(FsMethod::kForwardSelection);
  auto report = RunFeatureSelection(*selector, f.data, f.split,
                                    MakeNaiveBayesFactory(),
                                    ErrorMetric::kZeroOne,
                                    f.data.AllFeatureIndices());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->method, "forward_selection");
  EXPECT_FALSE(report->selected_names.empty());
  EXPECT_EQ(report->selected_names.size(), report->selection.selected.size());
  EXPECT_GE(report->runtime_seconds, 0.0);
  EXPECT_LT(report->holdout_test_error, 0.2);  // Bayes error 0.1.
  EXPECT_GE(report->selection.models_trained, 1u);
}

TEST(FsRunnerTest, UntracedRunTimesItsStagesFromItsOwnSpans) {
  // A standalone run is its own `fs.run` root: its durations are its
  // spans', and its events leave the Tracer when it finishes.
  ASSERT_FALSE(obs::Enabled());
  obs::Tracer::Global().Clear();
  RunnerFixture f(1);
  auto selector = MakeSelector(FsMethod::kForwardSelection);
  auto report = RunFeatureSelection(*selector, f.data, f.split,
                                    MakeNaiveBayesFactory(),
                                    ErrorMetric::kZeroOne,
                                    f.data.AllFeatureIndices());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->runtime_seconds, 0.0);
  EXPECT_GT(report->fit_seconds, 0.0);
  EXPECT_GT(report->total_seconds, 0.0);
  EXPECT_LE(report->runtime_seconds + report->fit_seconds,
            report->total_seconds);
  EXPECT_TRUE(obs::Tracer::Global().Collect().empty());
  EXPECT_FALSE(obs::Enabled());
}

TEST(FsRunnerTest, AllMethodsProduceLowErrorOnEasyConcept) {
  RunnerFixture f(2);
  for (FsMethod m : AllFsMethods()) {
    auto selector = MakeSelector(m);
    auto report = RunFeatureSelection(*selector, f.data, f.split,
                                      MakeNaiveBayesFactory(),
                                      ErrorMetric::kZeroOne,
                                      f.data.AllFeatureIndices());
    ASSERT_TRUE(report.ok()) << FsMethodToString(m);
    EXPECT_LT(report->holdout_test_error, 0.2) << FsMethodToString(m);
  }
}

// Statistics are built once per run, and only when a consumer reads
// them: each run's own (untraced) tree shows exactly one `fs.stats_build`
// under `fs.run` for Naive Bayes and the factorized decision tree, and
// none for GBT, a materialized tree or a forced scan.
TEST(FsRunnerTest, StatisticsAreBuiltOnlyForRunsThatReadThem) {
  const NormalizedDataset ds = *MakeDataset("Walmart", 0.005, 62);
  struct Case {
    ClassifierKind kind;
    FsMethod method;
    bool avoid_materialization;
    bool force_scan_eval;
    uint32_t builds;
    const char* backend;
  };
  const Case cases[] = {
      {ClassifierKind::kNaiveBayes, FsMethod::kForwardSelection, false, false,
       1, "nb_delta"},
      {ClassifierKind::kNaiveBayes, FsMethod::kBackwardSelection, true, false,
       1, "nb_delta"},
      {ClassifierKind::kNaiveBayes, FsMethod::kMiFilter, false, false, 1,
       "nb_delta"},
      {ClassifierKind::kNaiveBayes, FsMethod::kIgrFilter, true, false, 1,
       "nb_delta"},
      {ClassifierKind::kNaiveBayes, FsMethod::kForwardSelection, false, true,
       0, "scan"},
      {ClassifierKind::kDecisionTree, FsMethod::kForwardSelection, true,
       false, 1, "factorized_scan"},
      {ClassifierKind::kDecisionTree, FsMethod::kForwardSelection, false,
       false, 0, "scan"},
      {ClassifierKind::kGradientBoostedTrees, FsMethod::kForwardSelection,
       false, false, 0, "scan"},
      {ClassifierKind::kGradientBoostedTrees, FsMethod::kForwardSelection,
       true, false, 0, "factorized_scan"},
  };
  for (const Case& c : cases) {
    PipelineConfig config = WalmartConfig(c.kind);
    config.method = c.method;
    config.avoid_materialization = c.avoid_materialization;
    config.force_scan_eval = c.force_scan_eval;
    SCOPED_TRACE(std::string(ClassifierKindToString(c.kind)) + " " +
                 FsMethodToString(c.method) + " avoid " +
                 std::to_string(c.avoid_materialization) + " force " +
                 std::to_string(c.force_scan_eval));
    auto run = RunPipeline(ds, config);
    ASSERT_TRUE(run.ok()) << run.status();
    const SpanCount builds = CountSpans(run->trace, "fs.stats_build");
    EXPECT_EQ(builds.total, c.builds);
    EXPECT_EQ(builds.under_run, c.builds);
    EXPECT_EQ(SpanText(run->trace, "fs.search", "backend"), c.backend);
    EXPECT_EQ(SpanText(run->trace, "fs.final_fit", "backend"), c.backend);
  }
}

// force_scan_eval moves its own run only: a default Naive Bayes run that
// overlaps a stream of forced-scan runs still scores through kNbDelta
// from its own statistics, as its own span tree shows.
TEST(FsRunnerTest, ForceScanRunLeavesConcurrentRunsOnTheirBackend) {
  const NormalizedDataset ds = *MakeDataset("Walmart", 0.005, 61);
  const PipelineConfig config = WalmartConfig(ClassifierKind::kNaiveBayes);
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
  std::thread forced([&] {
    PipelineConfig scan = config;
    scan.force_scan_eval = true;
    while (!stop.load()) {
      running.store(true);
      auto run = RunPipeline(ds, scan);
      EXPECT_TRUE(run.ok()) << run.status();
      if (run.ok()) {
        EXPECT_EQ(SpanText(run->trace, "fs.search", "backend"), "scan");
        EXPECT_EQ(CountSpans(run->trace, "fs.stats_build").total, 0u);
      }
    }
  });
  while (!running.load()) std::this_thread::yield();
  for (int i = 0; i < 10; ++i) {
    auto run = RunPipeline(ds, config);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) continue;
    EXPECT_EQ(SpanText(run->trace, "fs.search", "backend"), "nb_delta");
    EXPECT_EQ(SpanText(run->trace, "fs.final_fit", "backend"), "nb_delta");
    EXPECT_EQ(CountSpans(run->trace, "fs.stats_build").total, 1u);
  }
  stop.store(true);
  forced.join();
}

}  // namespace
}  // namespace hamlet
