#include "fs/runner.h"

#include <gtest/gtest.h>

#include "common/rng.h"
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

}  // namespace
}  // namespace hamlet
