#include "fs/greedy_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/eval.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"

namespace hamlet {
namespace {

// Builds a dataset where features 0 and 1 jointly determine Y (plus mild
// noise) and features 2..d-1 are pure noise, with a fixed 50/25/25 split.
struct FsFixture {
  EncodedDataset data;
  HoldoutSplit split;

  explicit FsFixture(uint64_t seed, uint32_t n = 1200,
                     uint32_t num_noise = 3)
      : data(Build(seed, n, num_noise)) {
    Rng rng(seed + 1);
    split = MakeHoldoutSplit(data.num_rows(), rng);
  }

  static EncodedDataset Build(uint64_t seed, uint32_t n,
                              uint32_t num_noise) {
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> feats(2 + num_noise,
                                             std::vector<uint32_t>(n));
    std::vector<uint32_t> y(n);
    std::vector<FeatureMeta> metas = {{"Signal0", 2}, {"Signal1", 2}};
    for (uint32_t j = 0; j < num_noise; ++j) {
      metas.push_back({"Noise" + std::to_string(j), 4});
    }
    for (uint32_t i = 0; i < n; ++i) {
      feats[0][i] = rng.Uniform(2);
      feats[1][i] = rng.Uniform(2);
      for (uint32_t j = 0; j < num_noise; ++j) {
        feats[2 + j][i] = rng.Uniform(4);
      }
      uint32_t target = feats[0][i] | (feats[1][i] << 1);  // 4 classes.
      y[i] = rng.Bernoulli(0.95) ? target : rng.Uniform(4);
    }
    return EncodedDataset(std::move(feats), std::move(metas),
                          std::move(y), 4);
  }
};

TEST(ForwardSelectionTest, FindsSignalFeatures) {
  FsFixture f(1);
  ForwardSelection fs;
  auto result = fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                          ErrorMetric::kZeroOne,
                          f.data.AllFeatureIndices());
  ASSERT_TRUE(result.ok());
  auto& sel = result->selected;
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 0u) != sel.end());
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 1u) != sel.end());
  EXPECT_LT(result->validation_error, 0.15);
}

TEST(ForwardSelectionTest, MostlySkipsNoise) {
  FsFixture f(2);
  ForwardSelection fs;
  auto result = *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne,
                           f.data.AllFeatureIndices());
  EXPECT_LE(result.selected.size(), 3u);
}

TEST(ForwardSelectionTest, EmptyCandidatesGivePriorModel) {
  FsFixture f(3);
  ForwardSelection fs;
  auto result = *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne, {});
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.models_trained, 1u);
}

TEST(ForwardSelectionTest, CountsTrainedModels) {
  FsFixture f(4);
  ForwardSelection fs;
  auto result = *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne,
                           f.data.AllFeatureIndices());
  // At least: 1 baseline + one full pass over 5 candidates.
  EXPECT_GE(result.models_trained, 6u);
}

// The cheap refit budget belongs to a search's candidate retrains alone:
// a full-budget GBT trained on another thread while forward selection
// runs keeps every round.
TEST(ForwardSelectionTest, RefitBudgetNeverReachesConcurrentTraining) {
  FsFixture f(31, 600, 2);
  GbtOptions options;
  options.num_rounds = 6;
  options.candidate_rounds = 2;
  std::atomic<bool> searching{false};
  std::atomic<bool> stop{false};
  std::thread searcher([&] {
    while (!stop.load()) {
      ForwardSelection fs;
      fs.set_num_threads(1);
      searching.store(true);
      EXPECT_TRUE(fs.Select(f.data, f.split, MakeGbtFactory(options),
                            ErrorMetric::kZeroOne,
                            f.data.AllFeatureIndices())
                      .ok());
    }
  });
  while (!searching.load()) std::this_thread::yield();
  const ScopedWidth serial(1);
  for (int i = 0; i < 20; ++i) {
    Gbt full(options);
    EXPECT_TRUE(full.Train(f.data, f.split.train, {0, 1}).ok());
    EXPECT_EQ(full.num_trees(), options.num_rounds * 4u) << "train " << i;
  }
  stop.store(true);
  searcher.join();
}

TEST(BackwardSelectionTest, RetainsSignalDropsSomeNoise) {
  FsFixture f(5);
  BackwardSelection bs;
  auto result = *bs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne,
                           f.data.AllFeatureIndices());
  auto& sel = result.selected;
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 0u) != sel.end());
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 1u) != sel.end());
  EXPECT_LT(sel.size(), f.data.num_features());
  EXPECT_LT(result.validation_error, 0.15);
}

TEST(BackwardSelectionTest, SingleCandidateKept) {
  FsFixture f(6);
  BackwardSelection bs;
  auto result = *bs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne, {0});
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 0u);
}

TEST(GreedySearchTest, ForwardAndBackwardAgreeOnStrongSignal) {
  FsFixture f(7);
  ForwardSelection fs;
  BackwardSelection bs;
  auto fwd = *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                        ErrorMetric::kZeroOne,
                        f.data.AllFeatureIndices());
  auto bwd = *bs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                        ErrorMetric::kZeroOne,
                        f.data.AllFeatureIndices());
  // Both must achieve comparable validation error on this easy concept.
  EXPECT_NEAR(fwd.validation_error, bwd.validation_error, 0.05);
}

TEST(GreedySearchTest, Names) {
  EXPECT_EQ(ForwardSelection().name(), "forward_selection");
  EXPECT_EQ(BackwardSelection().name(), "backward_selection");
}

TEST(ForwardSelectionTest, TieBreaksByLowestIndexAtAnyThreadCount) {
  // Features 0 and 1 are byte-identical columns (each alone determines Y
  // up to noise), so their candidate models — and validation errors — are
  // exactly equal. The determinism contract requires the tie to go to the
  // lower feature index no matter how many threads evaluate the step.
  const uint32_t n = 600;
  Rng rng(21);
  std::vector<std::vector<uint32_t>> feats(3, std::vector<uint32_t>(n));
  std::vector<uint32_t> y(n);
  std::vector<FeatureMeta> metas = {{"TwinA", 2}, {"TwinB", 2},
                                    {"Noise0", 4}};
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t bit = rng.Uniform(2);
    feats[0][i] = bit;
    feats[1][i] = bit;  // Exact duplicate of feature 0.
    feats[2][i] = rng.Uniform(4);
    y[i] = rng.Bernoulli(0.9) ? bit : rng.Uniform(2);
  }
  EncodedDataset data(std::move(feats), std::move(metas), std::move(y), 2);
  Rng split_rng(22);
  HoldoutSplit split = MakeHoldoutSplit(data.num_rows(), split_rng);

  SelectionResult reference;
  for (uint32_t threads : {1u, 2u, 7u, 0u}) {
    ForwardSelection fs;
    fs.set_num_threads(threads);
    auto result = *fs.Select(data, split, MakeNaiveBayesFactory(),
                             ErrorMetric::kZeroOne,
                             data.AllFeatureIndices());
    ASSERT_FALSE(result.selected.empty()) << "threads " << threads;
    // The twin with the lower index wins the exact tie.
    EXPECT_EQ(result.selected[0], 0u) << "threads " << threads;
    if (threads == 1u) {
      reference = result;
    } else {
      EXPECT_EQ(result.selected, reference.selected)
          << "threads " << threads;
      EXPECT_EQ(result.validation_error, reference.validation_error)
          << "threads " << threads;
    }
  }
}

// Property sweep: forward selection's validation error never exceeds the
// prior-only baseline, across seeds.
class ForwardNeverWorseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForwardNeverWorseTest, ValidationErrorAtMostBaseline) {
  FsFixture f(GetParam());
  // Baseline: prior-only model.
  auto base = TrainAndScore(MakeNaiveBayesFactory(), f.data, f.split.train,
                            f.split.validation, {}, ErrorMetric::kZeroOne);
  ForwardSelection fs;
  auto result = *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                           ErrorMetric::kZeroOne,
                           f.data.AllFeatureIndices());
  EXPECT_LE(result.validation_error, *base + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardNeverWorseTest,
                         ::testing::Range<uint64_t>(10, 18));

}  // namespace
}  // namespace hamlet
