/// Determinism regression suite: the threading contract says every
/// parallel path — greedy/exhaustive wrapper search, filter scoring and
/// k-tuning, and the Monte Carlo protocol — produces *bit-for-bit*
/// identical results at any thread count. These tests pin that down by
/// running each path at num_threads ∈ {1, 2, 7, hardware} and comparing
/// selections, scores, errors, and bias/variance decompositions with
/// exact (==) equality against the serial run.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/naive_bayes.h"
#include "sim/monte_carlo.h"

namespace hamlet {
namespace {

// Thread counts every suite sweeps: serial, small, odd (uneven chunks),
// and hardware (0).
const uint32_t kThreadCounts[] = {1u, 2u, 7u, 0u};

// A dataset where features 0 and 1 jointly determine Y plus noise
// features, with a fixed 50/25/25 split — enough structure that searches
// do nontrivial work (multiple steps, real ties in the noise tail).
struct DetFixture {
  EncodedDataset data;
  HoldoutSplit split;

  explicit DetFixture(uint64_t seed, uint32_t n = 800,
                      uint32_t num_noise = 4)
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
      uint32_t target = feats[0][i] | (feats[1][i] << 1);
      y[i] = rng.Bernoulli(0.9) ? target : rng.Uniform(4);
    }
    return EncodedDataset(std::move(feats), std::move(metas),
                          std::move(y), 4);
  }
};

void ExpectSameSelection(const SelectionResult& ref,
                         const SelectionResult& got, uint32_t threads) {
  EXPECT_EQ(got.selected, ref.selected) << "threads " << threads;
  EXPECT_EQ(got.validation_error, ref.validation_error)
      << "threads " << threads;
  EXPECT_EQ(got.models_trained, ref.models_trained) << "threads " << threads;
}

TEST(DeterminismTest, ForwardSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(11);
  auto run = [&](uint32_t threads) {
    ForwardSelection fs;
    fs.set_num_threads(threads);
    return *fs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, BackwardSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(12);
  auto run = [&](uint32_t threads) {
    BackwardSelection bs;
    bs.set_num_threads(threads);
    return *bs.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, ExhaustiveSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(13);
  auto run = [&](uint32_t threads) {
    ExhaustiveSelection ex;
    ex.set_num_threads(threads);
    return *ex.Select(f.data, f.split, MakeNaiveBayesFactory(),
                      ErrorMetric::kZeroOne, f.data.AllFeatureIndices());
  };
  const SelectionResult ref = run(1);
  for (uint32_t threads : kThreadCounts) {
    ExpectSameSelection(ref, run(threads), threads);
  }
}

TEST(DeterminismTest, FilterScoresIdenticalAtAnyThreadCount) {
  DetFixture f(14);
  std::vector<uint32_t> rows = f.split.train;
  for (FilterScore score : {FilterScore::kMutualInformation,
                            FilterScore::kInformationGainRatio}) {
    ScoreFilter filter(score);
    const std::vector<double> ref = [&] {
      const ScopedWidth serial(1);
      return filter.ScoreFeatures(f.data, rows, f.data.AllFeatureIndices());
    }();
    for (uint32_t threads : kThreadCounts) {
      const ScopedWidth width(threads);
      const std::vector<double> got = filter.ScoreFeatures(
          f.data, rows, f.data.AllFeatureIndices());
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i], ref[i]) << "feature " << i << " threads "
                                  << threads;
      }
    }
  }
}

TEST(DeterminismTest, FilterSelectionIdenticalAtAnyThreadCount) {
  DetFixture f(15);
  for (FsMethod method : {FsMethod::kMiFilter, FsMethod::kIgrFilter}) {
    auto run = [&](uint32_t threads) {
      auto filter = MakeSelector(method, threads);
      return *filter->Select(f.data, f.split, MakeNaiveBayesFactory(),
                             ErrorMetric::kZeroOne,
                             f.data.AllFeatureIndices());
    };
    const SelectionResult ref = run(1);
    for (uint32_t threads : kThreadCounts) {
      ExpectSameSelection(ref, run(threads), threads);
    }
  }
}

void ExpectSameDecomposition(const BiasVarianceResult& ref,
                             const BiasVarianceResult& got,
                             uint32_t threads) {
  EXPECT_EQ(got.avg_test_error, ref.avg_test_error) << "threads " << threads;
  EXPECT_EQ(got.avg_bias, ref.avg_bias) << "threads " << threads;
  EXPECT_EQ(got.avg_variance, ref.avg_variance) << "threads " << threads;
  EXPECT_EQ(got.avg_net_variance, ref.avg_net_variance)
      << "threads " << threads;
  EXPECT_EQ(got.avg_noise, ref.avg_noise) << "threads " << threads;
  EXPECT_EQ(got.num_points, ref.num_points) << "threads " << threads;
}

TEST(DeterminismTest, MonteCarloIdenticalAtAnyThreadCount) {
  SimConfig config;
  config.n_s = 400;
  config.n_r = 40;
  MonteCarloOptions options;
  options.num_training_sets = 25;
  options.num_repeats = 3;
  const MonteCarloResult ref = [&] {
    const ScopedWidth width(1);
    return *RunMonteCarlo(config, options);
  }();
  for (uint32_t threads : kThreadCounts) {
    const ScopedWidth width(threads);
    const MonteCarloResult got = *RunMonteCarlo(config, options);
    ExpectSameDecomposition(ref.use_all, got.use_all, threads);
    ExpectSameDecomposition(ref.no_join, got.no_join, threads);
    ExpectSameDecomposition(ref.no_fk, got.no_fk, threads);
  }
}

TEST(DeterminismTest, MonteCarloSingleRepeatParallelizesInnerLoop) {
  // num_repeats = 1 leaves the outer loop serial, so the inner
  // training-set loop is the one that parallelizes — it must produce the
  // same decomposition as a fully serial run.
  SimConfig config;
  config.n_s = 300;
  config.n_r = 30;
  MonteCarloOptions options;
  options.num_training_sets = 40;
  options.num_repeats = 1;
  const MonteCarloResult ref = [&] {
    const ScopedWidth width(1);
    return *RunMonteCarlo(config, options);
  }();
  for (uint32_t threads : kThreadCounts) {
    const ScopedWidth width(threads);
    const MonteCarloResult got = *RunMonteCarlo(config, options);
    ExpectSameDecomposition(ref.use_all, got.use_all, threads);
    ExpectSameDecomposition(ref.no_join, got.no_join, threads);
    ExpectSameDecomposition(ref.no_fk, got.no_fk, threads);
  }
}

}  // namespace
}  // namespace hamlet
