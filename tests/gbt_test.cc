#include "ml/gbt.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/registry.h"
#include "fs/candidate_eval.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "stats/metrics.h"

namespace hamlet {
namespace {

std::vector<uint32_t> AllRows(const EncodedDataset& d) {
  std::vector<uint32_t> rows(d.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

EncodedDataset NoisyCopyDataset(uint64_t seed, uint32_t n) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(3);
    g[i] = rng.Uniform(5);
    y[i] = rng.Bernoulli(0.9) ? f[i] : (f[i] + 1) % 3;
  }
  return EncodedDataset({f, g}, {{"F", 3}, {"G", 5}}, y, 3);
}

// A small factorized view: Walmart's entity with every FK factorized.
FactorizedDataset SmallFactorizedView() {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 9);
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  return *FactorizedDataset::Make(dataset, fks);
}

TEST(GbtTest, LearnsSimpleConcept) {
  EncodedDataset d = NoisyCopyDataset(1, 1200);
  const GbtOptions options;
  Gbt gbt(options);
  ASSERT_TRUE(gbt.Train(d, AllRows(d), {0, 1}).ok());
  EXPECT_EQ(gbt.num_classes(), 3u);
  EXPECT_EQ(gbt.num_trees(), options.num_rounds * 3u);
  uint32_t correct = 0;
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    correct += gbt.PredictOne(d, r) == d.feature(0)[r];
  }
  EXPECT_GT(correct, d.num_rows() * 95 / 100);
}

TEST(GbtTest, CapturesXorThatNaiveBayesCannot) {
  Rng rng(2);
  const uint32_t n = 4000;
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(2);
    y[i] = f[i] ^ g[i];
  }
  EncodedDataset d({f, g}, {{"F", 2}, {"G", 2}}, y, 2);
  std::vector<uint32_t> rows = AllRows(d);

  NaiveBayes nb;
  ASSERT_TRUE(nb.Train(d, rows, {0, 1}).ok());
  Gbt gbt;
  ASSERT_TRUE(gbt.Train(d, rows, {0, 1}).ok());

  auto truth = d.labels();
  EXPECT_GT(ZeroOneError(truth, nb.Predict(d, rows)), 0.4);
  EXPECT_LT(ZeroOneError(truth, gbt.Predict(d, rows)), 0.05);
}

TEST(GbtTest, MoreRoundsDoNotHurtTrainError) {
  EncodedDataset d = NoisyCopyDataset(3, 1000);
  const std::vector<uint32_t> rows = AllRows(d);
  auto truth = d.labels();
  GbtOptions few;
  few.num_rounds = 1;
  Gbt a(few);
  ASSERT_TRUE(a.Train(d, rows, {0, 1}).ok());
  GbtOptions many;
  many.num_rounds = 15;
  Gbt b(many);
  ASSERT_TRUE(b.Train(d, rows, {0, 1}).ok());
  EXPECT_LE(ZeroOneError(truth, b.Predict(d, rows)),
            ZeroOneError(truth, a.Predict(d, rows)) + 1e-12);
}

// The 900-row input's nodes are under the node grain (NodeGrain), so only
// its gradient loop shards; the 20,000-row one shards its node loops too.
TEST(GbtTest, BitIdenticalAcrossThreadCounts) {
  for (uint32_t n : {900u, 20000u}) {
    EncodedDataset d = NoisyCopyDataset(4, n);
    const std::vector<uint32_t> rows = AllRows(d);
    GbtOptions ref_options;
    ref_options.num_rounds = 6;
    Gbt ref(ref_options);
    {
      const ScopedWidth serial(1);
      ASSERT_TRUE(ref.Train(d, rows, {0, 1}).ok());
    }
    const GbtParams ref_params = ref.ExportParams();
    for (uint32_t threads : {2u, 8u, 0u}) {
      const ScopedWidth width(threads);
      const uint64_t regions = ThreadPool::Global().GetStats().regions;
      Gbt gbt(ref_options);
      ASSERT_TRUE(gbt.Train(d, rows, {0, 1}).ok());
      if (threads == 8) {
        EXPECT_GT(ThreadPool::Global().GetStats().regions, regions)
            << n << " rows must shard at width 8";
      }
      const GbtParams p = gbt.ExportParams();
      EXPECT_EQ(p.base_scores, ref_params.base_scores) << n << " " << threads;
      ASSERT_EQ(p.trees.size(), ref_params.trees.size()) << threads;
      for (size_t m = 0; m < p.trees.size(); ++m) {
        EXPECT_EQ(p.trees[m].split_slot, ref_params.trees[m].split_slot)
            << n << " rows, threads " << threads << " tree " << m;
        EXPECT_EQ(p.trees[m].value, ref_params.trees[m].value)
            << n << " rows, threads " << threads << " tree " << m;
      }
    }
    // A 16-row batch is under Predict's row grain (NodeGrain over the
    // node steps of a row's walks), so it scores inline at width 8, with
    // the bits of PredictOne.
    const std::vector<uint32_t> batch(rows.begin(), rows.begin() + 16);
    std::vector<uint32_t> one_by_one;
    for (uint32_t r : batch) one_by_one.push_back(ref.PredictOne(d, r));
    const ScopedWidth width(8);
    const uint64_t regions = ThreadPool::Global().GetStats().regions;
    EXPECT_EQ(ref.Predict(d, batch), one_by_one) << n;
    EXPECT_EQ(ThreadPool::Global().GetStats().regions, regions)
        << n << ": a 16-row Predict must not start a pool region";
  }
}

TEST(GbtTest, RefitBudgetCapsRoundsWhileActive) {
  EncodedDataset d = NoisyCopyDataset(5, 800);
  const std::vector<uint32_t> rows = AllRows(d);
  GbtOptions options;
  options.num_rounds = 10;
  options.candidate_rounds = 2;
  options.candidate_max_depth = 1;

  Gbt full(options);
  ASSERT_TRUE(full.Train(d, rows, {0, 1}).ok());
  EXPECT_EQ(full.num_trees(), 10u * 3u);

  std::unique_ptr<Classifier> capped =
      WithRefitBudget(MakeGbtFactory(options))();
  ASSERT_TRUE(capped->Train(d, rows, {0, 1}).ok());
  EXPECT_EQ(static_cast<const Gbt&>(*capped).num_trees(), 2u * 3u);

  Gbt after(options);
  ASSERT_TRUE(after.Train(d, rows, {0, 1}).ok());
  EXPECT_EQ(after.num_trees(), 10u * 3u);
}

// The stop rules: with min_rows_split above n, or a min_gain no split
// reaches, every tree of the ensemble is a single leaf.
TEST(GbtTest, StopRulesMakeEveryTreeALeaf) {
  EncodedDataset d = NoisyCopyDataset(10, 600);
  const std::vector<uint32_t> rows = AllRows(d);
  GbtOptions by_rows;
  by_rows.num_rounds = 3;
  by_rows.min_rows_split = d.num_rows() + 1;
  GbtOptions by_gain;
  by_gain.num_rounds = 3;
  by_gain.min_gain = std::numeric_limits<double>::infinity();
  for (const GbtOptions& options : {by_rows, by_gain}) {
    Gbt gbt(options);
    ASSERT_TRUE(gbt.Train(d, rows, {0, 1}).ok());
    const GbtParams p = gbt.ExportParams();
    ASSERT_EQ(p.trees.size(), 3u * 3u);
    for (const GbtTree& t : p.trees) EXPECT_EQ(t.split_slot.size(), 1u);
  }
  // The same data does split under the default stop rules.
  Gbt split;
  ASSERT_TRUE(split.Train(d, rows, {0, 1}).ok());
  EXPECT_GT(split.ExportParams().trees[0].split_slot.size(), 1u);
}

TEST(GbtTest, LogScoresIntoMatchesPredictOne) {
  EncodedDataset d = NoisyCopyDataset(6, 600);
  GbtOptions options;
  options.num_rounds = 5;
  Gbt gbt(options);
  ASSERT_TRUE(gbt.Train(d, AllRows(d), {0, 1}).ok());
  std::vector<double> scores;
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    gbt.LogScoresInto(d, r, &scores);
    ASSERT_EQ(scores.size(), 3u);
    uint32_t best = 0;
    for (uint32_t c = 1; c < 3; ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    EXPECT_EQ(best, gbt.PredictOne(d, r)) << "row " << r;
  }
}

TEST(GbtTest, ExportImportRoundTripIsBitExact) {
  EncodedDataset d = NoisyCopyDataset(7, 800);
  const std::vector<uint32_t> rows = AllRows(d);
  GbtOptions options;
  options.num_rounds = 4;
  Gbt gbt(options);
  ASSERT_TRUE(gbt.Train(d, rows, {0, 1}).ok());
  auto copy = Gbt::FromParams(gbt.ExportParams());
  ASSERT_TRUE(copy.ok()) << copy.status();
  const GbtParams a = gbt.ExportParams();
  const GbtParams b = copy->ExportParams();
  EXPECT_EQ(b.learning_rate, a.learning_rate);
  EXPECT_EQ(b.lambda, a.lambda);
  EXPECT_EQ(b.base_scores, a.base_scores);
  ASSERT_EQ(b.trees.size(), a.trees.size());
  for (size_t m = 0; m < a.trees.size(); ++m) {
    EXPECT_EQ(b.trees[m].split_slot, a.trees[m].split_slot) << m;
    EXPECT_EQ(b.trees[m].value, a.trees[m].value) << m;
  }
  EXPECT_EQ(copy->Predict(d, rows), gbt.Predict(d, rows));
}

TEST(GbtTest, FromParamsRejectsInconsistencies) {
  EncodedDataset d = NoisyCopyDataset(8, 500);
  GbtOptions options;
  options.num_rounds = 2;
  Gbt gbt(options);
  ASSERT_TRUE(gbt.Train(d, AllRows(d), {0, 1}).ok());
  const GbtParams good = gbt.ExportParams();
  ASSERT_FALSE(good.trees.empty());

  {
    GbtParams p = good;
    p.lambda = 0.0;
    EXPECT_FALSE(Gbt::FromParams(std::move(p)).ok());
  }
  {
    GbtParams p = good;
    p.base_scores.pop_back();
    EXPECT_FALSE(Gbt::FromParams(std::move(p)).ok());
  }
  {
    GbtParams p = good;
    p.trees.pop_back();  // No longer a multiple of num_classes.
    EXPECT_FALSE(Gbt::FromParams(std::move(p)).ok());
  }
  {
    GbtParams p = good;
    p.trees[0].value.pop_back();
    EXPECT_FALSE(Gbt::FromParams(std::move(p)).ok());
  }
  {
    GbtParams p = good;
    p.trees[0].split_slot[0] = 99;
    EXPECT_FALSE(Gbt::FromParams(std::move(p)).ok());
  }
}

TEST(GbtTest, TrainRejectsBadIndices) {
  EncodedDataset d = NoisyCopyDataset(9, 100);
  Gbt gbt;
  EXPECT_FALSE(gbt.Train(d, AllRows(d), {0, 7}).ok());
  EXPECT_FALSE(gbt.Train(d, {0, 1, 5000}, {0}).ok());
  // The factorized view runs the same prelude: the same rejections,
  // and a model no training succeeded on cannot predict on either view —
  // a checked failure, like PredictOne's on the joined table.
  const FactorizedDataset fac = SmallFactorizedView();
  const uint32_t bad_feature = fac.num_features();
  const uint32_t bad_row = fac.num_rows();
  Gbt fresh;
  EXPECT_DEATH((void)fresh.Predict(fac, {0, 1}), "Gbt::Predict before Train");
  EXPECT_EQ(fresh.Train(fac, {0, 1}, {0, bad_feature}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.Train(fac, {0, bad_row}, {0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH((void)fresh.Predict(fac, {0, 1}), "Gbt::Predict before Train");
  EXPECT_DEATH((void)fresh.Predict(d, {0, 1}), "Gbt::Predict before Train");
}

}  // namespace
}  // namespace hamlet
