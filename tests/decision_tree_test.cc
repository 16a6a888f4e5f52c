#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/registry.h"
#include "fs/candidate_eval.h"
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

TEST(DecisionTreeTest, LearnsSimpleConcept) {
  EncodedDataset d = NoisyCopyDataset(1, 1200);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(d, AllRows(d), {0, 1}).ok());
  EXPECT_EQ(tree.num_classes(), 3u);
  EXPECT_EQ(tree.trained_features(), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(tree.trained_cardinality(0), 3u);
  EXPECT_EQ(tree.trained_cardinality(1), 5u);
  uint32_t correct = 0;
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    correct += tree.PredictOne(d, r) == d.feature(0)[r];
  }
  EXPECT_GT(correct, d.num_rows() * 95 / 100);
}

TEST(DecisionTreeTest, CapturesXorThatNaiveBayesCannot) {
  // Y = F XOR G: no single split helps marginally, but the greedy search
  // still picks one (finite-sample imbalance gives a positive gain) and
  // the depth-2 children then split pure — the capacity gap the
  // capacity-aware advisor re-test is about.
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
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(d, rows, {0, 1}).ok());

  auto truth = d.labels();
  EXPECT_GT(ZeroOneError(truth, nb.Predict(d, rows)), 0.4);
  EXPECT_LT(ZeroOneError(truth, tree.Predict(d, rows)), 0.05);
}

// The 900-row input is under the node grain (NodeGrain), so it trains
// inline at every width; the 20,000-row one shards its node loops.
TEST(DecisionTreeTest, BitIdenticalAcrossThreadCounts) {
  for (uint32_t n : {900u, 20000u}) {
    EncodedDataset d = NoisyCopyDataset(3, n);
    const std::vector<uint32_t> rows = AllRows(d);
    DecisionTree ref;
    {
      const ScopedWidth serial(1);
      ASSERT_TRUE(ref.Train(d, rows, {0, 1}).ok());
    }
    const DecisionTreeParams ref_params = ref.ExportParams();
    for (uint32_t threads : {2u, 8u, 0u}) {
      const ScopedWidth width(threads);
      const uint64_t regions = ThreadPool::Global().GetStats().regions;
      DecisionTree tree;
      ASSERT_TRUE(tree.Train(d, rows, {0, 1}).ok());
      if (n == 20000 && threads == 8) {
        EXPECT_GT(ThreadPool::Global().GetStats().regions, regions)
            << "the large input must shard at width 8";
      }
      const DecisionTreeParams p = tree.ExportParams();
      EXPECT_EQ(p.split_slot, ref_params.split_slot) << n << " " << threads;
      EXPECT_EQ(p.split_code, ref_params.split_code) << n << " " << threads;
      EXPECT_EQ(p.left, ref_params.left) << n << " " << threads;
      EXPECT_EQ(p.right, ref_params.right) << n << " " << threads;
      EXPECT_EQ(p.scores, ref_params.scores) << n << " " << threads;
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

// Predict gathers only the slots some split tests, kSlotGatherCodeGrain
// codes per shard: a 1,024-row batch of a default tree trained on 24
// slots gathers fewer than 2 x 16384 codes, so at width 4 it starts no
// pool region, and it predicts the bits of width 1.
TEST(DecisionTreeTest, WidePredictBatchGathersInline) {
  Rng rng(21);
  const uint32_t n = 4096;
  const uint32_t d = 24;
  std::vector<std::vector<uint32_t>> cols(d, std::vector<uint32_t>(n));
  std::vector<FeatureMeta> meta;
  std::vector<uint32_t> y(n);
  for (uint32_t j = 0; j < d; ++j) {
    meta.push_back({"F" + std::to_string(j), 6});
    for (uint32_t i = 0; i < n; ++i) cols[j][i] = rng.Uniform(6);
  }
  for (uint32_t i = 0; i < n; ++i) {
    y[i] = rng.Bernoulli(0.8) ? cols[0][i] % 3 : cols[1][i] % 3;
  }
  const EncodedDataset data(cols, meta, y, 3);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(data, AllRows(data), data.AllFeatureIndices()).ok());
  ASSERT_EQ(tree.trained_features().size(), d);
  const std::vector<uint32_t> rows = AllRows(data);
  const std::vector<uint32_t> batch(rows.begin(), rows.begin() + 1024);
  std::vector<uint32_t> serial;
  {
    const ScopedWidth width(1);
    serial = tree.Predict(data, batch);
  }
  const ScopedWidth width(4);
  const uint64_t regions = ThreadPool::Global().GetStats().regions;
  EXPECT_EQ(tree.Predict(data, batch), serial);
  EXPECT_EQ(ThreadPool::Global().GetStats().regions, regions)
      << "a 1,024-row Predict must not start a pool region";
}

TEST(DecisionTreeTest, DepthZeroTreeIsThePriorModel) {
  EncodedDataset d = NoisyCopyDataset(4, 300);
  DecisionTreeOptions options;
  options.max_depth = 0;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Train(d, AllRows(d), {0, 1}).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  // Every row lands in the root leaf: the majority class everywhere.
  uint32_t majority = 0;
  std::vector<uint32_t> counts(3, 0);
  for (uint32_t y : d.labels()) ++counts[y];
  for (uint32_t c = 1; c < 3; ++c) {
    if (counts[c] > counts[majority]) majority = c;
  }
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(tree.PredictOne(d, r), majority);
  }
}

TEST(DecisionTreeTest, RefitBudgetCapsDepthWhileActive) {
  EncodedDataset d = NoisyCopyDataset(5, 1500);
  const std::vector<uint32_t> rows = AllRows(d);
  DecisionTreeOptions options;
  options.max_depth = 6;
  options.candidate_max_depth = 0;

  DecisionTree full(options);
  ASSERT_TRUE(full.Train(d, rows, {0, 1}).ok());
  ASSERT_GT(full.num_nodes(), 1u);

  // The budget lives in the models the searches' candidate factory
  // makes...
  std::unique_ptr<Classifier> capped =
      WithRefitBudget(MakeDecisionTreeFactory(options))();
  ASSERT_TRUE(capped->Train(d, rows, {0, 1}).ok());
  EXPECT_EQ(static_cast<const DecisionTree&>(*capped).num_nodes(), 1u);

  // ...and nowhere else: the same options still grow the full tree.
  DecisionTree after(options);
  ASSERT_TRUE(after.Train(d, rows, {0, 1}).ok());
  EXPECT_EQ(after.num_nodes(), full.num_nodes());
}

TEST(DecisionTreeTest, LogScoresIntoMatchesPredictOne) {
  EncodedDataset d = NoisyCopyDataset(6, 600);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(d, AllRows(d), {0, 1}).ok());
  std::vector<double> scores;
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    tree.LogScoresInto(d, r, &scores);
    ASSERT_EQ(scores.size(), 3u);
    uint32_t best = 0;
    for (uint32_t c = 1; c < 3; ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    EXPECT_EQ(best, tree.PredictOne(d, r)) << "row " << r;
    for (double s : scores) EXPECT_LT(s, 0.0);  // Smoothed log-probs.
  }
}

TEST(DecisionTreeTest, ExportImportRoundTripIsBitExact) {
  EncodedDataset d = NoisyCopyDataset(7, 800);
  const std::vector<uint32_t> rows = AllRows(d);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(d, rows, {0, 1}).ok());
  auto copy = DecisionTree::FromParams(tree.ExportParams());
  ASSERT_TRUE(copy.ok()) << copy.status();
  const DecisionTreeParams a = tree.ExportParams();
  const DecisionTreeParams b = copy->ExportParams();
  EXPECT_EQ(b.alpha, a.alpha);
  EXPECT_EQ(b.features, a.features);
  EXPECT_EQ(b.cardinalities, a.cardinalities);
  EXPECT_EQ(b.split_slot, a.split_slot);
  EXPECT_EQ(b.split_code, a.split_code);
  EXPECT_EQ(b.scores, a.scores);
  EXPECT_EQ(copy->Predict(d, rows), tree.Predict(d, rows));
}

TEST(DecisionTreeTest, FromParamsRejectsInconsistencies) {
  EncodedDataset d = NoisyCopyDataset(8, 500);
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(d, AllRows(d), {0, 1}).ok());
  const DecisionTreeParams good = tree.ExportParams();
  ASSERT_GT(good.split_slot.size(), 1u);

  {
    DecisionTreeParams p = good;
    p.alpha = 0.0;
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    p.left.pop_back();  // Inconsistent node arrays.
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    p.scores.pop_back();  // scores != nodes * classes.
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    p.split_slot[0] = 99;  // Split slot out of range.
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    p.split_code[0] = 1000;  // Outside the slot's domain.
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    p.left[0] = 0;  // Backward edge: a cycle in pre-order storage.
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
  {
    DecisionTreeParams p = good;
    // Find a leaf and give it a child: leaves must have none.
    for (size_t i = 0; i < p.split_slot.size(); ++i) {
      if (p.split_slot[i] < 0) {
        p.left[i] = static_cast<int32_t>(p.split_slot.size()) - 1;
        break;
      }
    }
    EXPECT_FALSE(DecisionTree::FromParams(std::move(p)).ok());
  }
}

TEST(DecisionTreeTest, TrainRejectsBadIndices) {
  EncodedDataset d = NoisyCopyDataset(9, 100);
  DecisionTree tree;
  EXPECT_FALSE(tree.Train(d, AllRows(d), {0, 7}).ok());  // Bad feature.
  EXPECT_FALSE(tree.Train(d, {0, 1, 5000}, {0}).ok());   // Bad row.
  // The factorized view runs the same prelude: the same rejections,
  // and a model no training succeeded on cannot predict on either view —
  // a checked failure, like PredictOne's on the joined table.
  const FactorizedDataset fac = SmallFactorizedView();
  const uint32_t bad_feature = fac.num_features();
  const uint32_t bad_row = fac.num_rows();
  DecisionTree fresh;
  EXPECT_DEATH((void)fresh.Predict(fac, {0, 1}),
               "DecisionTree::Predict before Train");
  EXPECT_EQ(fresh.Train(fac, {0, 1}, {0, bad_feature}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.Train(fac, {0, bad_row}, {0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_DEATH((void)fresh.Predict(fac, {0, 1}),
               "DecisionTree::Predict before Train");
  EXPECT_DEATH((void)fresh.Predict(d, {0, 1}),
               "DecisionTree::Predict before Train");
}

}  // namespace
}  // namespace hamlet
