#include "ml/tan.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/naive_bayes.h"
#include "sim/data_synthesis.h"
#include "stats/metrics.h"

namespace hamlet {
namespace {

std::vector<uint32_t> AllRows(const EncodedDataset& d) {
  std::vector<uint32_t> rows(d.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

TEST(TanTest, LearnsSimpleConcept) {
  Rng rng(1);
  std::vector<uint32_t> f(1000), g(1000), y(1000);
  for (int i = 0; i < 1000; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(2);
    y[i] = rng.Bernoulli(0.95) ? f[i] : 1 - f[i];
  }
  EncodedDataset d({f, g}, {{"F", 2}, {"G", 2}}, y, 2);
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(d, AllRows(d), {0, 1}).ok());
  uint32_t correct = 0;
  for (uint32_t r = 0; r < 1000; ++r) {
    correct += tan.PredictOne(d, r) == f[r];
  }
  EXPECT_GT(correct, 900u);
}

// The Classifier layout accessors report the training-time layout the
// serving layer validates score blocks against.
TEST(TanTest, ReportsTrainedLayout) {
  Rng rng(3);
  std::vector<uint32_t> f(200), g(200), h(200), y(200);
  for (int i = 0; i < 200; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(3);
    h[i] = rng.Uniform(5);
    y[i] = rng.Bernoulli(0.9) ? f[i] : 1 - f[i];
  }
  EncodedDataset d({f, g, h}, {{"F", 2}, {"G", 3}, {"H", 5}}, y, 2);
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(d, AllRows(d), {2, 0}).ok());
  const Classifier& model = tan;
  EXPECT_EQ(model.trained_features(), (std::vector<uint32_t>{2, 0}));
  EXPECT_EQ(model.trained_cardinality(0), 5u);
  EXPECT_EQ(model.trained_cardinality(1), 2u);
}

TEST(TanTest, CapturesXorThatNaiveBayesCannot) {
  // Y = F XOR G: marginally both features are independent of Y, so NB is
  // at chance; TAN's pairwise conditional P(G | F, Y) captures it.
  Rng rng(2);
  std::vector<uint32_t> f(4000), g(4000), y(4000);
  for (int i = 0; i < 4000; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(2);
    y[i] = f[i] ^ g[i];
  }
  EncodedDataset d({f, g}, {{"F", 2}, {"G", 2}}, y, 2);
  std::vector<uint32_t> rows = AllRows(d);

  NaiveBayes nb;
  ASSERT_TRUE(nb.Train(d, rows, {0, 1}).ok());
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(d, rows, {0, 1}).ok());

  auto truth = d.labels();
  double nb_err = ZeroOneError(truth, nb.Predict(d, rows));
  double tan_err = ZeroOneError(truth, tan.Predict(d, rows));
  EXPECT_GT(nb_err, 0.4);   // NB is blind to XOR.
  EXPECT_LT(tan_err, 0.05);  // TAN nails it.
}

TEST(TanTest, SingleFeatureDegeneratesToNaiveBayes) {
  Rng rng(3);
  std::vector<uint32_t> f(500), y(500);
  for (int i = 0; i < 500; ++i) {
    f[i] = rng.Uniform(3);
    y[i] = rng.Bernoulli(0.9) ? f[i] % 2 : rng.Uniform(2);
  }
  EncodedDataset d({f}, {{"F", 3}}, y, 2);
  std::vector<uint32_t> rows = AllRows(d);
  TreeAugmentedNaiveBayes tan;
  NaiveBayes nb;
  ASSERT_TRUE(tan.Train(d, rows, {0}).ok());
  ASSERT_TRUE(nb.Train(d, rows, {0}).ok());
  for (uint32_t r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(tan.PredictOne(d, r), nb.PredictOne(d, r));
  }
  EXPECT_EQ(tan.parents()[0], -1);  // Root, no parent.
}

TEST(TanTest, FdPullsForeignFeaturesUnderFk) {
  // Appendix E: under the FD FK -> X_R, every X_R feature's strongest
  // conditional dependency is FK, so the Chow-Liu tree hangs X_R off FK.
  SimConfig config;
  config.scenario = TrueDistribution::kLoneXr;
  config.n_s = 3000;
  config.d_s = 2;
  config.d_r = 4;
  config.n_r = 30;
  Rng rng(4);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(
      tan.Train(draw.data, AllRows(draw.data), gen.UseAllFeatures()).ok());
  uint32_t fk_pos = gen.FkFeatureIndex();
  for (uint32_t j = fk_pos + 1; j < fk_pos + 1 + config.d_r; ++j) {
    EXPECT_EQ(tan.parents()[j], static_cast<int32_t>(fk_pos))
        << "X_R feature " << j << " should hang off FK";
  }
}

TEST(TanTest, EdgeWeightsAreSymmetricAndNonNegative) {
  Rng rng(5);
  std::vector<uint32_t> f(400), g(400), h(400), y(400);
  for (int i = 0; i < 400; ++i) {
    f[i] = rng.Uniform(3);
    g[i] = rng.Uniform(2);
    h[i] = (f[i] + g[i]) % 2;
    y[i] = rng.Uniform(2);
  }
  EncodedDataset d({f, g, h}, {{"F", 3}, {"G", 2}, {"H", 2}}, y, 2);
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(d, AllRows(d), {0, 1, 2}).ok());
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) {
      EXPECT_GE(tan.EdgeWeight(i, j), 0.0);
      EXPECT_DOUBLE_EQ(tan.EdgeWeight(i, j), tan.EdgeWeight(j, i));
    }
  }
}

TEST(TanTest, TreeHasExactlyOneRoot) {
  Rng rng(6);
  std::vector<std::vector<uint32_t>> feats(5,
                                           std::vector<uint32_t>(300));
  std::vector<uint32_t> y(300);
  std::vector<FeatureMeta> metas;
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < 300; ++i) feats[j][i] = rng.Uniform(3);
    metas.push_back({"F" + std::to_string(j), 3});
  }
  for (int i = 0; i < 300; ++i) y[i] = rng.Uniform(2);
  EncodedDataset d(feats, metas, y, 2);
  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(d, AllRows(d), d.AllFeatureIndices()).ok());
  int roots = 0;
  for (int32_t p : tan.parents()) roots += (p < 0);
  EXPECT_EQ(roots, 1);
}

TEST(TanTest, ZeroRowsRejected) {
  EncodedDataset d({{0}}, {{"F", 2}}, {0}, 2);
  TreeAugmentedNaiveBayes tan;
  EXPECT_EQ(tan.Train(d, {}, {0}).code(), StatusCode::kInvalidArgument);
}

TEST(TanTest, FactoryAndName) {
  auto factory = MakeTanFactory();
  auto model = factory();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), "tan");
}

}  // namespace
}  // namespace hamlet
