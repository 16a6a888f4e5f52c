/// Factorized-vs-materialized equivalence for the tree subsystem (ctest
/// label `factorized`). The contract under test is the determinism half
/// of ml/decision_tree.h and ml/gbt.h: training a histogram CART tree or
/// a gradient-boosted ensemble over the normalized (S, R) view must
/// produce *bit*-identical models — every split, every stored double —
/// to training on the materialized join, at any thread count, because
/// split histograms are integer counts (tree) or pinned-order float
/// accumulations (GBT) and the factorized path differs only in how
/// candidate columns are gathered. Selections, runner reports, and the
/// pipeline's avoid-materialization switch must then agree end to end.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/pipeline.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "ml/tan.h"
#include "relational/catalog.h"

namespace hamlet {
namespace {

const uint32_t kThreadCounts[] = {1u, 2u, 8u};

struct DatasetCase {
  const char* name;
  double scale;
};
// The same three schema shapes the NB equivalence suite covers.
const DatasetCase kDatasetCases[] = {
    {"Walmart", 0.02}, {"Expedia", 0.004}, {"Yelp", 0.02}};

std::vector<std::string> AllFkColumns(const NormalizedDataset& dataset) {
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  return fks;
}

/// Both views of one dataset plus the (identical) holdout split.
struct TwinCase {
  std::string name;
  NormalizedDataset dataset;
  std::unique_ptr<EncodedDataset> mat;
  FactorizedDataset fac;
  HoldoutSplit split;
  ErrorMetric metric;
};

TwinCase MakeTwinCase(const DatasetCase& c, uint64_t seed) {
  TwinCase out;
  out.name = c.name;
  out.dataset = *MakeDataset(c.name, c.scale, seed);
  const std::vector<std::string> fks = AllFkColumns(out.dataset);
  Table table = *out.dataset.JoinSubset(fks);
  out.mat =
      std::make_unique<EncodedDataset>(*EncodedDataset::FromTableAuto(table));
  out.fac = *FactorizedDataset::Make(out.dataset, fks);
  Rng rng(seed + 1);
  out.split = MakeHoldoutSplit(out.mat->num_rows(), rng);
  out.metric = *MetricForDataset(c.name);
  return out;
}

void ExpectTreeParamsBitIdentical(const DecisionTreeParams& a,
                                  const DecisionTreeParams& b,
                                  const std::string& context) {
  EXPECT_EQ(a.alpha, b.alpha) << context;
  EXPECT_EQ(a.num_classes, b.num_classes) << context;
  EXPECT_EQ(a.features, b.features) << context;
  EXPECT_EQ(a.cardinalities, b.cardinalities) << context;
  EXPECT_EQ(a.split_slot, b.split_slot) << context;
  EXPECT_EQ(a.split_code, b.split_code) << context;
  EXPECT_EQ(a.left, b.left) << context;
  EXPECT_EQ(a.right, b.right) << context;
  // operator== on vector<double> is exact FP equality: bit identity
  // modulo -0.0/NaN, neither of which a log-probability table contains.
  EXPECT_EQ(a.scores, b.scores) << context;
}

void ExpectGbtParamsBitIdentical(const GbtParams& a, const GbtParams& b,
                                 const std::string& context) {
  EXPECT_EQ(a.learning_rate, b.learning_rate) << context;
  EXPECT_EQ(a.lambda, b.lambda) << context;
  EXPECT_EQ(a.num_classes, b.num_classes) << context;
  EXPECT_EQ(a.features, b.features) << context;
  EXPECT_EQ(a.cardinalities, b.cardinalities) << context;
  EXPECT_EQ(a.base_scores, b.base_scores) << context;
  ASSERT_EQ(a.trees.size(), b.trees.size()) << context;
  for (size_t m = 0; m < a.trees.size(); ++m) {
    const std::string tc = context + " tree " + std::to_string(m);
    EXPECT_EQ(a.trees[m].split_slot, b.trees[m].split_slot) << tc;
    EXPECT_EQ(a.trees[m].split_code, b.trees[m].split_code) << tc;
    EXPECT_EQ(a.trees[m].left, b.trees[m].left) << tc;
    EXPECT_EQ(a.trees[m].right, b.trees[m].right) << tc;
    EXPECT_EQ(a.trees[m].value, b.trees[m].value) << tc;
  }
}

// --- Training: bit-identical models across views and thread counts. -------

TEST(FactorizedTreeTest, TrainBitIdenticalAcrossViewsAndThreads) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 41);
    const std::vector<uint32_t> features = t.mat->AllFeatureIndices();

    DecisionTree ref;
    {
      const ScopedWidth serial(1);
      ASSERT_TRUE(ref.Train(*t.mat, t.split.train, features).ok());
    }
    const DecisionTreeParams ref_params = ref.ExportParams();
    ASSERT_GT(ref.num_nodes(), 1u) << t.name << ": degenerate stump";
    const std::vector<uint32_t> ref_pred = ref.Predict(*t.mat, t.split.test);

    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(t.name + " threads " + std::to_string(threads));
      const ScopedWidth width(threads);

      DecisionTree mat_tree;
      ASSERT_TRUE(mat_tree.Train(*t.mat, t.split.train, features).ok());
      ExpectTreeParamsBitIdentical(mat_tree.ExportParams(), ref_params,
                                   "materialized");

      DecisionTree fac_tree;
      ASSERT_TRUE(fac_tree.Train(t.fac, t.split.train, features).ok());
      ExpectTreeParamsBitIdentical(fac_tree.ExportParams(), ref_params,
                                   "factorized");
      EXPECT_EQ(fac_tree.Predict(t.fac, t.split.test), ref_pred);
    }
  }
}

TEST(FactorizedGbtTest, TrainBitIdenticalAcrossViewsAndThreads) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 43);
    const std::vector<uint32_t> features = t.mat->AllFeatureIndices();

    GbtOptions ref_options;
    ref_options.num_rounds = 5;  // Enough rounds to exercise boosting.
    Gbt ref(ref_options);
    {
      const ScopedWidth serial(1);
      ASSERT_TRUE(ref.Train(*t.mat, t.split.train, features).ok());
    }
    const GbtParams ref_params = ref.ExportParams();
    ASSERT_EQ(ref.num_trees(), 5u * ref.num_classes());
    const std::vector<uint32_t> ref_pred = ref.Predict(*t.mat, t.split.test);

    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE(t.name + " threads " + std::to_string(threads));
      const ScopedWidth width(threads);

      Gbt mat_gbt(ref_options);
      ASSERT_TRUE(mat_gbt.Train(*t.mat, t.split.train, features).ok());
      ExpectGbtParamsBitIdentical(mat_gbt.ExportParams(), ref_params,
                                  "materialized");

      Gbt fac_gbt(ref_options);
      ASSERT_TRUE(fac_gbt.Train(t.fac, t.split.train, features).ok());
      ExpectGbtParamsBitIdentical(fac_gbt.ExportParams(), ref_params,
                                  "factorized");
      EXPECT_EQ(fac_gbt.Predict(t.fac, t.split.test), ref_pred);
    }
  }
}

// --- Explicit root statistics change nothing but the cost. --------------

TEST(FactorizedTreeTest, ExplicitRootStatsDoNotChangeBits) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 45);
  const std::vector<uint32_t> features = t.mat->AllFeatureIndices();
  DecisionTreeOptions options;
  const ScopedWidth width(2);

  // None: the root histograms are counted from the gathered codes.
  DecisionTree none(options);
  ASSERT_TRUE(none.Train(t.fac, t.split.train, features).ok());
  DecisionTree mat(options);
  ASSERT_TRUE(mat.Train(*t.mat, t.split.train, features).ok());
  ExpectTreeParamsBitIdentical(none.ExportParams(), mat.ExportParams(),
                               "no root statistics");

  // Explicit: the root histograms are copied from the train split's
  // factorized statistics — integer counts, so bit-identical.
  const SuffStats stats = BuildFactorizedSuffStats(t.fac, t.split.train);
  DecisionTree seeded(options);
  ASSERT_TRUE(seeded.Train(t.fac, t.split.train, features, &stats).ok());
  ExpectTreeParamsBitIdentical(seeded.ExportParams(), none.ExportParams(),
                               "explicit root statistics");

  // The same on the materialized view: its statistics seed the root of
  // a tree trained on the joined table, with the same bits.
  const SuffStats mat_stats = BuildSuffStats(*t.mat, t.split.train);
  DecisionTree mat_seeded(options);
  ASSERT_TRUE(
      mat_seeded.Train(*t.mat, t.split.train, features, &mat_stats).ok());
  ExpectTreeParamsBitIdentical(mat_seeded.ExportParams(), mat.ExportParams(),
                               "materialized root statistics");

  // The argument is really read: altered root counts move the root's
  // stored class scores.
  SuffStats altered = stats;
  altered.class_counts[0] += 1000;
  DecisionTree from_altered(options);
  ASSERT_TRUE(
      from_altered.Train(t.fac, t.split.train, features, &altered).ok());
  EXPECT_NE(from_altered.ExportParams().scores, none.ExportParams().scores);
}

// --- Selections: the tree scan paths agree with the materialized scan. ----

TEST(FactorizedTreeSelectionTest, EverySelectorMatchesMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 47);
  const std::vector<uint32_t> all = t.mat->AllFeatureIndices();
  // The exhaustive lattice retrains 2^d models; four candidates keep it
  // small while still mixing entity and foreign features.
  ASSERT_GE(all.size(), 4u);
  const std::vector<uint32_t> few = {all[0], all[1], all[all.size() - 2],
                                     all.back()};

  std::vector<std::unique_ptr<FeatureSelector>> selectors;
  selectors.push_back(std::make_unique<ForwardSelection>());
  selectors.push_back(std::make_unique<BackwardSelection>());
  selectors.push_back(
      std::make_unique<ScoreFilter>(FilterScore::kMutualInformation));
  selectors.push_back(
      std::make_unique<ScoreFilter>(FilterScore::kInformationGainRatio));
  selectors.push_back(std::make_unique<ExhaustiveSelection>());
  const ClassifierFactory factory = MakeDecisionTreeFactory();
  for (auto& selector : selectors) {
    const std::vector<uint32_t>& candidates =
        selector->name() == "exhaustive_selection" ? few : all;
    for (uint32_t threads : {1u, 2u}) {
      SCOPED_TRACE(selector->name() + " threads " + std::to_string(threads));
      selector->set_num_threads(threads);
      auto mat =
          selector->Select(*t.mat, t.split, factory, t.metric, candidates);
      ASSERT_TRUE(mat.ok()) << mat.status();
      auto fac =
          selector->Select(t.fac, t.split, factory, t.metric, candidates);
      ASSERT_TRUE(fac.ok()) << fac.status();
      EXPECT_EQ(fac->selected, mat->selected);
      EXPECT_EQ(fac->validation_error, mat->validation_error);
      EXPECT_EQ(fac->models_trained, mat->models_trained);
    }
  }
}

TEST(FactorizedGbtSelectionTest, ForwardSelectionMatchesMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 49);
  const ClassifierFactory factory = MakeGbtFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  ForwardSelection forward;
  for (uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    forward.set_num_threads(threads);
    auto mat = forward.Select(*t.mat, t.split, factory, t.metric, candidates);
    ASSERT_TRUE(mat.ok()) << mat.status();
    auto fac =
        forward.Select(t.fac, t.split, factory, t.metric, candidates);
    ASSERT_TRUE(fac.ok()) << fac.status();
    EXPECT_EQ(fac->selected, mat->selected);
    EXPECT_EQ(fac->validation_error, mat->validation_error);
    EXPECT_EQ(fac->models_trained, mat->models_trained);
  }
}

// --- Runner: final fit and holdout error agree. ---------------------------

TEST(FactorizedTreeRunnerTest, ReportBitIdenticalToMaterialized) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 51);
  const ClassifierFactory factory = MakeDecisionTreeFactory();
  const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
  ForwardSelection forward;
  forward.set_num_threads(2);

  auto mat = RunFeatureSelection(forward, *t.mat, t.split, factory, t.metric,
                                 candidates);
  ASSERT_TRUE(mat.ok()) << mat.status();
  auto fac = RunFeatureSelection(forward, t.fac, t.split, factory, t.metric,
                                 candidates);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_EQ(fac->selection.selected, mat->selection.selected);
  EXPECT_EQ(fac->selection.validation_error, mat->selection.validation_error);
  EXPECT_EQ(fac->selected_names, mat->selected_names);
  EXPECT_EQ(fac->holdout_test_error, mat->holdout_test_error);

  // The final fits themselves: retrain both views on the selected subset
  // and require bit identity (the runner's fits ran outside the refit
  // budget, so these full-depth twins are what it reported on).
  const ScopedWidth width(2);
  DecisionTree from_mat, from_fac;
  ASSERT_TRUE(
      from_mat.Train(*t.mat, t.split.train, mat->selection.selected).ok());
  ASSERT_TRUE(
      from_fac.Train(t.fac, t.split.train, fac->selection.selected).ok());
  ExpectTreeParamsBitIdentical(from_fac.ExportParams(), from_mat.ExportParams(),
                               "final fit");
}

// --- The pipeline switch, for both tree classifiers. ----------------------

// Every classifier the factorized view can serve × every pipeline method
// × both scan modes: the avoid-materialization run succeeds wherever the
// materialized one does and reports the same bits. Naive Bayes under
// force_scan_eval has no factorized scorer, so the pipeline materializes
// both runs.
TEST(FactorizedPipelineMatrixTest, EveryClassifierMethodAndScanModeMatches) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 53);
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kDecisionTree,
        ClassifierKind::kGradientBoostedTrees}) {
    for (FsMethod method : AllFsMethods()) {
      for (bool force_scan : {false, true}) {
        SCOPED_TRACE(std::string(ClassifierKindToString(kind)) + " " +
                     FsMethodToString(method) +
                     (force_scan ? " force_scan" : ""));
        PipelineConfig config;
        config.method = method;
        config.classifier = kind;
        config.metric = *MetricForDataset("Walmart");
        config.seed = 53;
        config.num_threads = 2;
        config.force_scan_eval = force_scan;

        config.avoid_materialization = false;
        auto mat = RunPipeline(dataset, config);
        ASSERT_TRUE(mat.ok()) << mat.status();
        config.avoid_materialization = true;
        auto fac = RunPipeline(dataset, config);
        ASSERT_TRUE(fac.ok()) << fac.status();

        EXPECT_FALSE(mat->factorized);
        EXPECT_EQ(fac->factorized,
                  !(kind == ClassifierKind::kNaiveBayes && force_scan));
        if (fac->factorized) {
          EXPECT_EQ(fac->tables_joined, 0u);
          EXPECT_EQ(fac->tables_factorized, mat->tables_joined);
        }
        EXPECT_EQ(fac->selection.selected_names,
                  mat->selection.selected_names);
        EXPECT_EQ(fac->selection.selection.validation_error,
                  mat->selection.selection.validation_error);
        EXPECT_EQ(fac->selection.holdout_test_error,
                  mat->selection.holdout_test_error);
      }
    }
  }
}

TEST(FactorizedGbtPipelineTest, GbtAvoidMaterializationMatches) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 55);
  PipelineConfig config;
  config.method = FsMethod::kForwardSelection;
  config.classifier = ClassifierKind::kGradientBoostedTrees;
  config.metric = *MetricForDataset("Walmart");
  config.seed = 55;

  config.avoid_materialization = false;
  auto mat = RunPipeline(dataset, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  config.avoid_materialization = true;
  auto fac = RunPipeline(dataset, config);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_TRUE(fac->factorized);
  EXPECT_EQ(fac->tables_joined, 0u);
  EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names);
  EXPECT_EQ(fac->selection.holdout_test_error,
            mat->selection.holdout_test_error);
}

// --- force_scan_eval does not break trees (their scan IS factorized). -----

TEST(FactorizedTreePipelineTest, ForceScanStillTrainsFactorized) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 57);
  PipelineConfig config;
  config.classifier = ClassifierKind::kDecisionTree;
  config.metric = *MetricForDataset("Walmart");
  config.avoid_materialization = true;
  // force_scan_eval only forces NB off its sufficient-statistics fast
  // path; the tree candidate evaluation is already a factorized scan.
  config.force_scan_eval = true;
  auto report = RunPipeline(dataset, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->factorized);
  EXPECT_EQ(report->tables_joined, 0u);
}

// --- The combinations no factorized scorer serves. -------------------------

TEST(FactorizedRejectionTest, NonFactorizedClassifiersAreInvalidArgument) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 59);
  const std::vector<uint32_t> all = t.fac.AllFeatureIndices();
  const std::vector<uint32_t> few(all.begin(), all.begin() + 3);
  std::vector<std::unique_ptr<FeatureSelector>> selectors;
  selectors.push_back(std::make_unique<ForwardSelection>());
  selectors.push_back(std::make_unique<BackwardSelection>());
  selectors.push_back(
      std::make_unique<ScoreFilter>(FilterScore::kMutualInformation));
  selectors.push_back(
      std::make_unique<ScoreFilter>(FilterScore::kInformationGainRatio));
  selectors.push_back(std::make_unique<ExhaustiveSelection>());
  const std::pair<const char*, ClassifierFactory> factories[] = {
      {"logreg", MakeLogisticRegressionFactory()}, {"tan", MakeTanFactory()}};
  for (const auto& [factory_name, factory] : factories) {
    for (auto& selector : selectors) {
      SCOPED_TRACE(std::string(factory_name) + " " + selector->name());
      auto selection =
          selector->Select(t.fac, t.split, factory, t.metric, few);
      EXPECT_EQ(selection.status().code(), StatusCode::kInvalidArgument);
      auto report = RunFeatureSelection(*selector, t.fac, t.split, factory,
                                        t.metric, few);
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    }
    // The models themselves refuse the view they cannot read.
    SCOPED_TRACE(factory_name);
    const Status trained = factory()->Train(t.fac, t.split.train, few);
    EXPECT_EQ(trained.code(), StatusCode::kInvalidArgument) << trained;
  }
  // Naive Bayes reads the factorized view only through its statistics:
  // Train without them is InvalidArgument there, and with the statistics
  // path forced off, the selector rejects the view too.
  NaiveBayes nb;
  EXPECT_EQ(nb.Train(t.fac, t.split.train, few).code(),
            StatusCode::kInvalidArgument);
  ForwardSelection forward;
  forward.set_force_scan_eval(true);
  EXPECT_EQ(
      forward.Select(t.fac, t.split, MakeNaiveBayesFactory(), t.metric, few)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(FactorizedRejectionTest, ExhaustiveCapHoldsOnFactorizedView) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 61);
  const std::vector<uint32_t> all = t.fac.AllFeatureIndices();
  ASSERT_GT(all.size(), 2u);
  ExhaustiveSelection capped(/*max_candidates=*/2);
  for (const ClassifierFactory& factory :
       {MakeNaiveBayesFactory(), MakeDecisionTreeFactory()}) {
    auto result = capped.Select(t.fac, t.split, factory, t.metric, all);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace hamlet
