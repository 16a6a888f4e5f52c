/// Factorized-vs-materialized equivalence suite (ctest label
/// `factorized`). The contract under test — the determinism half of
/// ml/factorized.h — is *bit* identity, not approximation: over every
/// bundled dataset, selector, and thread count, training and selecting
/// over the normalized (S, R) view must produce the exact same sufficient
/// statistics, selected subsets, model parameters, validation errors, and
/// holdout errors as the materialized join, because the factorized build
/// reorders only integer additions. Also locks the property that random
/// KFK schemas — FK skew, unreferenced attribute rows, missing classes —
/// agree cell-for-cell.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "datasets/synth_common.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "analytics/pipeline.h"
#include "ml/data_view.h"
#include "ml/factorized.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace hamlet {
namespace {

const uint32_t kThreadCounts[] = {1u, 2u, 8u};

// BuildFactorizedSuffStats at `width`, under the scope an entry point
// would open.
SuffStats FactorizedStatsAt(const FactorizedDataset& fac,
                            const std::vector<uint32_t>& rows,
                            uint32_t width) {
  const ScopedWidth scope(width);
  return BuildFactorizedSuffStats(fac, rows);
}

struct DatasetCase {
  const char* name;
  double scale;
};
// One dataset with avoidable joins, one with an open-domain key, one
// where nothing is avoidable — the three schema shapes the paper's
// Figure 6 corpus contains.
const DatasetCase kDatasetCases[] = {
    {"Walmart", 0.02}, {"Expedia", 0.004}, {"Yelp", 0.02}};

std::vector<std::string> AllFkColumns(const NormalizedDataset& dataset) {
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  return fks;
}

/// Both views of one dataset: the materialized join and the factorized
/// pair, plus the (identical) holdout split.
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

void ExpectStatsBitIdentical(const SuffStats& a, const SuffStats& b,
                             const std::string& context) {
  EXPECT_EQ(a.num_classes, b.num_classes) << context;
  EXPECT_EQ(a.class_counts, b.class_counts) << context;
  EXPECT_EQ(a.cardinalities, b.cardinalities) << context;
  ASSERT_EQ(a.feature_counts.size(), b.feature_counts.size()) << context;
  for (size_t j = 0; j < a.feature_counts.size(); ++j) {
    EXPECT_EQ(a.feature_counts[j], b.feature_counts[j])
        << context << " feature " << j;
  }
}

// --- The factorized feature space equals the materialized one. ------------

TEST(FactorizedViewTest, FeatureSpaceMatchesMaterializedJoin) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 11);
    SCOPED_TRACE(t.name);
    ASSERT_EQ(t.fac.num_rows(), t.mat->num_rows());
    ASSERT_EQ(t.fac.num_features(), t.mat->num_features());
    EXPECT_EQ(t.fac.num_classes(), t.mat->num_classes());
    EXPECT_EQ(t.fac.labels(), t.mat->labels());
    std::vector<uint32_t> all_rows(t.fac.num_rows());
    for (uint32_t i = 0; i < t.fac.num_rows(); ++i) all_rows[i] = i;
    std::vector<uint32_t> gathered;
    for (uint32_t j = 0; j < t.fac.num_features(); ++j) {
      EXPECT_EQ(t.fac.meta(j).name, t.mat->meta(j).name) << "feature " << j;
      EXPECT_EQ(t.fac.meta(j).cardinality, t.mat->meta(j).cardinality)
          << "feature " << j;
      t.fac.GatherCodes(j, all_rows, &gathered);
      EXPECT_EQ(gathered, t.mat->feature(j)) << "feature " << j;
      // The one seam between the views gathers the same codes from both.
      for (const DataView& view : {DataView(*t.mat), DataView(t.fac)}) {
        gathered.clear();
        view.GatherCodes(j, all_rows, &gathered);
        EXPECT_EQ(gathered, t.mat->feature(j))
            << "feature " << j
            << (view.factorized() != nullptr ? " factorized" : " joined");
      }
    }
  }
}

TEST(FactorizedViewTest, ValidationMatchesKfkJoinErrors) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 12);
  // A non-FK column is rejected.
  auto bad = FactorizedDataset::Make(t.dataset, {"Dept"});
  EXPECT_FALSE(bad.ok());
  // Factorizing the same FK twice collides on R's column names, exactly
  // like joining the same table twice would.
  const std::vector<std::string> fks = AllFkColumns(t.dataset);
  ASSERT_FALSE(fks.empty());
  auto dup = FactorizedDataset::Make(t.dataset, {fks[0], fks[0]});
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("column name collision"),
            std::string::npos)
      << dup.status().message();
}

// --- Sufficient statistics: cell-for-cell, at any thread count. -----------

TEST(FactorizedSuffStatsTest, BitIdenticalToMaterializedBuild) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 13);
    const SuffStats ref = BuildSuffStats(*t.mat, t.split.train);
    for (uint32_t threads : {1u, 2u, 8u, 0u}) {
      const SuffStats fac = FactorizedStatsAt(t.fac, t.split.train, threads);
      ExpectStatsBitIdentical(
          ref, fac, t.name + " threads " + std::to_string(threads));
    }
  }
}

// Entity-only statistics share the entity's rows but not the factorized
// feature space; the evaluator refuses them before reading a table.
TEST(FactorizedSuffStatsTest, EvaluatorRejectsEntityOnlyStats) {
  TwinCase t = MakeTwinCase(kDatasetCases[0], 14);
  ASSERT_FALSE(t.fac.relations().empty());
  auto entity_only = std::make_shared<const SuffStats>(
      BuildSuffStats(t.fac.entity(), t.split.train));
  EXPECT_DEATH(NbSubsetEvaluator(DataView(t.fac), entity_only,
                                 t.split.validation, t.metric, 1.0,
                                 t.fac.AllFeatureIndices()),
               "different dataset");
}

// --- Selections: every method, bit-identical, any thread count. -----------

std::vector<std::unique_ptr<FeatureSelector>> AllSelectors() {
  std::vector<std::unique_ptr<FeatureSelector>> out;
  out.push_back(std::make_unique<ForwardSelection>());
  out.push_back(std::make_unique<BackwardSelection>());
  out.push_back(std::make_unique<ExhaustiveSelection>(12));
  out.push_back(std::make_unique<ScoreFilter>(FilterScore::kMutualInformation));
  out.push_back(
      std::make_unique<ScoreFilter>(FilterScore::kInformationGainRatio));
  return out;
}

TEST(FactorizedSelectionTest, AllMethodsBitIdenticalAcrossThreadCounts) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 16);
    ClassifierFactory factory = MakeNaiveBayesFactory();
    std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
    // The exhaustive lattice is 2^d; keep d small but real.
    std::vector<uint32_t> capped = candidates;
    if (capped.size() > 10) capped.resize(10);

    for (auto& selector : AllSelectors()) {
      const bool exhaustive = selector->name() == "exhaustive_selection";
      const std::vector<uint32_t>& cands = exhaustive ? capped : candidates;
      for (uint32_t threads : kThreadCounts) {
        SCOPED_TRACE(t.name + " " + selector->name() + " threads " +
                     std::to_string(threads));
        selector->set_num_threads(threads);
        auto mat = selector->Select(*t.mat, t.split, factory, t.metric, cands);
        ASSERT_TRUE(mat.ok()) << mat.status();
        auto fac = selector->Select(t.fac, t.split, factory, t.metric, cands);
        ASSERT_TRUE(fac.ok()) << fac.status();
        EXPECT_EQ(fac->selected, mat->selected);
        EXPECT_EQ(fac->validation_error, mat->validation_error);
        EXPECT_EQ(fac->models_trained, mat->models_trained);
      }
    }
  }
}

TEST(FactorizedSelectionTest, ModelParametersAndHoldoutBitIdentical) {
  for (const DatasetCase& c : kDatasetCases) {
    TwinCase t = MakeTwinCase(c, 17);
    ClassifierFactory factory = MakeNaiveBayesFactory();
    const std::vector<uint32_t> candidates = t.mat->AllFeatureIndices();
    ForwardSelection forward;
    forward.set_num_threads(2);
    SCOPED_TRACE(t.name);

    auto mat = RunFeatureSelection(forward, *t.mat, t.split, factory,
                                   t.metric, candidates);
    ASSERT_TRUE(mat.ok()) << mat.status();
    auto fac = RunFeatureSelection(forward, t.fac, t.split, factory,
                                   t.metric, candidates);
    ASSERT_TRUE(fac.ok()) << fac.status();

    EXPECT_EQ(fac->selection.selected, mat->selection.selected);
    EXPECT_EQ(fac->selection.validation_error, mat->selection.validation_error);
    EXPECT_EQ(fac->selected_names, mat->selected_names);
    EXPECT_EQ(fac->holdout_test_error, mat->holdout_test_error);

    // The final models themselves: trained from the two statistics
    // builds (the factorized one through Train on the view, which reads
    // them in place of rows), every exported double must agree
    // bit-for-bit.
    const SuffStats mat_stats = BuildSuffStats(*t.mat, t.split.train);
    const SuffStats fac_stats = BuildFactorizedSuffStats(t.fac, t.split.train);
    NaiveBayes nb_mat(1.0), nb_fac(1.0);
    ASSERT_TRUE(nb_mat.TrainFromStats(mat_stats, mat->selection.selected).ok());
    ASSERT_TRUE(nb_fac.Train(t.fac, t.split.train, fac->selection.selected,
                             &fac_stats)
                    .ok());
    const NaiveBayesParams pm = nb_mat.ExportParams();
    const NaiveBayesParams pf = nb_fac.ExportParams();
    EXPECT_EQ(pf.features, pm.features);
    EXPECT_EQ(pf.log_priors, pm.log_priors);
    ASSERT_EQ(pf.log_likelihoods.size(), pm.log_likelihoods.size());
    for (size_t j = 0; j < pm.log_likelihoods.size(); ++j) {
      EXPECT_EQ(pf.log_likelihoods[j], pm.log_likelihoods[j])
          << "feature slot " << j;
    }
  }
}

// --- Edge cases: FK skew and a class missing from the train rows. ---------

SynthDatasetSpec SkewedSpec() {
  SynthDatasetSpec spec;
  spec.name = "SkewTwin";
  spec.entity_name = "Events";
  spec.pk_name = "EventID";
  spec.target_name = "Level";
  spec.num_classes = 3;
  spec.n_s = 600;
  spec.label_noise = 0.3;
  spec.s_features.push_back({SynthFeatureSpec::Signal("Hour", 6, 0.0), 0.8});
  SynthAttributeTableSpec users;
  users.table_name = "Users";
  users.pk_name = "UserID";
  users.fk_name = "UserID";
  users.num_rows = 40;
  users.fk_zipf = 1.6;  // Head-heavy: most users have very few rows.
  users.target_weight = 0.9;
  users.features.push_back(SynthFeatureSpec::Signal("Age", 5, 0.9));
  users.features.push_back(SynthFeatureSpec::Noise("Quirk", 7));
  spec.tables.push_back(users);
  return spec;
}

TEST(FactorizedEdgeCaseTest, FkSkewedDatasetBitIdentical) {
  NormalizedDataset dataset = *GenerateSyntheticDataset(SkewedSpec(), 1.0, 23);
  const std::vector<std::string> fks = AllFkColumns(dataset);
  Table table = *dataset.JoinSubset(fks);
  EncodedDataset mat = *EncodedDataset::FromTableAuto(table);
  FactorizedDataset fac = *FactorizedDataset::Make(dataset, fks);
  Rng rng(24);
  HoldoutSplit split = MakeHoldoutSplit(mat.num_rows(), rng);
  const SuffStats a = BuildSuffStats(mat, split.train);
  for (uint32_t threads : kThreadCounts) {
    const SuffStats b = FactorizedStatsAt(fac, split.train, threads);
    ExpectStatsBitIdentical(a, b, "skew threads " + std::to_string(threads));
  }
  ForwardSelection forward;
  ClassifierFactory factory = MakeNaiveBayesFactory();
  auto mr = forward.Select(mat, split, factory, ErrorMetric::kZeroOne,
                           mat.AllFeatureIndices());
  auto fr = forward.Select(fac, split, factory, ErrorMetric::kZeroOne,
                           fac.AllFeatureIndices());
  ASSERT_TRUE(mr.ok() && fr.ok());
  EXPECT_EQ(fr->selected, mr->selected);
  EXPECT_EQ(fr->validation_error, mr->validation_error);
}

TEST(FactorizedEdgeCaseTest, ClassMissingFromTrainRows) {
  // Hand-built pair where the label domain has 3 classes but the chosen
  // train rows only contain 2 — the zero row in class_counts must
  // propagate identically through both builds.
  Schema r_schema({ColumnSpec::PrimaryKey("StoreID"),
                   ColumnSpec::Feature("Size")});
  TableBuilder rb("Stores", r_schema);
  ASSERT_TRUE(rb.AppendRowLabels({"s0", "big"}).ok());
  ASSERT_TRUE(rb.AppendRowLabels({"s1", "small"}).ok());
  ASSERT_TRUE(rb.AppendRowLabels({"s2", "big"}).ok());
  Table stores = rb.Build();

  Schema s_schema({ColumnSpec::PrimaryKey("SaleID"),
                   ColumnSpec::Target("Level"),
                   ColumnSpec::Feature("Promo"),
                   ColumnSpec::ForeignKey("StoreID", "Stores")});
  TableBuilder sb("Sales", s_schema,
                  {nullptr, nullptr, nullptr, stores.column(0).domain()});
  ASSERT_TRUE(sb.AppendRowLabels({"x0", "low", "yes", "s0"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"x1", "mid", "no", "s1"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"x2", "high", "yes", "s2"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"x3", "low", "no", "s1"}).ok());
  ASSERT_TRUE(sb.AppendRowLabels({"x4", "mid", "yes", "s0"}).ok());
  Table sales = sb.Build();

  NormalizedDataset dataset =
      *NormalizedDataset::Make("MiniSales", sales, {stores});
  EncodedDataset mat =
      *EncodedDataset::FromTableAuto(*dataset.JoinSubset({"StoreID"}));
  FactorizedDataset fac = *FactorizedDataset::Make(dataset, {"StoreID"});
  // Train rows {0, 1, 3, 4} never contain the "high" class.
  const std::vector<uint32_t> train = {0, 1, 3, 4};
  const SuffStats a = BuildSuffStats(mat, train);
  const SuffStats b = BuildFactorizedSuffStats(fac, train);
  ExpectStatsBitIdentical(a, b, "missing class");
  // Target labels encode in first-seen order (low=0, mid=1, high=2) and
  // "high" only occurs on excluded row 2 — both builds must carry the
  // zero count rather than dropping the class.
  ASSERT_EQ(a.num_classes, 3u);
  EXPECT_EQ(a.class_counts[2], 0u);
}

// --- Property: random KFK schemas agree cell-for-cell. --------------------

TEST(FactorizedPropertyTest, RandomKfkSchemasAgreeCellForCell) {
  Rng seeder(0xFACDADull);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t seed = seeder.NextU64();
    SCOPED_TRACE("trial " + std::to_string(trial) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);

    // Random attribute table: |R| in [1, 60], 1-4 feature columns with
    // cardinalities 2-6. Some R rows end up unreferenced by S.
    const uint32_t num_r = 1 + rng.Uniform(60);
    const uint32_t num_r_features = 1 + rng.Uniform(4);
    std::vector<ColumnSpec> r_specs = {ColumnSpec::PrimaryKey("RID")};
    for (uint32_t f = 0; f < num_r_features; ++f) {
      r_specs.push_back(ColumnSpec::Feature("R" + std::to_string(f)));
    }
    std::vector<uint32_t> r_cards(num_r_features);
    for (uint32_t f = 0; f < num_r_features; ++f) {
      r_cards[f] = 2 + rng.Uniform(5);
    }
    TableBuilder rb("R", Schema(r_specs));
    for (uint32_t i = 0; i < num_r; ++i) {
      std::vector<std::string> row = {"r" + std::to_string(i)};
      for (uint32_t f = 0; f < num_r_features; ++f) {
        row.push_back("v" + std::to_string(rng.Uniform(r_cards[f])));
      }
      ASSERT_TRUE(rb.AppendRowLabels(row).ok());
    }
    Table r = rb.Build();

    // Random entity table over those RIDs, with skewed FK draws: row i
    // references RID (i * i) % referenced_cap, a head-heavy deterministic
    // skew, with referenced_cap <= |R| so a tail of R is unreferenced.
    const uint32_t num_s = 20 + rng.Uniform(200);
    const uint32_t num_classes = 2 + rng.Uniform(3);
    const uint32_t referenced_cap = 1 + rng.Uniform(num_r);
    TableBuilder sb("S",
                    Schema({ColumnSpec::PrimaryKey("SID"),
                            ColumnSpec::Target("Y"),
                            ColumnSpec::Feature("XS"),
                            ColumnSpec::ForeignKey("RID", "R")}),
                    {nullptr, nullptr, nullptr, r.column(0).domain()});
    for (uint32_t i = 0; i < num_s; ++i) {
      const uint32_t pick = rng.Uniform(2) == 0
                                ? rng.Uniform(referenced_cap)
                                : (i * i) % referenced_cap;
      ASSERT_TRUE(sb.AppendRowLabels(
                        {"s" + std::to_string(i),
                         "y" + std::to_string(rng.Uniform(num_classes)),
                         "x" + std::to_string(rng.Uniform(4)),
                         "r" + std::to_string(pick)})
                      .ok());
    }
    Table s = sb.Build();

    NormalizedDataset dataset = *NormalizedDataset::Make("Prop", s, {r});
    EncodedDataset mat =
        *EncodedDataset::FromTableAuto(*dataset.JoinSubset({"RID"}));
    FactorizedDataset fac = *FactorizedDataset::Make(dataset, {"RID"});

    // Random row subset (possibly with repeats dropped): every third row.
    std::vector<uint32_t> rows;
    for (uint32_t i = 0; i < num_s; ++i) {
      if (rng.Uniform(4) != 0) rows.push_back(i);
    }
    const SuffStats a = BuildSuffStats(mat, rows);
    for (uint32_t threads : kThreadCounts) {
      const SuffStats b = FactorizedStatsAt(fac, rows, threads);
      ExpectStatsBitIdentical(a, b, "threads " + std::to_string(threads));
    }
  }
}

// --- The pipeline switch. -------------------------------------------------

TEST(FactorizedPipelineTest, AvoidMaterializationMatchesMaterializedRun) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.02, 31);
  PipelineConfig config;
  config.method = FsMethod::kForwardSelection;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.metric = *MetricForDataset("Walmart");
  config.seed = 31;

  config.avoid_materialization = false;
  auto mat = RunPipeline(dataset, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  config.avoid_materialization = true;
  auto fac = RunPipeline(dataset, config);
  ASSERT_TRUE(fac.ok()) << fac.status();

  EXPECT_TRUE(fac->factorized);
  EXPECT_FALSE(mat->factorized);
  EXPECT_EQ(fac->tables_joined, 0u);
  EXPECT_EQ(fac->tables_factorized, mat->tables_joined);
  EXPECT_EQ(fac->features_in, mat->features_in);
  EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names);
  EXPECT_EQ(fac->selection.selection.validation_error,
            mat->selection.selection.validation_error);
  EXPECT_EQ(fac->selection.holdout_test_error,
            mat->selection.holdout_test_error);
  EXPECT_NE(fac->Summary().find("factorized"), std::string::npos);
}

TEST(FactorizedPipelineTest, NonNbClassifierFallsBackToMaterializing) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 32);
  PipelineConfig config;
  config.classifier = ClassifierKind::kLogisticRegressionL2;
  config.metric = *MetricForDataset("Walmart");
  config.avoid_materialization = true;
  // JoinAll so the fallback demonstrably materializes something.
  config.enable_join_avoidance = false;
  auto report = RunPipeline(dataset, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->factorized);
  EXPECT_GT(report->tables_joined, 0u);
}

TEST(FactorizedPipelineTest, ForceScanFallsBackToMaterializing) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 33);
  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.metric = *MetricForDataset("Walmart");
  config.avoid_materialization = true;
  config.force_scan_eval = true;
  auto report = RunPipeline(dataset, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->factorized);
}

}  // namespace
}  // namespace hamlet
