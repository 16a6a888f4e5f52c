/// Stats-vs-scan equivalence suite for the sufficient-statistics fast
/// path (docs/PERFORMANCE.md). The contract under test: scoring from the
/// run's statistics, every search selects the *identical* subset,
/// reports an error within 1e-12 of the scan path (bit-equal for
/// forward/exhaustive/filters, whose summation order matches the scan
/// path exactly), and trains the same number of candidate models —
/// across bundled datasets and thread counts {1, 2, 8}. The scan
/// reference runs with set_force_scan_eval, which is also how
/// PipelineConfig::force_scan_eval is exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/candidate_eval.h"
#include "fs/exhaustive_search.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/eval.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

const uint32_t kThreadCounts[] = {1u, 2u, 8u};

// Bundled datasets the sweep covers: one with avoidable joins, one
// open-domain-key schema, one where nothing is avoidable — small scales
// keep the whole sweep fast while exercising real cardinalities.
struct DatasetCase {
  const char* name;
  double scale;
};
const DatasetCase kDatasetCases[] = {
    {"Walmart", 0.02}, {"Expedia", 0.004}, {"Yelp", 0.02}};

struct EncodedCase {
  std::string name;
  std::unique_ptr<EncodedDataset> data;
  HoldoutSplit split;
  ErrorMetric metric;
};

EncodedCase MakeEncodedCase(const DatasetCase& c, uint64_t seed) {
  EncodedCase out;
  out.name = c.name;
  NormalizedDataset dataset = *MakeDataset(c.name, c.scale, seed);
  std::vector<std::string> to_join;
  for (const auto& fk : dataset.foreign_keys()) {
    to_join.push_back(fk.fk_column);
  }
  Table table = *dataset.JoinSubset(to_join);
  out.data =
      std::make_unique<EncodedDataset>(*EncodedDataset::FromTableAuto(table));
  Rng rng(seed + 1);
  out.split = MakeHoldoutSplit(out.data->num_rows(), rng);
  out.metric = *MetricForDataset(c.name);
  return out;
}

// --- TrainFromStats is bit-identical to the scan Train. -------------------

TEST(SuffStatsTest, TrainFromStatsMatchesScanTrainBitExactly) {
  EncodedCase c = MakeEncodedCase(kDatasetCases[0], 7);
  const SuffStats stats = BuildSuffStats(*c.data, c.split.train);
  const std::vector<uint32_t> features = c.data->AllFeatureIndices();

  NaiveBayes scan(1.0);
  ASSERT_TRUE(scan.Train(*c.data, c.split.train, features).ok());
  NaiveBayes from_stats(1.0);
  ASSERT_TRUE(from_stats.TrainFromStats(stats, features).ok());

  ASSERT_EQ(scan.log_priors().size(), from_stats.log_priors().size());
  for (size_t c2 = 0; c2 < scan.log_priors().size(); ++c2) {
    EXPECT_EQ(scan.log_priors()[c2], from_stats.log_priors()[c2]);
  }
  // Train with the statistics handed in reads them in place of the scan:
  // the same bits as without them.
  NaiveBayes given(1.0);
  ASSERT_TRUE(given.Train(*c.data, c.split.train, features, &stats).ok());
  EXPECT_EQ(given.ExportParams().log_priors, scan.ExportParams().log_priors);
  EXPECT_EQ(given.ExportParams().log_likelihoods,
            scan.ExportParams().log_likelihoods);
  for (uint32_t r : c.split.validation) {
    const std::vector<double> a = scan.LogScores(*c.data, r);
    const std::vector<double> b = from_stats.LogScores(*c.data, r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(SuffStatsTest, BuildIsIdenticalAtAnyThreadCount) {
  EncodedCase c = MakeEncodedCase(kDatasetCases[0], 8);
  const SuffStats ref = [&] {
    const ScopedWidth serial(1);
    return BuildSuffStats(*c.data, c.split.train);
  }();
  for (uint32_t threads : {2u, 8u, 0u}) {
    const ScopedWidth width(threads);
    const SuffStats got = BuildSuffStats(*c.data, c.split.train);
    EXPECT_EQ(got.class_counts, ref.class_counts) << "threads " << threads;
    EXPECT_EQ(got.cardinalities, ref.cardinalities) << "threads " << threads;
    EXPECT_EQ(got.feature_counts, ref.feature_counts) << "threads " << threads;
  }
}

// --- Fast path vs scan path: full search equivalence. ---------------------

SelectionResult RunScanReference(FeatureSelector& selector,
                                 const EncodedCase& c,
                                 const std::vector<uint32_t>& candidates) {
  selector.set_force_scan_eval(true);
  selector.set_num_threads(1);
  return *selector.Select(*c.data, c.split, MakeNaiveBayesFactory(),
                          c.metric, candidates);
}

void ExpectEquivalent(const SelectionResult& scan, const SelectionResult& fast,
                      const std::string& label) {
  EXPECT_EQ(fast.selected, scan.selected) << label;
  EXPECT_LE(std::fabs(fast.validation_error - scan.validation_error), 1e-12)
      << label;
  EXPECT_EQ(fast.models_trained, scan.models_trained) << label;
}

TEST(FastPathEquivalenceTest, ForwardSelectionMatchesScanOnBundledDatasets) {
  for (const DatasetCase& dc : kDatasetCases) {
    EncodedCase c = MakeEncodedCase(dc, 21);
    const std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
    ForwardSelection scan_fs;
    const SelectionResult scan = RunScanReference(scan_fs, c, candidates);
    for (uint32_t threads : kThreadCounts) {
      ForwardSelection fs;
      fs.set_num_threads(threads);
      const SelectionResult fast = *fs.Select(
          *c.data, c.split, MakeNaiveBayesFactory(), c.metric, candidates);
      ExpectEquivalent(scan, fast,
                       c.name + " threads=" + std::to_string(threads));
      // Forward's summation order matches the scan path exactly.
      EXPECT_EQ(fast.validation_error, scan.validation_error) << c.name;
    }
  }
}

TEST(FastPathEquivalenceTest, BackwardSelectionMatchesScanOnBundledDatasets) {
  for (const DatasetCase& dc : kDatasetCases) {
    EncodedCase c = MakeEncodedCase(dc, 22);
    const std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
    BackwardSelection scan_bs;
    const SelectionResult scan = RunScanReference(scan_bs, c, candidates);
    for (uint32_t threads : kThreadCounts) {
      BackwardSelection bs;
      bs.set_num_threads(threads);
      const SelectionResult fast = *bs.Select(
          *c.data, c.split, MakeNaiveBayesFactory(), c.metric, candidates);
      ExpectEquivalent(scan, fast,
                       c.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(FastPathEquivalenceTest, ExhaustiveSelectionMatchesScanOnBundledDatasets) {
  for (const DatasetCase& dc : kDatasetCases) {
    EncodedCase c = MakeEncodedCase(dc, 23);
    // Cap the lattice: the first (up to) 8 features.
    std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
    if (candidates.size() > 8) candidates.resize(8);
    ExhaustiveSelection scan_ex;
    const SelectionResult scan = RunScanReference(scan_ex, c, candidates);
    for (uint32_t threads : kThreadCounts) {
      ExhaustiveSelection ex;
      ex.set_num_threads(threads);
      const SelectionResult fast = *ex.Select(
          *c.data, c.split, MakeNaiveBayesFactory(), c.metric, candidates);
      ExpectEquivalent(scan, fast,
                       c.name + " threads=" + std::to_string(threads));
      // The DFS accumulates features in ascending bit order — the scan
      // path's subset order — so errors are bit-equal, not just close.
      EXPECT_EQ(fast.validation_error, scan.validation_error) << c.name;
    }
  }
}

TEST(FastPathEquivalenceTest, FiltersMatchScanOnBundledDatasets) {
  for (const DatasetCase& dc : kDatasetCases) {
    EncodedCase c = MakeEncodedCase(dc, 24);
    const std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
    for (FilterScore score : {FilterScore::kMutualInformation,
                              FilterScore::kInformationGainRatio}) {
      ScoreFilter scan_filter(score);
      const SelectionResult scan = RunScanReference(scan_filter, c,
                                                    candidates);
      for (uint32_t threads : kThreadCounts) {
        ScoreFilter filter(score);
        filter.set_num_threads(threads);
        const SelectionResult fast = *filter.Select(
            *c.data, c.split, MakeNaiveBayesFactory(), c.metric, candidates);
        ExpectEquivalent(scan, fast,
                         c.name + " threads=" + std::to_string(threads));
        EXPECT_EQ(fast.validation_error, scan.validation_error) << c.name;
      }
    }
  }
}

TEST(FastPathEquivalenceTest, FilterScoresFromStatsMatchScan) {
  EncodedCase c = MakeEncodedCase(kDatasetCases[0], 25);
  const std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
  const SuffStats stats = BuildSuffStats(*c.data, c.split.train);
  for (FilterScore score : {FilterScore::kMutualInformation,
                            FilterScore::kInformationGainRatio}) {
    ScoreFilter filter(score);
    const ScopedWidth serial(1);
    const std::vector<double> scan_scores =
        filter.ScoreFeatures(*c.data, c.split.train, candidates);
    const std::vector<double> stats_scores =
        filter.ScoreFeaturesFromStats(stats, candidates);
    ASSERT_EQ(stats_scores.size(), scan_scores.size());
    for (size_t i = 0; i < scan_scores.size(); ++i) {
      EXPECT_EQ(stats_scores[i], scan_scores[i]) << "feature " << i;
    }
  }
}

// --- NbSubsetEvaluator unit invariants. -----------------------------------

TEST(NbSubsetEvaluatorTest, EvalPathsAgreeWithEachOther) {
  EncodedCase c = MakeEncodedCase(kDatasetCases[0], 26);
  const std::vector<uint32_t> candidates = c.data->AllFeatureIndices();
  auto stats = std::make_shared<const SuffStats>(
      BuildSuffStats(*c.data, c.split.train));
  NbSubsetEvaluator ev(DataView(*c.data), stats, c.split.validation,
                       c.metric, 1.0, candidates);

  std::vector<uint32_t> subset;
  ev.ResetBase(subset);
  for (uint32_t f : candidates) {
    // EvalBasePlus(f) must equal evaluating S ∪ {f} from scratch.
    const double plus = ev.EvalBasePlus(f);
    std::vector<uint32_t> grown = subset;
    grown.push_back(f);
    EXPECT_EQ(plus, ev.EvalSubset(grown)) << "feature " << f;
    if (subset.size() < 3) {
      subset = grown;
      ev.AddToBase(f);
      EXPECT_EQ(ev.EvalBase(), ev.EvalSubset(subset));
    }
  }
  // RemoveFromBase then EvalBase ≈ evaluating the shrunk subset (the
  // subtraction re-associates the sum, hence tolerance not equality).
  const uint32_t dropped = subset.back();
  ev.RemoveFromBase(dropped);
  subset.pop_back();
  EXPECT_LE(std::fabs(ev.EvalBase() - ev.EvalSubset(subset)), 1e-12);
}

// Statistics of another dataset can never index past a table: the
// evaluator checks their layout against the dataset before reading one.
TEST(NbSubsetEvaluatorTest, StatsOfAnotherDatasetAbort) {
  EncodedCase walmart = MakeEncodedCase(kDatasetCases[0], 28);
  EncodedCase expedia = MakeEncodedCase(kDatasetCases[1], 28);
  auto foreign = std::make_shared<const SuffStats>(
      BuildSuffStats(*expedia.data, expedia.split.train));
  EXPECT_DEATH(NbSubsetEvaluator(DataView(*walmart.data), foreign,
                                 walmart.split.validation, walmart.metric,
                                 1.0, walmart.data->AllFeatureIndices()),
               "different dataset");

  // Same class and feature counts, one cardinality apart.
  const std::vector<uint32_t> y = {0, 1, 0, 1};
  EncodedDataset narrow({{0, 1, 0, 1}, {0, 1, 2, 0}}, {{"F", 2}, {"G", 3}},
                        y, 2);
  EncodedDataset wide({{0, 1, 0, 1}, {0, 1, 2, 3}}, {{"F", 2}, {"G", 4}}, y,
                      2);
  const std::vector<uint32_t> rows = {0, 1, 2, 3};
  auto wide_stats =
      std::make_shared<const SuffStats>(BuildSuffStats(wide, rows));
  EXPECT_DEATH(NbSubsetEvaluator(DataView(narrow), wide_stats, rows,
                                 ErrorMetric::kZeroOne, 1.0, {0, 1}),
               "feature 1's cardinality");
  // The check covers candidates only: F alone fits.
  NbSubsetEvaluator only_f(DataView(narrow), wide_stats, rows,
                           ErrorMetric::kZeroOne, 1.0, {0});
  EXPECT_EQ(only_f.num_eval_rows(), 4u);
}

// --- Observability: the fs.* probes record under collection. --------------

TEST(SuffStatsObservabilityTest, ProbesRecordUnderCollection) {
  EncodedCase c = MakeEncodedCase(kDatasetCases[0], 27);
  obs::ScopedCollection collection(true);
  ForwardSelection fs;
  fs.set_num_threads(1);
  ASSERT_TRUE(fs.Select(*c.data, c.split, MakeNaiveBayesFactory(), c.metric,
                        c.data->AllFeatureIndices())
                  .ok());

  // One statistics build serves the whole search, as one span.
  uint64_t builds = 0;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Collect().events) {
    if (event.name == std::string("fs.stats_build")) ++builds;
  }
  EXPECT_EQ(builds, 1u);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  uint64_t deltas = 0, models = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "fs.delta_evals") deltas = counter.value;
    if (counter.name == "fs.models_trained") models = counter.value;
  }
  EXPECT_GE(deltas, c.data->num_features());
  // Every candidate is a delta pass; only the baseline is not.
  EXPECT_EQ(deltas + 1, models);
}

}  // namespace
}  // namespace hamlet
