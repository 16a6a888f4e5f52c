/// The scoring-backend table (ctest label `fs`): for every classifier the
/// pipeline trains, on either view and with the sufficient-statistics
/// path on or off, which backend ChooseScoringBackend picks (or that it
/// refuses the combination) and whether StatsForScorer builds the train
/// split's statistics.

#include "fs/candidate_eval.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "data/encoded_dataset.h"
#include "datasets/registry.h"
#include "ml/factorized.h"

namespace hamlet {
namespace {

struct BackendCase {
  ClassifierKind kind;
  bool factorized;
  bool force_scan_eval;
  std::optional<ScoringBackend> backend;  ///< nullopt: InvalidArgument.
  bool builds_stats;
};

constexpr auto kNbDelta = ScoringBackend::kNbDelta;
constexpr auto kScan = ScoringBackend::kScan;
constexpr auto kFactorizedScan = ScoringBackend::kFactorizedScan;
constexpr std::nullopt_t kRejected = std::nullopt;

// Naive Bayes scores from statistics on either view unless the run
// forces scans; every classifier retrains on the joined table; only the
// trees retrain on the factorized view, and only the decision tree reads
// root statistics there, unless the run forces scans.
const BackendCase kCases[] = {
    {ClassifierKind::kNaiveBayes, false, false, kNbDelta, true},
    {ClassifierKind::kNaiveBayes, false, true, kScan, false},
    {ClassifierKind::kNaiveBayes, true, false, kNbDelta, true},
    {ClassifierKind::kNaiveBayes, true, true, kRejected, false},
    {ClassifierKind::kLogisticRegressionL1, false, false, kScan, false},
    {ClassifierKind::kLogisticRegressionL1, false, true, kScan, false},
    {ClassifierKind::kLogisticRegressionL1, true, false, kRejected, false},
    {ClassifierKind::kLogisticRegressionL1, true, true, kRejected, false},
    {ClassifierKind::kLogisticRegressionL2, false, false, kScan, false},
    {ClassifierKind::kLogisticRegressionL2, false, true, kScan, false},
    {ClassifierKind::kLogisticRegressionL2, true, false, kRejected, false},
    {ClassifierKind::kLogisticRegressionL2, true, true, kRejected, false},
    {ClassifierKind::kTan, false, false, kScan, false},
    {ClassifierKind::kTan, false, true, kScan, false},
    {ClassifierKind::kTan, true, false, kRejected, false},
    {ClassifierKind::kTan, true, true, kRejected, false},
    {ClassifierKind::kDecisionTree, false, false, kScan, false},
    {ClassifierKind::kDecisionTree, false, true, kScan, false},
    {ClassifierKind::kDecisionTree, true, false, kFactorizedScan, true},
    {ClassifierKind::kDecisionTree, true, true, kFactorizedScan, false},
    {ClassifierKind::kGradientBoostedTrees, false, false, kScan, false},
    {ClassifierKind::kGradientBoostedTrees, false, true, kScan, false},
    {ClassifierKind::kGradientBoostedTrees, true, false, kFactorizedScan,
     false},
    {ClassifierKind::kGradientBoostedTrees, true, true, kFactorizedScan,
     false},
};

TEST(CandidateEvalTest, BackendAndStatsPerLearner) {
  NormalizedDataset dataset = *MakeDataset("Walmart", 0.01, 61);
  std::vector<std::string> fks;
  for (const auto& fk : dataset.foreign_keys()) fks.push_back(fk.fk_column);
  const EncodedDataset joined =
      *EncodedDataset::FromTableAuto(*dataset.JoinSubset(fks));
  const FactorizedDataset fac = *FactorizedDataset::Make(dataset, fks);
  std::vector<uint32_t> rows(joined.num_rows() / 2);
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = 2 * i;

  ASSERT_EQ(std::size(kCases), 6u * 2u * 2u);
  for (const BackendCase& c : kCases) {
    SCOPED_TRACE(std::string(ClassifierKindToString(c.kind)) +
                 (c.factorized ? " factorized" : " materialized") +
                 (c.force_scan_eval ? " force_scan_eval" : ""));
    const ClassifierFactory factory = MakeClassifierFactory(c.kind);
    const DataView view = c.factorized ? DataView(fac) : DataView(joined);

    const Result<ScoringBackend> backend =
        ChooseScoringBackend(*factory(), c.factorized, c.force_scan_eval);
    if (c.backend.has_value()) {
      ASSERT_TRUE(backend.ok()) << backend.status().ToString();
      EXPECT_STREQ(ScoringBackendName(*backend),
                   ScoringBackendName(*c.backend));
    } else {
      EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
    }

    const std::shared_ptr<const SuffStats> stats =
        StatsForScorer(view, rows, factory, c.force_scan_eval);
    EXPECT_EQ(stats != nullptr, c.builds_stats);
  }
}

}  // namespace
}  // namespace hamlet
