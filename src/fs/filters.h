#ifndef HAMLET_FS_FILTERS_H_
#define HAMLET_FS_FILTERS_H_

/// \file filters.h
/// Filter feature selection (Section 2.2): each feature is scored against
/// Y on the training rows independently of any classifier, features are
/// ranked, and the cut-off k is tuned with the validation error of the
/// given classifier ("as a wrapper", per Section 5).
///
/// Both phases are data-parallel on the shared pool, at the run's width
/// (set_num_threads on the base class): per-feature scores and per-k
/// prefix models each write their own slot, and the rank/argmin
/// reductions run serially in index order, so results are bit-for-bit
/// identical at any width.

#include "fs/feature_selector.h"

namespace hamlet {

struct SuffStats;

/// Scoring function choices for the filter.
enum class FilterScore {
  kMutualInformation,    ///< I(F;Y)
  kInformationGainRatio,  ///< IGR(F;Y) = I(F;Y)/H(F)
};

/// Top-k filter with validation-tuned k.
class ScoreFilter : public FeatureSelector {
 public:
  explicit ScoreFilter(FilterScore score) : score_(score) {}

  Result<SelectionResult> Search(const DataView& view,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates,
                                 std::shared_ptr<const SuffStats> stats)
      override;

  std::string name() const override {
    return score_ == FilterScore::kMutualInformation ? "mi_filter"
                                                     : "igr_filter";
  }

  /// Scores every candidate on `rows` (exposed for tests and the Section
  /// 3.1 relevancy experiments). Output is parallel to `candidates`.
  std::vector<double> ScoreFeatures(
      const EncodedDataset& data, const std::vector<uint32_t>& rows,
      const std::vector<uint32_t>& candidates) const;

  /// Scores straight from prebuilt sufficient statistics — the counts are
  /// the contingency tables, so no data scan happens at all. Search
  /// scores this way whenever the run holds statistics, and the
  /// factorized view always does; identical counts make the scores
  /// bit-identical to ScoreFeatures. Output is parallel to `candidates`.
  std::vector<double> ScoreFeaturesFromStats(
      const SuffStats& stats, const std::vector<uint32_t>& candidates) const;

 private:
  FilterScore score_;
};

}  // namespace hamlet

#endif  // HAMLET_FS_FILTERS_H_
