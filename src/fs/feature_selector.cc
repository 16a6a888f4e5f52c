#include "fs/feature_selector.h"

#include "common/thread_pool.h"
#include "fs/candidate_eval.h"
#include "ml/factorized.h"

namespace hamlet {

const std::vector<uint32_t>& DataView::labels() const {
  return materialized_ != nullptr ? materialized_->labels()
                                  : factorized_->labels();
}

std::vector<std::string> DataView::FeatureNames(
    const std::vector<uint32_t>& indices) const {
  return materialized_ != nullptr ? materialized_->FeatureNames(indices)
                                  : factorized_->FeatureNames(indices);
}

Result<SelectionResult> FeatureSelector::SearchWithStats(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  const ScopedWidth width(num_threads_);
  return Search(view, split, factory, metric, candidates,
                StatsForScorer(view, split.train, factory, force_scan_eval_));
}

}  // namespace hamlet
