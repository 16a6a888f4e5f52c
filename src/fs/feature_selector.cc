#include "fs/feature_selector.h"

#include "common/thread_pool.h"
#include "fs/candidate_eval.h"

namespace hamlet {

Result<SelectionResult> FeatureSelector::SearchWithStats(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  const ScopedWidth width(num_threads_);
  return Search(view, split, factory, metric, candidates,
                StatsForScorer(view, split.train, factory, force_scan_eval_));
}

}  // namespace hamlet
