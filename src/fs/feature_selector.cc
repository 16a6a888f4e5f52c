#include "fs/feature_selector.h"

#include "fs/candidate_eval.h"

namespace hamlet {

Result<SelectionResult> FeatureSelector::Select(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates) {
  const ScopedWidth width = OpenWidth();
  return Search(view, split, factory, metric, candidates,
                StatsForScorer(view, split.train, factory, force_scan_eval_));
}

}  // namespace hamlet
