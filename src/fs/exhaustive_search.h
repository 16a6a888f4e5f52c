#ifndef HAMLET_FS_EXHAUSTIVE_SEARCH_H_
#define HAMLET_FS_EXHAUSTIVE_SEARCH_H_

/// \file exhaustive_search.h
/// Exact subset search: evaluates *every* subset of the candidates and
/// returns the validation-optimal one. Exponential (2^d models), so it is
/// guarded to small candidate sets — its role is ground truth: the
/// paper's Section 5.1 attributes several JoinAll anomalies to greedy
/// wrappers getting stuck in local optima, and this selector lets tests
/// and ablations measure that gap exactly. Subset evaluations are
/// independent and run in parallel on the shared pool, at the run's width
/// (set_num_threads); the optimum is picked by a serial mask-ordered
/// scan, so the result is identical at any width.

#include "fs/feature_selector.h"

namespace hamlet {

/// Exhaustive (optimal) wrapper selection.
class ExhaustiveSelection : public FeatureSelector {
 public:
  /// `max_candidates` caps the candidate count (2^d growth); the search
  /// fails with InvalidArgument beyond it, on either view.
  explicit ExhaustiveSelection(uint32_t max_candidates = 16)
      : max_candidates_(max_candidates) {}

  Result<SelectionResult> Search(const DataView& view,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates,
                                 std::shared_ptr<const SuffStats> stats)
      override;

  std::string name() const override { return "exhaustive_selection"; }

 private:
  uint32_t max_candidates_;
};

}  // namespace hamlet

#endif  // HAMLET_FS_EXHAUSTIVE_SEARCH_H_
