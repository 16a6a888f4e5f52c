#ifndef HAMLET_FS_GREEDY_SEARCH_H_
#define HAMLET_FS_GREEDY_SEARCH_H_

/// \file greedy_search.h
/// Sequential greedy wrappers (Section 2.2): forward selection grows the
/// subset from empty, backward selection shrinks it from full; both move
/// one feature at a time by validation error and stop when no move
/// improves it.
///
/// Each step's candidate models are independent, so they are trained and
/// scored in parallel on the shared pool, at the run's width
/// (set_num_threads on the base class), with a barrier per step; the
/// winner is then picked by a serial index-ordered reduction, keeping
/// selections bit-for-bit identical to a serial run at any width.

#include "fs/feature_selector.h"

namespace hamlet {

/// Forward sequential selection.
class ForwardSelection : public FeatureSelector {
 public:
  /// `tolerance`: a move must improve the error by more than this.
  explicit ForwardSelection(double tolerance = 0.0)
      : tolerance_(tolerance) {}

  Result<SelectionResult> Search(const DataView& view,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates,
                                 std::shared_ptr<const SuffStats> stats)
      override;

  std::string name() const override { return "forward_selection"; }

 private:
  double tolerance_;
};

/// Backward sequential elimination.
class BackwardSelection : public FeatureSelector {
 public:
  /// `tolerance`: removals that change the error by no more than this are
  /// also taken (prefer smaller subsets on ties).
  explicit BackwardSelection(double tolerance = 0.0)
      : tolerance_(tolerance) {}

  Result<SelectionResult> Search(const DataView& view,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates,
                                 std::shared_ptr<const SuffStats> stats)
      override;

  std::string name() const override { return "backward_selection"; }

 private:
  double tolerance_;
};

}  // namespace hamlet

#endif  // HAMLET_FS_GREEDY_SEARCH_H_
