#include "fs/greedy_search.h"

#include <algorithm>
#include <memory>

#include "fs/candidate_eval.h"
#include "obs/trace.h"

namespace hamlet {

Result<SelectionResult> ForwardSelection::Search(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats) {
  // Candidate retrains of tree/GBT models train under the cheap refit
  // budget; the runner's final fit gets the full budget. A no-op for
  // every other classifier.
  const ClassifierFactory candidate_factory = WithRefitBudget(factory);
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(view, split.train, split.validation,
                          candidate_factory, metric, candidates,
                          std::move(stats), force_scan_eval_));
  SelectionResult result;
  std::vector<uint32_t> remaining = candidates;

  // Baseline: the prior-only (empty-subset) model.
  double best_error = 0.0;
  HAMLET_ASSIGN_OR_RETURN(best_error, scorer->ScoreBase({}));
  ++result.models_trained;
  FsModelsTrainedCounter().Add(1);

  while (!remaining.empty()) {
    const uint32_t m = static_cast<uint32_t>(remaining.size());
    obs::TraceSpan step_span("fs.step");
    step_span.AddAttr("candidates", m);
    std::vector<double> errors;
    HAMLET_RETURN_NOT_OK(scorer->ScoreAdditions(remaining, &errors));
    result.models_trained += m;

    // Serial index-ordered reduction: a candidate wins only by improving
    // strictly beyond the running best minus tolerance, so exact ties keep
    // the lower index at any thread count.
    double round_best = best_error;
    int32_t round_pick = -1;
    for (uint32_t i = 0; i < m; ++i) {
      if (errors[i] < round_best - tolerance_) {
        round_best = errors[i];
        round_pick = static_cast<int32_t>(i);
      }
    }
    if (round_pick < 0) break;
    result.selected.push_back(remaining[round_pick]);
    scorer->AddToBase(remaining[round_pick]);
    remaining.erase(remaining.begin() + round_pick);
    best_error = round_best;
  }
  result.validation_error = best_error;
  return result;
}

Result<SelectionResult> BackwardSelection::Search(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats) {
  const ClassifierFactory candidate_factory = WithRefitBudget(factory);
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(view, split.train, split.validation,
                          candidate_factory, metric, candidates,
                          std::move(stats), force_scan_eval_));
  SelectionResult result;
  result.selected = candidates;

  double best_error = 0.0;
  HAMLET_ASSIGN_OR_RETURN(best_error, scorer->ScoreBase(result.selected));
  ++result.models_trained;
  FsModelsTrainedCounter().Add(1);

  while (result.selected.size() > 1) {
    const uint32_t m = static_cast<uint32_t>(result.selected.size());
    obs::TraceSpan step_span("fs.step");
    step_span.AddAttr("candidates", m);
    std::vector<double> errors;
    HAMLET_RETURN_NOT_OK(scorer->ScoreRemovals(result.selected, &errors));
    result.models_trained += m;

    // Serial reduction preserving the original semantics: `<=` keeps the
    // last index among exact ties (prefer dropping later features).
    double round_best = best_error + tolerance_;
    int32_t round_pick = -1;
    for (uint32_t i = 0; i < m; ++i) {
      if (errors[i] <= round_best) {
        round_best = errors[i];
        round_pick = static_cast<int32_t>(i);
      }
    }
    if (round_pick < 0) break;
    scorer->RemoveFromBase(result.selected[round_pick]);
    result.selected.erase(result.selected.begin() + round_pick);
    best_error = std::min(best_error, round_best);
  }
  result.validation_error = best_error;
  return result;
}

}  // namespace hamlet
