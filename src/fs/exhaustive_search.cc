#include "fs/exhaustive_search.h"

#include <memory>
#include <vector>

#include "common/string_util.h"
#include "fs/candidate_eval.h"

namespace hamlet {

namespace {

// The optimum (with the smaller-subset-then-lower-mask tie-break) is
// found by a serial mask-ordered scan, identical at any thread count.
void ReduceLattice(const std::vector<double>& errors,
                   const std::vector<uint32_t>& candidates,
                   SelectionResult* result) {
  const uint32_t d = static_cast<uint32_t>(candidates.size());
  const uint64_t total = errors.size();
  double best_error = 0.0;
  uint64_t best_mask = 0;
  bool first = true;
  for (uint64_t mask = 0; mask < total; ++mask) {
    const double err = errors[mask];
    // Strictly-better wins; ties prefer smaller subsets (lower popcount),
    // then lower masks, for determinism.
    if (first || err < best_error ||
        (err == best_error && __builtin_popcountll(mask) <
                                  __builtin_popcountll(best_mask))) {
      first = false;
      best_error = err;
      best_mask = mask;
    }
  }
  for (uint32_t j = 0; j < d; ++j) {
    if (best_mask & (1ull << j)) result->selected.push_back(candidates[j]);
  }
  result->validation_error = best_error;
}

// The candidate cap (the per-mask error table also caps the lattice at
// 2^30 entries; anything near that is computationally absurd for 2^d
// model trainings anyway).
Status CheckCandidateCap(size_t count, uint32_t max_candidates) {
  if (count > max_candidates) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive search over %zu candidates exceeds the cap of %u "
        "(2^d models)",
        count, max_candidates));
  }
  if (count > 30) {
    return Status::InvalidArgument(StringFormat(
        "exhaustive search over %zu candidates cannot enumerate 2^d masks",
        count));
  }
  return Status::OK();
}

}  // namespace

Result<SelectionResult> ExhaustiveSelection::Search(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats) {
  HAMLET_RETURN_NOT_OK(CheckCandidateCap(candidates.size(), max_candidates_));
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(view, split.train, split.validation, factory,
                          metric, candidates, std::move(stats),
                          force_scan_eval_));
  // Every subset is independent, so the scorer evaluates the lattice in
  // parallel, one slot per mask.
  std::vector<double> errors;
  HAMLET_RETURN_NOT_OK(scorer->ScoreLattice(candidates, &errors));
  SelectionResult result;
  result.models_trained = errors.size();
  ReduceLattice(errors, candidates, &result);
  return result;
}

}  // namespace hamlet
