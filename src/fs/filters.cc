#include "fs/filters.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/parallel_for.h"
#include "fs/candidate_eval.h"
#include "ml/suff_stats.h"
#include "obs/trace.h"
#include "stats/contingency.h"
#include "stats/info_theory.h"

namespace hamlet {

namespace {

// Rank candidate indices by descending score (stable for determinism).
std::vector<uint32_t> RankByScore(const std::vector<double>& scores) {
  std::vector<uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

// Serial argmin over k (strict `<` keeps the smallest k among ties).
void PickBestPrefix(const std::vector<double>& errors,
                    const std::vector<uint32_t>& ranked,
                    SelectionResult* result) {
  const uint32_t num_k = static_cast<uint32_t>(errors.size());
  double best_error = 0.0;
  size_t best_k = 1;
  for (uint32_t k = 1; k <= num_k; ++k) {
    const double err = errors[k - 1];
    if (k == 1 || err < best_error) {
      best_error = err;
      best_k = k;
    }
  }
  result->selected.assign(ranked.begin(), ranked.begin() + best_k);
  result->validation_error = best_error;
}

}  // namespace

std::vector<double> ScoreFilter::ScoreFeaturesFromStats(
    const SuffStats& stats, const std::vector<uint32_t>& candidates) const {
  std::vector<double> scores(candidates.size(), 0.0);
  ParallelFor(static_cast<uint32_t>(candidates.size()), [&](uint32_t idx) {
    const uint32_t j = candidates[idx];
    ContingencyTable table(stats.feature_counts[j], stats.cardinalities[j],
                           stats.num_classes);
    scores[idx] = score_ == FilterScore::kMutualInformation
                      ? MutualInformation(table)
                      : InformationGainRatio(table);
  });
  return scores;
}

std::vector<double> ScoreFilter::ScoreFeatures(
    const EncodedDataset& data, const std::vector<uint32_t>& rows,
    const std::vector<uint32_t>& candidates) const {
  // Gather labels once; shared read-only across the scoring items.
  std::vector<uint32_t> y;
  y.reserve(rows.size());
  for (uint32_t r : rows) y.push_back(data.labels()[r]);

  // Each feature's score is independent of the others, so the scan is
  // data-parallel: one slot per candidate, no cross-item state.
  std::vector<double> scores(candidates.size(), 0.0);
  ParallelFor(static_cast<uint32_t>(candidates.size()), [&](uint32_t idx) {
    const uint32_t j = candidates[idx];
    const std::vector<uint32_t>& col = data.feature(j);
    std::vector<uint32_t> f;
    f.reserve(rows.size());
    for (uint32_t r : rows) f.push_back(col[r]);
    ContingencyTable table(f, y, data.meta(j).cardinality,
                           data.num_classes());
    scores[idx] = score_ == FilterScore::kMutualInformation
                      ? MutualInformation(table)
                      : InformationGainRatio(table);
  });
  return scores;
}

Result<SelectionResult> ScoreFilter::Search(
    const DataView& view, const HoldoutSplit& split,
    const ClassifierFactory& factory, ErrorMetric metric,
    const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats) {
  HAMLET_ASSIGN_OR_RETURN(
      std::unique_ptr<CandidateScorer> scorer,
      MakeCandidateScorer(view, split.train, split.validation, factory,
                          metric, candidates, stats, force_scan_eval_));
  SelectionResult result;
  if (candidates.empty()) {
    HAMLET_ASSIGN_OR_RETURN(result.validation_error, scorer->ScoreBase({}));
    ++result.models_trained;
    FsModelsTrainedCounter().Add(1);
    return result;
  }

  std::vector<double> scores;
  {
    obs::TraceSpan span("fs.filter_score");
    span.AddAttr("candidates", static_cast<uint64_t>(candidates.size()));
    // The run's statistics hold every contingency table already. Without
    // them the materialized view gathers its columns, and the factorized
    // view, which has no columns to gather, builds the statistics here.
    // Same integer counts on every route, so the same scores.
    if (stats == nullptr && view.materialized() != nullptr) {
      scores = ScoreFeatures(*view.materialized(), split.train, candidates);
    } else {
      if (stats == nullptr) stats = BuildViewStats(view, split.train);
      scores = ScoreFeaturesFromStats(*stats, candidates);
    }
  }

  std::vector<uint32_t> ranked;
  for (uint32_t i : RankByScore(scores)) ranked.push_back(candidates[i]);

  // Tune k on validation error; the argmin runs serially in k order.
  const uint32_t num_k = static_cast<uint32_t>(ranked.size());
  obs::TraceSpan tune_span("fs.filter_tune");
  tune_span.AddAttr("prefixes", num_k);
  std::vector<double> errors;
  HAMLET_RETURN_NOT_OK(scorer->ScorePrefixes(ranked, &errors));
  result.models_trained += num_k;

  PickBestPrefix(errors, ranked, &result);
  return result;
}

}  // namespace hamlet
