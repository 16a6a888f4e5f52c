#ifndef HAMLET_FS_FEATURE_SELECTOR_H_
#define HAMLET_FS_FEATURE_SELECTOR_H_

/// \file feature_selector.h
/// The feature selection abstraction of Section 2.2. Wrappers (sequential
/// greedy search) and filters (per-feature scoring + tuned top-k) share
/// this interface; embedded methods live inside LogisticRegression.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "ml/classifier.h"
#include "ml/data_view.h"
#include "stats/metrics.h"

namespace hamlet {

struct SuffStats;

/// Outcome of a feature selection run.
struct SelectionResult {
  /// Chosen feature indices (into the EncodedDataset), in selection order
  /// for wrappers / score order for filters.
  std::vector<uint32_t> selected;
  /// Validation error of the chosen subset.
  double validation_error = 0.0;
  /// Number of candidate models trained during the search (the unit the
  /// runtime savings of join avoidance multiply).
  uint64_t models_trained = 0;
};

/// Searches the subset lattice of `candidates` for an accurate subset.
class FeatureSelector {
 public:
  virtual ~FeatureSelector() = default;

  /// Runs the search: models train on `split.train` and are compared on
  /// `split.validation` under `metric`. Each selector writes this once;
  /// it scores candidates through MakeCandidateScorer
  /// (fs/candidate_eval.h), which picks the backend for the view and
  /// factory and rejects the combinations no backend serves. `stats` are
  /// the sufficient statistics of `split.train` that StatsForScorer
  /// built for this run (nullptr when its scorer reads none); the search
  /// reads them and never builds a second copy its scorer could share.
  virtual Result<SelectionResult> Search(
      const DataView& view, const HoldoutSplit& split,
      const ClassifierFactory& factory, ErrorMetric metric,
      const std::vector<uint32_t>& candidates,
      std::shared_ptr<const SuffStats> stats) = 0;

  /// Search over either view (ml/data_view.h), with the statistics its
  /// scorer reads built first (StatsForScorer), at this selector's width.
  /// On the factorized (S, R) view the join is never materialized: Naive
  /// Bayes scores from the view's sufficient statistics, and classifiers
  /// that read the view (decision_tree, gbt) retrain through the FK hops.
  /// Any other factory there, and Naive Bayes with the
  /// sufficient-statistics path off, is InvalidArgument. Selections,
  /// errors, and tie-breaks are bit-for-bit identical on both views at
  /// any thread count.
  Result<SelectionResult> Select(const DataView& view,
                                 const HoldoutSplit& split,
                                 const ClassifierFactory& factory,
                                 ErrorMetric metric,
                                 const std::vector<uint32_t>& candidates);

  /// Method name ("forward_selection", "mi_filter", ...).
  virtual std::string name() const = 0;

  /// The parallel width of this selector's runs (common/thread_pool.h):
  /// Select and the runner's search and final fit run under OpenWidth,
  /// so every loop they reach — candidate scoring, statistics builds,
  /// each model's own training — shards this many ways (1 = serial). 0
  /// inherits the caller's width, or every hardware thread at top level.
  /// Every setting yields bit-for-bit identical selections: candidate
  /// scores are written to per-index slots and the per-step winner is
  /// chosen by a serial index-ordered reduction, so ties break by index —
  /// never by completion order.
  void set_num_threads(uint32_t num_threads) { num_threads_ = num_threads; }

  /// The one place this selector's width is opened: a ScopedWidth of
  /// set_num_threads' value, held for the run it brackets.
  ScopedWidth OpenWidth() const { return ScopedWidth(num_threads_); }

  /// Forces the original scan-based evaluation (full model retrain per
  /// candidate) even when a sufficient-statistics fast path is available.
  /// Escape hatch surfaced as PipelineConfig::force_scan_eval; it moves
  /// this selector's runs only. The fast path selects identical subsets,
  /// so this only trades speed.
  void set_force_scan_eval(bool force) { force_scan_eval_ = force; }
  bool force_scan_eval() const { return force_scan_eval_; }

 protected:
  bool force_scan_eval_ = false;

 private:
  uint32_t num_threads_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_FS_FEATURE_SELECTOR_H_
