#ifndef HAMLET_FS_RUNNER_H_
#define HAMLET_FS_RUNNER_H_

/// \file runner.h
/// End-to-end feature selection runs: search on train/validation, then a
/// final model on the chosen subset scored on the 25% holdout test split —
/// the protocol every number in Figures 7–9 comes from. Also times the
/// search, which is what JoinOpt's speedups are measured on: each run
/// opens an obs::RunTrace "fs.run" (nested under `pipeline` when
/// RunPipeline calls it) and reads its durations off that tree.

#include <memory>
#include <string>

#include "fs/feature_selector.h"

namespace hamlet {

/// All four of the paper's explicit feature selection methods.
enum class FsMethod {
  kForwardSelection,
  kBackwardSelection,
  kMiFilter,
  kIgrFilter,
};

/// Display name ("Forward Selection", ...).
const char* FsMethodToString(FsMethod method);

/// Constructs the selector for a method. `num_threads` is the width of
/// its runs (FeatureSelector::set_num_threads; 0 inherits the caller's);
/// every setting produces bit-for-bit identical selections.
/// `force_scan_eval` disables the
/// sufficient-statistics fast path (full retrain per candidate) — the
/// escape hatch behind PipelineConfig::force_scan_eval.
std::unique_ptr<FeatureSelector> MakeSelector(FsMethod method,
                                              uint32_t num_threads = 0,
                                              bool force_scan_eval = false);

/// All methods in paper order (Figure 7 columns).
std::vector<FsMethod> AllFsMethods();

/// Everything one feature selection run produces. The three runtime
/// fields are read off the run's own span tree (obs::RunTrace
/// "fs.run"): `runtime_seconds` is the `fs.search` span (what Figure
/// 7B's speedups are measured on), `fit_seconds` the `fs.final_fit` span
/// (final fit + holdout scoring), and `total_seconds` the `fs.run` root
/// that holds both — so runtime_seconds + fit_seconds <= total_seconds.
struct FsRunReport {
  std::string method;
  SelectionResult selection;
  std::vector<std::string> selected_names;  ///< Human-readable subset.
  double holdout_test_error = 0.0;
  double runtime_seconds = 0.0;  ///< The fs.search span.
  double fit_seconds = 0.0;      ///< The fs.final_fit span.
  double total_seconds = 0.0;    ///< The fs.run span.
};

/// Runs `selector` over `candidates`, then fits the chosen subset on
/// `split.train` and reports the error on `split.test`, on either view
/// (ml/data_view.h). The final model trains and scores through the same
/// candidate scorer as the search (fs/candidate_eval.h), so on the
/// factorized (S, R) view no joined table is materialized, not even for
/// the holdout scoring: Naive Bayes trains from the view's statistics,
/// decision trees and GBT train and predict through the FK hops, and
/// anything else is InvalidArgument. Reports carry the same fields and
/// stage names on both views, and every number except the timings is
/// bit-identical.
Result<FsRunReport> RunFeatureSelection(
    FeatureSelector& selector, const DataView& view,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates);

/// RunFeatureSelection on the factorized view: a forward kept for
/// callers that name it.
Result<FsRunReport> RunFeatureSelectionFactorized(
    FeatureSelector& selector, const FactorizedDataset& data,
    const HoldoutSplit& split, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates);

}  // namespace hamlet

#endif  // HAMLET_FS_RUNNER_H_
