#ifndef HAMLET_FS_CANDIDATE_EVAL_H_
#define HAMLET_FS_CANDIDATE_EVAL_H_

/// \file candidate_eval.h
/// The candidate-scoring seam under every feature-selection search.
/// Forward, backward, exhaustive and filter selection are each written
/// once, against CandidateScorer; MakeCandidateScorer builds the scorer
/// for a (factory, data view, force_scan_eval) triple. Three backends
/// exist:
///
///   - kNbDelta: Naive Bayes scored by NbSubsetEvaluator from sufficient
///     statistics, on either view (the factorized statistics never
///     materialize the join);
///   - kScan: a fresh model per subset, on the materialized view;
///   - kFactorizedScan: a fresh model per subset on the factorized view,
///     for the classifiers that read it (ModelTraits::reads_factorized_view:
///     decision_tree, gbt), trained and scored through the FK hops.
///
/// The two scans are one retrain: factory, then Classifier::Train on the
/// view with the run's statistics, then Predict on the view, then
/// ComputeError. They differ only in the view they are handed, and keep
/// two names because the span attributes and docs report which view ran.
///
/// Every backend records `fs.models_trained` and `fs.candidate_eval_ns`
/// the same way (kNbDelta adds `fs.delta_evals`), writes each candidate's
/// error to its own slot, and leaves the reduction over the slots to the
/// search, which runs it serially in index order. That is what keeps
/// selections bit-for-bit identical across thread counts and views.
///
/// The sufficient statistics of a run's train split are a value the run
/// passes: StatsForScorer builds them once, only when the scorer reads
/// them, and the runner hands the same pointer to the search and to the
/// final fit.

#include <memory>
#include <vector>

#include "common/result.h"
#include "fs/feature_selector.h"
#include "ml/classifier.h"
#include "obs/metrics.h"
#include "stats/metrics.h"

namespace hamlet {

struct SuffStats;

/// Candidate models trained (or delta-evaluated) by the searches.
obs::Counter& FsModelsTrainedCounter();

/// Wall time per candidate evaluation, scan and fast path alike.
obs::Histogram& FsCandidateEvalHistogram();

/// Candidate evaluations served by an incremental delta pass instead of a
/// full retrain.
obs::Counter& FsDeltaEvalsCounter();

/// How a search's candidate subsets are scored.
enum class ScoringBackend {
  kNbDelta,         ///< NbSubsetEvaluator over sufficient statistics.
  kScan,            ///< Retrain per subset on the materialized view.
  kFactorizedScan,  ///< Retrain per subset on the factorized view.
};

/// Span-attribute form of a backend: "nb_delta", "scan" or
/// "factorized_scan".
const char* ScoringBackendName(ScoringBackend backend);

/// The one backend decision, read from `model.traits()`. A model built
/// wholly from statistics (StatsUse::kWholeModel: Naive Bayes) takes
/// kNbDelta unless `force_scan_eval` is set. Beyond that, the
/// materialized view retrains any classifier (kScan) and the factorized
/// view retrains the ones that read it, reads_factorized_view
/// (kFactorizedScan).
/// Every other factorized combination — logistic regression, TAN, or
/// Naive Bayes with the statistics path off — is InvalidArgument, since
/// no scan exists without the materialized join.
Result<ScoringBackend> ChooseScoringBackend(const Classifier& model,
                                            bool factorized_view,
                                            bool force_scan_eval);

/// Scores feature subsets: models train on one row set and are scored on
/// another. Batch calls run their candidates in parallel, at the width
/// of the enclosing run (common/thread_pool.h), and write `errors[i]`
/// for candidate i; the caller reduces serially. A scorer
/// keeps a base subset that ScoreAdditions/ScoreRemovals are relative to.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;

  /// Makes `base` the current subset and returns its error (one model,
  /// features in the given order). Records no `fs.*` counter; the caller
  /// decides whether the model counts as a search candidate.
  virtual Result<double> ScoreBase(const std::vector<uint32_t>& base) = 0;

  /// Appends `feature` to / removes it from the base.
  virtual void AddToBase(uint32_t feature) = 0;
  virtual void RemoveFromBase(uint32_t feature) = 0;

  /// errors[i] = error of base ∪ {adds[i]}, adds[i] last.
  virtual Status ScoreAdditions(const std::vector<uint32_t>& adds,
                                std::vector<double>* errors) = 0;

  /// errors[i] = error of base \ {drops[i]}, the rest in base order.
  virtual Status ScoreRemovals(const std::vector<uint32_t>& drops,
                               std::vector<double>* errors) = 0;

  /// errors[k] = error of the prefix ranked[0..k]. Leaves the base
  /// unspecified.
  virtual Status ScorePrefixes(const std::vector<uint32_t>& ranked,
                               std::vector<double>* errors) = 0;

  /// errors[mask] = error of {candidates[j] : bit j of mask set}, features
  /// in ascending bit order, for every mask in [0, 2^|candidates|).
  virtual Status ScoreLattice(const std::vector<uint32_t>& candidates,
                              std::vector<double>* errors) = 0;
};

/// The one statistics build: BuildSuffStats over the materialized join
/// or BuildFactorizedSuffStats over the factorized view, of `rows`,
/// recorded as one `fs.stats_build` span.
std::shared_ptr<const SuffStats> BuildViewStats(
    const DataView& view, const std::vector<uint32_t>& rows);

/// The statistics of `train_rows` that a scorer for `factory`'s product
/// over `view` reads, built once by BuildViewStats, or nullptr when it
/// reads none. kNbDelta reads them, and so does a model that reads its
/// root histograms (StatsUse::kRootHistograms: a decision tree) on
/// kFactorizedScan unless `force_scan_eval`. GBT, every materialized
/// scan, and a combination ChooseScoringBackend rejects read none.
std::shared_ptr<const SuffStats> StatsForScorer(
    const DataView& view, const std::vector<uint32_t>& train_rows,
    const ClassifierFactory& factory, bool force_scan_eval);

/// `factory` with the cheap per-candidate refit budget
/// (Classifier::CapToCandidateBudget): its decision trees grow at most
/// `candidate_max_depth` deep, and its GBT ensembles at most
/// `candidate_rounds` rounds of `candidate_max_depth`. Every other
/// classifier is unchanged. The forward and backward searches
/// score candidates through it, so the O(d^2) wrapper retrains stay
/// cheap; the budget belongs to those models alone, and the final fit,
/// or any other training in the process, keeps the full options.
ClassifierFactory WithRefitBudget(ClassifierFactory factory);

/// Builds the scorer ChooseScoringBackend picks for `factory`'s product
/// over `view`: models train on `train_rows` and are scored on
/// `eval_rows` under `metric`. `candidates` lists every feature the
/// scorer may be asked about. `stats` are StatsForScorer's statistics of
/// `train_rows`: kNbDelta scores from them (and builds them when given
/// nullptr), and both scans hand them to every retrain's Train, so a
/// decision tree seeds its root histograms from them. InvalidArgument on
/// an empty `train_rows` or when no backend serves the combination.
Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const DataView& view, const std::vector<uint32_t>& train_rows,
    const std::vector<uint32_t>& eval_rows, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats, bool force_scan_eval);

}  // namespace hamlet

#endif  // HAMLET_FS_CANDIDATE_EVAL_H_
