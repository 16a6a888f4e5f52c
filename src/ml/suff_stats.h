#ifndef HAMLET_ML_SUFF_STATS_H_
#define HAMLET_ML_SUFF_STATS_H_

/// \file suff_stats.h
/// Sufficient statistics for categorical Naive Bayes and the filter
/// scores, factored out of the per-model training loop. One parallel pass
/// over a (dataset, row subset) pair computes the class counts and every
/// per-(feature, value, class) contingency count; after that, training a
/// Naive Bayes model on *any* feature subset — and scoring MI/IGR for any
/// feature — is pure table lookups with zero data scans. This is the
/// factorized-learning observation (Abo Khamis et al.; JoinBoost) applied
/// to the paper's wrapper searches, which train O(d^2) models that all
/// share one train split.
///
/// Determinism contract: counts are integers, so the parallel build is
/// bit-for-bit identical at any thread count, and every model or score
/// derived from the statistics equals its scan-path twin exactly (same
/// counts, same floating-point expressions). Building them can therefore
/// never change a result — only how fast it is computed.
///
/// The statistics are a value: a feature-selection run builds them once
/// for its train split, only when a consumer reads them
/// (fs/candidate_eval.h's StatsForScorer), and hands the pointer to each
/// consumer — the Naive Bayes scorer and final fit, the MI/IGR filter
/// scores, and the factorized decision tree's root histograms.
///
/// NbSubsetEvaluator adds the second half of the fast path: it keeps
/// per-row, per-class base log-scores of the current subset on an
/// evaluation split, so scoring candidate S ∪ {f} is one O(rows × classes)
/// delta pass over feature f's log-likelihood column (see
/// docs/PERFORMANCE.md for the summation-order invariants). It gathers
/// its evaluation codes once, through the one seam between the views
/// (DataView::GatherCodes, ml/data_view.h), so one constructor serves the
/// joined table and the factorized view with the same codes.

#include <cstdint>
#include <memory>
#include <vector>

#include "data/encoded_dataset.h"
#include "ml/data_view.h"
#include "stats/metrics.h"

namespace hamlet {

/// Class counts plus per-feature contingency counts of one (dataset, row
/// subset) pair. Feature j's counts are stored flat as
/// [code * num_classes + y], the same layout NaiveBayes and
/// ContingencyTable use.
struct SuffStats {
  uint32_t num_classes = 0;
  uint64_t num_rows = 0;                    ///< |rows| the counts cover.
  std::vector<uint64_t> class_counts;       ///< [y], num_rows total.
  std::vector<uint32_t> cardinalities;      ///< Per feature |D_F|.
  /// Per feature: flat [code * num_classes + y] joint counts.
  std::vector<std::vector<uint64_t>> feature_counts;
};

/// One pass over `rows` of `data`: class counts serially (O(rows)), then
/// per-feature count tables in parallel (one feature per work item), so
/// the result is identical at any width.
SuffStats BuildSuffStats(const EncodedDataset& data,
                         const std::vector<uint32_t>& rows);

/// Incremental Naive Bayes subset scorer over a fixed evaluation split.
///
/// Construction derives, from the sufficient statistics, the smoothed log
/// priors and one log-likelihood table per candidate feature — the exact
/// doubles NaiveBayes::Train would produce. Scoring then never touches
/// the training rows again:
///
///   - EvalSubset(S): per evaluation row, sum the priors and the tables of
///     S *in subset order* (the invariant that makes results bit-identical
///     to the scan path, which also sums in subset order);
///   - ResetBase/AddToBase/RemoveFromBase maintain per-row base scores of
///     the current subset;
///   - EvalBasePlus(f) / EvalBaseMinus(f) score S ∪ {f} / S \ {f} with a
///     single delta pass, O(eval_rows × classes).
///
/// Const Eval* methods are safe to call concurrently (they share only
/// read-only state plus thread-local scratch); the base mutators are not.
class NbSubsetEvaluator {
 public:
  /// `candidates` limits which features get log-likelihood tables (and
  /// thus may appear in Eval calls). `alpha` is the NB Laplace smoothing
  /// pseudo-count and must match the factory's. Aborts unless `stats` fit
  /// `view`: the class count and the feature count match, and every
  /// candidate has the view's cardinality, so statistics built for other
  /// data can never index past a table. Each candidate's codes at
  /// `eval_rows` are gathered once, through the view
  /// (DataView::GatherCodes), so the hot loops read the same codes on the
  /// materialized and the factorized view.
  NbSubsetEvaluator(const DataView& view,
                    std::shared_ptr<const SuffStats> stats,
                    const std::vector<uint32_t>& eval_rows,
                    ErrorMetric metric, double alpha,
                    const std::vector<uint32_t>& candidates);

  /// Error of an arbitrary subset (features summed in the given order).
  double EvalSubset(const std::vector<uint32_t>& features) const;

  /// Recomputes the base scores for `features` from scratch (in order).
  void ResetBase(const std::vector<uint32_t>& features);

  /// base += / -= feature f's log-likelihood column.
  void AddToBase(uint32_t feature);
  void RemoveFromBase(uint32_t feature);

  /// Error of the current base subset.
  double EvalBase() const;

  /// Error of base ∪ {f}: one delta pass, f's contribution summed last —
  /// exactly the scan path's order for forward selection.
  double EvalBasePlus(uint32_t feature) const;

  /// Error of base \ {f} via subtraction. The subtraction re-associates
  /// the floating-point sum, so this matches a scan-path retrain to ~1e-15
  /// per score (not bit-exactly); see docs/PERFORMANCE.md.
  double EvalBaseMinus(uint32_t feature) const;

  /// DFS building blocks for the exhaustive lattice walk: `out` holds
  /// per-row, per-class scores flat as [i * num_classes + c].
  void InitScores(std::vector<double>* out) const;  ///< Priors per row.
  void AccumulateFeature(uint32_t feature, const std::vector<double>& in,
                         std::vector<double>* out) const;  ///< out = in + ll_f.
  double ErrorFromScores(const std::vector<double>& scores) const;

  uint32_t num_eval_rows() const {
    return static_cast<uint32_t>(eval_labels_.size());
  }
  uint32_t num_classes() const { return num_classes_; }

  /// Exposed for the equivalence tests.
  const std::vector<double>& log_priors() const { return log_priors_; }
  const std::vector<double>& feature_log_likelihood(uint32_t feature) const {
    return log_likelihoods_[feature];
  }

 private:
  double ErrorOf(const std::vector<uint32_t>& predicted) const;

  std::shared_ptr<const SuffStats> stats_;
  std::vector<uint32_t> eval_labels_;
  ErrorMetric metric_;
  uint32_t num_classes_ = 0;
  std::vector<double> log_priors_;  // [c]
  /// Indexed by feature id; empty unless the feature was a candidate.
  std::vector<std::vector<double>> log_likelihoods_;
  /// Per candidate feature: its codes at the evaluation rows (same
  /// indexing as log_likelihoods_), gathered through the view once, so
  /// the hot loops read codes sequentially on either view.
  std::vector<std::vector<uint32_t>> eval_codes_;
  /// Current base subset scores, flat [i * num_classes + c].
  std::vector<double> base_;
};

}  // namespace hamlet

#endif  // HAMLET_ML_SUFF_STATS_H_
