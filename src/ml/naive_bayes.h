#ifndef HAMLET_ML_NAIVE_BAYES_H_
#define HAMLET_ML_NAIVE_BAYES_H_

/// \file naive_bayes.h
/// Categorical Naive Bayes with Laplace smoothing — the paper's primary
/// classifier (Sections 4–5). Smoothing implements the standard handling
/// of RID values absent from a given training sample (footnote 2).

#include <vector>

#include "ml/classifier.h"

namespace hamlet {

struct SuffStats;

/// The complete trained state of a NaiveBayes model, as plain data. This
/// is the serialization surface: ExportParams() captures a model,
/// NaiveBayes::FromParams() validates and restores one, and the doubles
/// pass through untouched so a round trip is bit-exact (serve/serde.h).
struct NaiveBayesParams {
  double alpha = 1.0;
  uint32_t num_classes = 0;
  std::vector<uint32_t> features;    ///< Trained feature indices.
  std::vector<double> log_priors;    ///< [y], num_classes entries.
  /// Per trained feature: flat [code * num_classes + y] log-likelihoods.
  std::vector<std::vector<double>> log_likelihoods;
};

/// Multinomial/categorical Naive Bayes:
///   predict argmax_y log P(y) + sum_j log P(x_j | y)
/// with all probabilities Laplace-smoothed by `alpha`.
class NaiveBayes : public Classifier {
 public:
  /// `alpha` is the Laplace smoothing pseudo-count (> 0).
  explicit NaiveBayes(double alpha = 1.0);

  /// Trains from precomputed sufficient statistics: zero data scans. Uses
  /// the exact floating-point expressions of the scan path on the exact
  /// same integer counts, so the resulting model is bit-identical. Train
  /// with `stats` comes here, on either view; Train without them scans
  /// the materialized view once, counting the trained features' tables,
  /// and hands those to it, so both give the same bits. The factorized
  /// view without statistics is InvalidArgument.
  Status TrainFromStats(const SuffStats& stats,
                        const std::vector<uint32_t>& features);

  uint32_t PredictOne(const EncodedDataset& data, uint32_t row) const override;

  std::vector<uint32_t> Predict(
      const DataView& data,
      const std::vector<uint32_t>& rows) const override;

  std::string name() const override { return "naive_bayes"; }

  /// Posterior class log-scores for one row (unnormalized); exposed for
  /// tests and the bias-variance machinery.
  std::vector<double> LogScores(const EncodedDataset& data,
                                uint32_t row) const;

  /// Allocation-free variant: writes the log-scores into `*out` (resized
  /// to num_classes). Callers scoring many rows reuse one buffer.
  void LogScoresInto(const EncodedDataset& data, uint32_t row,
                     std::vector<double>* out) const;

  /// Normalized posterior P(y | x) for one row (softmax of LogScores).
  std::vector<double> PredictProbabilities(const EncodedDataset& data,
                                           uint32_t row) const;

  /// The smoothed log prior vector (for tests).
  const std::vector<double>& log_priors() const { return log_priors_; }

  /// The Laplace smoothing pseudo-count this model was built with.
  double alpha() const { return alpha_; }

  /// Number of classes seen at training time (0 before Train()).
  uint32_t num_classes() const { return num_classes_; }

  uint32_t trained_cardinality(size_t jj) const override;
  const std::vector<uint32_t>& trained_features() const override {
    return features_;
  }

  /// Copies the trained state out as plain data (see NaiveBayesParams).
  NaiveBayesParams ExportParams() const;

  /// Rebuilds a model from exported state. Returns InvalidArgument when
  /// the params are inconsistent (size mismatches, alpha <= 0, zero
  /// classes) instead of crashing — the deserialization entry point.
  static Result<NaiveBayes> FromParams(NaiveBayesParams params);

 protected:
  Status DoTrain(const DataView& data, const std::vector<uint32_t>& rows,
                 const std::vector<uint32_t>& features,
                 const SuffStats* stats) override;

 private:
  double alpha_;
  uint32_t num_classes_ = 0;
  std::vector<uint32_t> features_;       // Trained feature indices.
  std::vector<double> log_priors_;       // [y]
  // Per trained feature: flat [code * num_classes + y] log-likelihoods.
  std::vector<std::vector<double>> log_likelihoods_;
};

/// Factory for wrappers.
ClassifierFactory MakeNaiveBayesFactory(double alpha = 1.0);

}  // namespace hamlet

#endif  // HAMLET_ML_NAIVE_BAYES_H_
