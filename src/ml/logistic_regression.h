#ifndef HAMLET_ML_LOGISTIC_REGRESSION_H_
#define HAMLET_ML_LOGISTIC_REGRESSION_H_

/// \file logistic_regression.h
/// Multinomial (softmax) logistic regression over one-hot-encoded nominal
/// features, with the embedded feature selection of Section 5.3: an L1
/// penalty (solved by stochastic proximal gradient with Langford-style
/// truncated-gradient shrinkage — the standard solver family for sparse
/// one-hot data, where full-batch ISTA needs O(|D_FK|) epochs to move
/// rarely-active foreign-key dimensions) or an L2 ridge penalty applied
/// lazily to active dimensions.
///
/// Encoding follows Section 3.2's recoding: a feature F becomes
/// |D_F| − 1 indicator dimensions; the last category is the zero vector.
/// A bias term is always present, so the model's VC dimension matches
/// 1 + sum_F (|D_F| − 1) (see theory/vc_dimension.h).

#include <vector>

#include "ml/classifier.h"

namespace hamlet {

/// Which penalty the solver applies.
enum class Regularizer { kL1, kL2 };

/// Solver and penalty configuration.
struct LogisticRegressionOptions {
  Regularizer regularizer = Regularizer::kL2;
  /// Per-example penalty strength λ.
  double lambda = 1e-4;
  /// SGD passes over the training data.
  uint32_t max_epochs = 20;
  /// Initial step size; 0 picks the default 0.3 (decayed harmonically
  /// across epochs).
  double learning_rate = 0.0;
  /// Epoch-level early stop: finish when the largest bias update in an
  /// epoch falls below this.
  double tolerance = 1e-7;
};

/// The complete trained state of a LogisticRegression model, as plain
/// data — the serialization surface mirroring NaiveBayesParams. The
/// weight doubles pass through untouched so a round trip is bit-exact
/// (serve/serde.h).
struct LogisticRegressionParams {
  LogisticRegressionOptions options;
  uint32_t num_classes = 0;
  uint32_t num_dims = 0;             ///< One-hot dims without the bias.
  std::vector<uint32_t> features;    ///< Trained feature indices.
  std::vector<uint32_t> offsets;     ///< One-hot dim offset per feature.
  /// Flat [cls * (num_dims + 1) + dim]; the last dim of each class row
  /// is the bias.
  std::vector<double> weights;
};

/// Softmax regression classifier.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticRegressionOptions options = {});

  uint32_t PredictOne(const EncodedDataset& data, uint32_t row) const override;

  std::string name() const override { return "logistic_regression"; }

  /// Features whose entire coefficient group is (numerically) zero after
  /// training — the set L1 implicitly dropped. Returns trained feature
  /// indices, not positions.
  std::vector<uint32_t> ZeroedFeatures(double eps = 1e-8) const;

  /// Trained feature indices whose group has at least one non-zero
  /// coefficient (the embedded method's "selected" set).
  std::vector<uint32_t> ActiveFeatures(double eps = 1e-8) const;

  /// Total one-hot dimensionality (without bias); for tests.
  uint32_t num_dims() const { return num_dims_; }

  /// Its one-hot group width + 1: the zero-vector convention keys off
  /// the block's cardinality, so it must match the training layout.
  uint32_t trained_cardinality(size_t jj) const override;

  /// Coefficient for (class, dim); for tests.
  double weight(uint32_t cls, uint32_t dim) const;

  const std::vector<uint32_t>& trained_features() const override {
    return features_;
  }

  /// Copies the trained state out as plain data.
  LogisticRegressionParams ExportParams() const;

  /// Rebuilds a model from exported state. Returns InvalidArgument when
  /// the params are inconsistent instead of crashing — the
  /// deserialization entry point.
  static Result<LogisticRegression> FromParams(LogisticRegressionParams
                                                   params);

 protected:
  /// Trains on the materialized view; InvalidArgument on the factorized
  /// one. `stats` is unused.
  Status DoTrain(const DataView& data, const std::vector<uint32_t>& rows,
                 const std::vector<uint32_t>& features,
                 const SuffStats* stats) override;

 private:
  /// Active one-hot dims of `row` under the trained feature layout;
  /// appends dim indices to `out` (cleared first).
  void ActiveDims(const EncodedDataset& data, uint32_t row,
                  std::vector<uint32_t>* out) const;

  /// Class scores for a row.
  void Scores(const EncodedDataset& data, uint32_t row,
              std::vector<double>* scores) const;

  LogisticRegressionOptions options_;
  uint32_t num_classes_ = 0;
  uint32_t num_dims_ = 0;
  std::vector<uint32_t> features_;   // Trained feature indices.
  std::vector<uint32_t> offsets_;    // One-hot dim offset per feature.
  std::vector<double> weights_;      // [cls * (num_dims_+1) + dim]; last=bias.
};

/// Factory for the experiment drivers.
ClassifierFactory MakeLogisticRegressionFactory(
    LogisticRegressionOptions options = {});

}  // namespace hamlet

#endif  // HAMLET_ML_LOGISTIC_REGRESSION_H_
