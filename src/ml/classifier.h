#ifndef HAMLET_ML_CLASSIFIER_H_
#define HAMLET_ML_CLASSIFIER_H_

/// \file classifier.h
/// The classifier abstraction shared by feature selection, the simulation
/// study, and the end-to-end experiments. Training is expressed over
/// (data view, row subset, feature subset) so wrapper methods can
/// re-train on many subsets without copying data. The view is either the
/// materialized join or the factorized (S, R) pair (ml/data_view.h); both
/// convert implicitly, so one entry serves both, and a model that can
/// learn from the factorized view does so behind the same Train and
/// Predict as the joined table.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoded_dataset.h"
#include "ml/data_view.h"

namespace hamlet {

struct SuffStats;

/// What a model is: the serving layer's codec key (serve/serde.h) and the
/// check behind every downcast to a concrete model. ModelKindToString
/// indexes its names by value, in this order.
enum class ModelKind {
  kNaiveBayes,
  kLogisticRegression,
  kTan,
  kDecisionTree,
  kGradientBoostedTrees,
};

/// "naive_bayes" / "logistic_regression" / "tan" / "decision_tree" /
/// "gbt": every model's name().
const char* ModelKindToString(ModelKind kind);

/// What a model reads from the sufficient statistics (ml/suff_stats.h)
/// Train is handed.
enum class StatsUse {
  kNone,            ///< Nothing: it trains from the rows alone.
  kRootHistograms,  ///< Its root histograms (DecisionTree).
  kWholeModel,      ///< The whole model, on either view (NaiveBayes).
};

/// A model's description, which every consumer reads instead of casting:
/// feature selection picks its scoring backend and its statistics from
/// it, the Monte Carlo study its statistics, serde its codec.
struct ModelTraits {
  ModelKind kind;
  StatsUse stats = StatsUse::kNone;
  /// True when Train and Predict read the factorized view's codes
  /// themselves, with no statistics (DecisionTree, Gbt): such a model
  /// retrains per candidate subset without the join.
  bool reads_factorized_view = false;
};

/// A trainable multi-class classifier over categorical features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// This model's description. Each model returns its class's constant
  /// kTraits, so a consumer holding the class reads it without a model.
  virtual ModelTraits traits() const = 0;

  /// Fits the model on `data` restricted to `rows`, using only the feature
  /// indices in `features` (possibly empty: a prior-only model). `stats`
  /// is nullptr or the sufficient statistics of (data, rows)
  /// (ml/suff_stats.h); a model may read them in place of a data pass and
  /// is bit-identical either way (traits().stats). InvalidArgument on a
  /// factorized view the model cannot read: one it does not read itself
  /// (traits().reads_factorized_view), unless it is built wholly from the
  /// `stats` given. Non-virtual, so no override hides it: models
  /// implement DoTrain.
  Status Train(const DataView& data, const std::vector<uint32_t>& rows,
               const std::vector<uint32_t>& features,
               const SuffStats* stats = nullptr);

  /// Predicted class code for one row of `data` (which must share the
  /// feature layout of the training dataset).
  virtual uint32_t PredictOne(const EncodedDataset& data,
                              uint32_t row) const = 0;

  /// Predictions for many rows of `data`, equal on either view to
  /// PredictOne on the joined table at the same rows. The default loops
  /// over PredictOne, so it needs the materialized view.
  virtual std::vector<uint32_t> Predict(
      const DataView& data, const std::vector<uint32_t>& rows) const;

  /// Caps this untrained model's budget at its cheap candidate-refit
  /// budget (fs/candidate_eval.h's WithRefitBudget). A no-op for models
  /// without one; DecisionTree and Gbt cap their depth and rounds.
  virtual void CapToCandidateBudget() {}

  /// Human-readable model name, ModelKindToString(traits().kind).
  std::string name() const { return ModelKindToString(traits().kind); }

  /// Trained feature indices (empty before Train()).
  virtual const std::vector<uint32_t>& trained_features() const = 0;

  /// Code-domain size the model covers for trained feature slot `jj` —
  /// the training-time cardinality. Scoring a row whose code reaches past
  /// it reads out of bounds, so the serving layer checks block layouts
  /// against it before scoring.
  virtual uint32_t trained_cardinality(size_t jj) const = 0;

 protected:
  /// The model's training body behind Train, which has already refused
  /// a view the model cannot read.
  virtual Status DoTrain(const DataView& data,
                         const std::vector<uint32_t>& rows,
                         const std::vector<uint32_t>& features,
                         const SuffStats* stats) = 0;

  /// `data`'s joined table; a checked failure naming this model on the
  /// factorized view — the guard of predictions that read joined rows.
  const EncodedDataset& MaterializedForPredict(const DataView& data) const;
};

/// Creates fresh classifier instances; wrappers re-train one model per
/// candidate subset.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace hamlet

#endif  // HAMLET_ML_CLASSIFIER_H_
