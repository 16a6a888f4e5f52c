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

/// A trainable multi-class classifier over categorical features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model on `data` restricted to `rows`, using only the feature
  /// indices in `features` (possibly empty: a prior-only model). `stats`
  /// is nullptr or the sufficient statistics of (data, rows)
  /// (ml/suff_stats.h); a model may read them in place of a data pass and
  /// is bit-identical either way (DecisionTree's root histograms, Naive
  /// Bayes' whole model). InvalidArgument on a factorized view the model
  /// cannot read. Non-virtual, so no override hides it: models implement
  /// DoTrain.
  Status Train(const DataView& data, const std::vector<uint32_t>& rows,
               const std::vector<uint32_t>& features,
               const SuffStats* stats = nullptr) {
    return DoTrain(data, rows, features, stats);
  }

  /// Predicted class code for one row of `data` (which must share the
  /// feature layout of the training dataset).
  virtual uint32_t PredictOne(const EncodedDataset& data,
                              uint32_t row) const = 0;

  /// Predictions for many rows of `data`, equal on either view to
  /// PredictOne on the joined table at the same rows. The default loops
  /// over PredictOne, so it needs the materialized view.
  virtual std::vector<uint32_t> Predict(
      const DataView& data, const std::vector<uint32_t>& rows) const;

  /// True when Train and Predict read the factorized view's codes
  /// themselves, with no statistics (DecisionTree, Gbt): such a model
  /// retrains per candidate subset without the join. ChooseScoringBackend
  /// (fs/candidate_eval.h) is its one reader.
  virtual bool ReadsFactorizedView() const { return false; }

  /// Human-readable model name ("naive_bayes", ...).
  virtual std::string name() const = 0;

  /// Trained feature indices (empty before Train()).
  virtual const std::vector<uint32_t>& trained_features() const = 0;

  /// Code-domain size the model covers for trained feature slot `jj` —
  /// the training-time cardinality. Scoring a row whose code reaches past
  /// it reads out of bounds, so the serving layer checks block layouts
  /// against it before scoring.
  virtual uint32_t trained_cardinality(size_t jj) const = 0;

 protected:
  /// The model's training body behind Train.
  virtual Status DoTrain(const DataView& data,
                         const std::vector<uint32_t>& rows,
                         const std::vector<uint32_t>& features,
                         const SuffStats* stats) = 0;

  /// OK on the materialized view; InvalidArgument naming this model on
  /// the factorized one — the guard of models that read joined rows only.
  Status RequireMaterialized(const DataView& data) const;

  /// `data`'s joined table; a checked failure naming this model on the
  /// factorized view — the guard of predictions that read joined rows.
  const EncodedDataset& MaterializedForPredict(const DataView& data) const;
};

/// Creates fresh classifier instances; wrappers re-train one model per
/// candidate subset.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace hamlet

#endif  // HAMLET_ML_CLASSIFIER_H_
