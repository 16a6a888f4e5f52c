#ifndef HAMLET_ML_CLASSIFIER_H_
#define HAMLET_ML_CLASSIFIER_H_

/// \file classifier.h
/// The classifier abstraction shared by feature selection, the simulation
/// study, and the end-to-end experiments. Training is expressed over
/// (dataset, row subset, feature subset) so wrapper methods can re-train
/// on many subsets without copying data.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoded_dataset.h"

namespace hamlet {

/// A trainable multi-class classifier over categorical features.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model on `data` restricted to `rows`, using only the feature
  /// indices in `features` (possibly empty: a prior-only model).
  virtual Status Train(const EncodedDataset& data,
                       const std::vector<uint32_t>& rows,
                       const std::vector<uint32_t>& features) = 0;

  /// Predicted class code for one row of `data` (which must share the
  /// feature layout of the training dataset).
  virtual uint32_t PredictOne(const EncodedDataset& data,
                              uint32_t row) const = 0;

  /// Predictions for many rows; the default loops over PredictOne.
  virtual std::vector<uint32_t> Predict(
      const EncodedDataset& data, const std::vector<uint32_t>& rows) const;

  /// Human-readable model name ("naive_bayes", ...).
  virtual std::string name() const = 0;

  /// Trained feature indices (empty before Train()).
  virtual const std::vector<uint32_t>& trained_features() const = 0;

  /// Code-domain size the model covers for trained feature slot `jj` —
  /// the training-time cardinality. Scoring a row whose code reaches past
  /// it reads out of bounds, so the serving layer checks block layouts
  /// against it before scoring.
  virtual uint32_t trained_cardinality(size_t jj) const = 0;
};

/// Creates fresh classifier instances; wrappers re-train one model per
/// candidate subset.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

class FactorizedDataset;
struct SuffStats;

/// Optional capability: classifiers that can also train and predict over
/// the normalized (S, R) view (ml/factorized.h) without materializing the
/// join. The fs searches and the analytics pipeline probe a factory's
/// product for this via dynamic_cast — the same probe pattern the Naive
/// Bayes fast path uses — and route avoid-materialization runs through
/// it. Contract: with the same underlying tables, TrainFactorized must
/// produce a model bit-identical to Train on the materialized join, and
/// PredictFactorized must return the materialized Predict's output.
/// DecisionTree and Gbt meet it structurally: both of a learner's
/// entries call one training body on a DataView (ml/data_view.h), whose
/// GatherCodes is the only step where the views differ, so the body runs
/// on the same gathered codes either way.
class FactorizedTrainable {
 public:
  virtual ~FactorizedTrainable() = default;

  /// Factorized twin of Classifier::Train over the normalized view.
  /// `stats` is nullptr or the sufficient statistics of (data, rows)
  /// (ml/suff_stats.h), which a model may read in place of a data pass
  /// (DecisionTree's root histograms); the model is bit-identical either
  /// way.
  virtual Status TrainFactorized(const FactorizedDataset& data,
                                 const std::vector<uint32_t>& rows,
                                 const std::vector<uint32_t>& features,
                                 const SuffStats* stats) = 0;

  /// Predictions at `rows` of the factorized view; equal to Predict on
  /// the materialized join at the same rows.
  virtual Status PredictFactorized(const FactorizedDataset& data,
                                   const std::vector<uint32_t>& rows,
                                   std::vector<uint32_t>* out) const = 0;
};

}  // namespace hamlet

#endif  // HAMLET_ML_CLASSIFIER_H_
