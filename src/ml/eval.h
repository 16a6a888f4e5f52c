#ifndef HAMLET_ML_EVAL_H_
#define HAMLET_ML_EVAL_H_

/// \file eval.h
/// Train-and-score plumbing shared by the wrapper searches, filter-k
/// tuning, and the end-to-end experiment drivers.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "ml/classifier.h"
#include "stats/metrics.h"

namespace hamlet {

/// Trains a fresh classifier from `factory` on (`train_rows`, `features`)
/// and returns its error on `eval_rows` under `metric`.
Result<double> TrainAndScore(const ClassifierFactory& factory,
                             const EncodedDataset& data,
                             const std::vector<uint32_t>& train_rows,
                             const std::vector<uint32_t>& eval_rows,
                             const std::vector<uint32_t>& features,
                             ErrorMetric metric);

/// Trains on `train_rows` and returns the trained model plus its error on
/// `eval_rows` (used when the caller also needs predictions).
struct ScoredModel {
  std::unique_ptr<Classifier> model;
  double error = 0.0;
};
Result<ScoredModel> TrainAndScoreModel(const ClassifierFactory& factory,
                                       const EncodedDataset& data,
                                       const std::vector<uint32_t>& train_rows,
                                       const std::vector<uint32_t>& eval_rows,
                                       const std::vector<uint32_t>& features,
                                       ErrorMetric metric);

/// Gathers truth labels for rows (convenience for metric calls).
std::vector<uint32_t> GatherLabels(const EncodedDataset& data,
                                   const std::vector<uint32_t>& rows);

/// K-fold cross-validated error (Section 2.2's alternative to holdout
/// validation): trains one fresh model per fold on the out-of-fold rows
/// and averages the held-out errors, weighted by fold size.
Result<double> CrossValidatedError(const ClassifierFactory& factory,
                                   const EncodedDataset& data,
                                   const KFoldSplit& folds,
                                   const std::vector<uint32_t>& features,
                                   ErrorMetric metric);

}  // namespace hamlet

#endif  // HAMLET_ML_EVAL_H_
