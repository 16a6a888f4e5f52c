#include "ml/eval.h"

namespace hamlet {

std::vector<uint32_t> GatherLabels(const EncodedDataset& data,
                                   const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(data.labels()[r]);
  return out;
}

Result<ScoredModel> TrainAndScoreModel(const ClassifierFactory& factory,
                                       const EncodedDataset& data,
                                       const std::vector<uint32_t>& train_rows,
                                       const std::vector<uint32_t>& eval_rows,
                                       const std::vector<uint32_t>& features,
                                       ErrorMetric metric) {
  ScoredModel out;
  out.model = factory();
  HAMLET_RETURN_NOT_OK(out.model->Train(data, train_rows, features));
  std::vector<uint32_t> predicted = out.model->Predict(data, eval_rows);
  out.error = ComputeError(metric, GatherLabels(data, eval_rows), predicted);
  return out;
}

Result<double> CrossValidatedError(const ClassifierFactory& factory,
                                   const EncodedDataset& data,
                                   const KFoldSplit& folds,
                                   const std::vector<uint32_t>& features,
                                   ErrorMetric metric) {
  if (folds.num_folds() < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  double weighted_error = 0.0;
  uint64_t total = 0;
  for (uint32_t fold = 0; fold < folds.num_folds(); ++fold) {
    const std::vector<uint32_t>& held_out = folds.folds[fold];
    if (held_out.empty()) continue;
    std::vector<uint32_t> train = folds.TrainFor(fold);
    HAMLET_ASSIGN_OR_RETURN(
        double err,
        TrainAndScore(factory, data, train, held_out, features, metric));
    weighted_error += err * static_cast<double>(held_out.size());
    total += held_out.size();
  }
  if (total == 0) {
    return Status::InvalidArgument("all folds empty");
  }
  return weighted_error / static_cast<double>(total);
}

Result<double> TrainAndScore(const ClassifierFactory& factory,
                             const EncodedDataset& data,
                             const std::vector<uint32_t>& train_rows,
                             const std::vector<uint32_t>& eval_rows,
                             const std::vector<uint32_t>& features,
                             ErrorMetric metric) {
  HAMLET_ASSIGN_OR_RETURN(
      ScoredModel sm, TrainAndScoreModel(factory, data, train_rows, eval_rows,
                                         features, metric));
  return sm.error;
}

}  // namespace hamlet
