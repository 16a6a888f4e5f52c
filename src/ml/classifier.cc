#include "ml/classifier.h"

#include "common/check.h"
#include "common/string_util.h"

namespace hamlet {

const char* ModelKindToString(ModelKind kind) {
  static constexpr const char* kNames[] = {
      "naive_bayes", "logistic_regression", "tan", "decision_tree", "gbt"};
  return kNames[static_cast<size_t>(kind)];
}

Status Classifier::Train(const DataView& data,
                         const std::vector<uint32_t>& rows,
                         const std::vector<uint32_t>& features,
                         const SuffStats* stats) {
  const ModelTraits t = traits();
  if (data.factorized() != nullptr && !t.reads_factorized_view &&
      !(stats != nullptr && t.stats == StatsUse::kWholeModel)) {
    return Status::InvalidArgument(StringFormat(
        "%s reads rows of the materialized join, not the factorized view",
        name().c_str()));
  }
  return DoTrain(data, rows, features, stats);
}

std::vector<uint32_t> Classifier::Predict(
    const DataView& data, const std::vector<uint32_t>& rows) const {
  const EncodedDataset& joined = MaterializedForPredict(data);
  std::vector<uint32_t> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(PredictOne(joined, r));
  return out;
}

const EncodedDataset& Classifier::MaterializedForPredict(
    const DataView& data) const {
  HAMLET_CHECK(data.materialized() != nullptr,
               "%s::Predict needs the materialized view", name().c_str());
  return *data.materialized();
}

}  // namespace hamlet
