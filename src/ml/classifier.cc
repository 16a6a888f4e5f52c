#include "ml/classifier.h"

#include "common/check.h"
#include "common/string_util.h"

namespace hamlet {

std::vector<uint32_t> Classifier::Predict(
    const DataView& data, const std::vector<uint32_t>& rows) const {
  const EncodedDataset& joined = MaterializedForPredict(data);
  std::vector<uint32_t> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(PredictOne(joined, r));
  return out;
}

Status Classifier::RequireMaterialized(const DataView& data) const {
  if (data.materialized() != nullptr) return Status::OK();
  return Status::InvalidArgument(StringFormat(
      "%s reads rows of the materialized join, not the factorized view",
      name().c_str()));
}

const EncodedDataset& Classifier::MaterializedForPredict(
    const DataView& data) const {
  HAMLET_CHECK(data.materialized() != nullptr,
               "%s::Predict needs the materialized view", name().c_str());
  return *data.materialized();
}

}  // namespace hamlet
