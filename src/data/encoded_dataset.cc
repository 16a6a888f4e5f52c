#include "data/encoded_dataset.h"

#include "common/check.h"
#include "common/string_util.h"

namespace hamlet {

EncodedDataset::EncodedDataset(std::vector<std::vector<uint32_t>> features,
                               std::vector<FeatureMeta> meta,
                               std::vector<uint32_t> labels,
                               uint32_t num_classes)
    : features_(std::move(features)),
      meta_(std::move(meta)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  HAMLET_CHECK(features_.size() == meta_.size(),
               "feature/meta count mismatch: %zu vs %zu", features_.size(),
               meta_.size());
  for (size_t j = 0; j < features_.size(); ++j) {
    HAMLET_CHECK(features_[j].size() == labels_.size(),
                 "feature %zu has %zu rows, labels have %zu", j,
                 features_[j].size(), labels_.size());
  }
  HAMLET_CHECK(num_classes_ >= 1, "dataset needs at least one class");
}

Result<EncodedDataset> EncodedDataset::FromTable(
    const Table& table, const std::string& target_column,
    const std::vector<std::string>& feature_columns) {
  HAMLET_ASSIGN_OR_RETURN(const Column* y, table.ColumnByName(target_column));
  std::vector<std::vector<uint32_t>> features;
  std::vector<FeatureMeta> meta;
  features.reserve(feature_columns.size());
  meta.reserve(feature_columns.size());
  for (const auto& name : feature_columns) {
    HAMLET_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name));
    features.push_back(col->codes());
    meta.push_back(FeatureMeta{name, col->domain_size()});
  }
  return EncodedDataset(std::move(features), std::move(meta), y->codes(),
                        y->domain_size());
}

Result<EncodedDataset> EncodedDataset::FromTableAuto(const Table& table) {
  HAMLET_ASSIGN_OR_RETURN(uint32_t target_idx, table.schema().TargetIndex());
  std::vector<std::string> feature_columns;
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    const ColumnSpec& spec = table.schema().column(c);
    switch (spec.role) {
      case ColumnRole::kFeature:
        feature_columns.push_back(spec.name);
        break;
      case ColumnRole::kForeignKey:
        if (spec.closed_domain) feature_columns.push_back(spec.name);
        break;
      case ColumnRole::kPrimaryKey:
      case ColumnRole::kTarget:
        break;
    }
  }
  return FromTable(table, table.schema().column(target_idx).name,
                   feature_columns);
}

const std::vector<uint32_t>& EncodedDataset::feature(uint32_t j) const {
  HAMLET_CHECK(j < num_features(), "feature index %u out of range %u", j,
               num_features());
  return features_[j];
}

const FeatureMeta& EncodedDataset::meta(uint32_t j) const {
  HAMLET_CHECK(j < num_features(), "feature index %u out of range %u", j,
               num_features());
  return meta_[j];
}

Result<uint32_t> EncodedDataset::FeatureIndexOf(
    const std::string& name) const {
  for (uint32_t j = 0; j < num_features(); ++j) {
    if (meta_[j].name == name) return j;
  }
  return Status::NotFound(
      StringFormat("no feature named '%s'", name.c_str()));
}

std::vector<std::string> EncodedDataset::FeatureNames(
    const std::vector<uint32_t>& indices) const {
  std::vector<std::string> out;
  out.reserve(indices.size());
  for (uint32_t j : indices) out.push_back(meta(j).name);
  return out;
}

std::vector<uint32_t> EncodedDataset::AllFeatureIndices() const {
  std::vector<uint32_t> out(num_features());
  for (uint32_t j = 0; j < num_features(); ++j) out[j] = j;
  return out;
}

EncodedDataset EncodedDataset::GatherRows(
    const std::vector<uint32_t>& rows) const {
  std::vector<std::vector<uint32_t>> features(num_features());
  for (uint32_t j = 0; j < num_features(); ++j) {
    features[j].reserve(rows.size());
    for (uint32_t r : rows) {
      HAMLET_DCHECK(r < num_rows(), "row %u out of range %u", r, num_rows());
      features[j].push_back(features_[j][r]);
    }
  }
  std::vector<uint32_t> labels;
  labels.reserve(rows.size());
  for (uint32_t r : rows) labels.push_back(labels_[r]);
  return EncodedDataset(std::move(features), meta_, std::move(labels),
                        num_classes_);
}

}  // namespace hamlet
