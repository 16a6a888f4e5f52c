#ifndef HAMLET_DATA_ENCODED_DATASET_H_
#define HAMLET_DATA_ENCODED_DATASET_H_

/// \file encoded_dataset.h
/// The learning-ready view of a table: a label vector plus column-major
/// categorical feature codes with per-feature cardinalities. Classifiers
/// and feature selection operate on (dataset, row indices, feature
/// indices) triples, so subsetting never copies the code vectors.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace hamlet {

/// Name + domain cardinality of one encoded feature.
struct FeatureMeta {
  std::string name;
  uint32_t cardinality = 0;
};

/// A dense categorical supervised dataset.
class EncodedDataset {
 public:
  EncodedDataset() = default;

  /// Builds from explicit parts. All feature columns must have the same
  /// length as `labels`, and codes must respect the cardinalities.
  EncodedDataset(std::vector<std::vector<uint32_t>> features,
                 std::vector<FeatureMeta> meta, std::vector<uint32_t> labels,
                 uint32_t num_classes);

  /// Encodes a table: the target column supplies labels; `feature_columns`
  /// supply features (order preserved). Fails if any name is missing.
  static Result<EncodedDataset> FromTable(
      const Table& table, const std::string& target_column,
      const std::vector<std::string>& feature_columns);

  /// Encodes a table using every *usable* feature: all kFeature columns
  /// plus closed-domain foreign keys. Primary keys, the target, and
  /// open-domain FKs (e.g., Expedia's SearchID) are excluded — the paper
  /// drops open-domain keys from modeling.
  static Result<EncodedDataset> FromTableAuto(const Table& table);

  /// Number of examples.
  uint32_t num_rows() const {
    return static_cast<uint32_t>(labels_.size());
  }

  /// Number of features.
  uint32_t num_features() const {
    return static_cast<uint32_t>(features_.size());
  }

  /// Number of target classes |D_Y|.
  uint32_t num_classes() const { return num_classes_; }

  /// Feature code vector j (length num_rows()).
  const std::vector<uint32_t>& feature(uint32_t j) const;

  /// Metadata of feature j.
  const FeatureMeta& meta(uint32_t j) const;

  /// All metadata.
  const std::vector<FeatureMeta>& metas() const { return meta_; }

  /// Labels (length num_rows()).
  const std::vector<uint32_t>& labels() const { return labels_; }

  /// Index of the feature named `name`, or NotFound.
  Result<uint32_t> FeatureIndexOf(const std::string& name) const;

  /// Names of the features at `indices`, in order.
  std::vector<std::string> FeatureNames(
      const std::vector<uint32_t>& indices) const;

  /// All feature indices [0, num_features()).
  std::vector<uint32_t> AllFeatureIndices() const;

  /// Materializes the row subset (features and labels gathered). Used by
  /// the simulation drivers; the FS/ML layer prefers index-based access.
  EncodedDataset GatherRows(const std::vector<uint32_t>& rows) const;

 private:
  std::vector<std::vector<uint32_t>> features_;  // Column-major codes.
  std::vector<FeatureMeta> meta_;
  std::vector<uint32_t> labels_;
  uint32_t num_classes_ = 0;
};

}  // namespace hamlet

#endif  // HAMLET_DATA_ENCODED_DATASET_H_
