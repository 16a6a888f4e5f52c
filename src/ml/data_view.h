#ifndef HAMLET_ML_DATA_VIEW_H_
#define HAMLET_ML_DATA_VIEW_H_

/// \file data_view.h
/// The one seam between the two views a model can learn from: the
/// materialized join (an EncodedDataset) and the factorized (S, R) view
/// (ml/factorized.h), which answers the join without building it.
///
/// Feature indices, labels and rows mean the same in both, since the
/// factorized feature space equals FromTableAuto on the joined table. The
/// views differ in one decision only: how feature j's codes are gathered
/// at a set of rows (GatherCodes). Every consumer above it — the tree
/// learners' training and prediction preludes, NbSubsetEvaluator, the
/// candidate scorers — is written once against this class, so training on
/// either view runs the same body on the same gathered codes.
///
/// Classifier::Train and Classifier::Predict take a DataView, and both
/// constructors are implicit (a view type, like std::string_view), so a
/// call with either dataset reaches the one entry. A view holds two
/// pointers and owns nothing: whatever keeps one past a call (a candidate
/// scorer does, beside the row lists it also borrows) must not outlive
/// the dataset.

#include <cstdint>
#include <string>
#include <vector>

#include "data/encoded_dataset.h"

namespace hamlet {

class FactorizedDataset;

/// A non-owning view of the data a model trains or is scored on.
class DataView {
 public:
  DataView(const EncodedDataset& data) : materialized_(&data) {}  // NOLINT
  DataView(const FactorizedDataset& data)                          // NOLINT
      : factorized_(&data) {}

  /// Exactly one of these is non-null.
  const EncodedDataset* materialized() const { return materialized_; }
  const FactorizedDataset* factorized() const { return factorized_; }

  uint32_t num_rows() const;
  uint32_t num_features() const;
  uint32_t num_classes() const;
  const std::vector<uint32_t>& labels() const;
  const FeatureMeta& meta(uint32_t j) const;
  const std::vector<FeatureMeta>& metas() const;
  std::vector<std::string> FeatureNames(
      const std::vector<uint32_t>& indices) const;

  /// Codes of feature j at `rows`, in row order, into `*out` (resized):
  /// a plain column read on the materialized view, one S.FK -> R hop per
  /// row on the factorized one (FactorizedDataset::GatherCodes). Either
  /// way the output equals the joined column gathered at `rows`.
  void GatherCodes(uint32_t j, const std::vector<uint32_t>& rows,
                   std::vector<uint32_t>* out) const;

 private:
  const EncodedDataset* materialized_ = nullptr;
  const FactorizedDataset* factorized_ = nullptr;
};

}  // namespace hamlet

#endif  // HAMLET_ML_DATA_VIEW_H_
