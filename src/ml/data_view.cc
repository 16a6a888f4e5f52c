#include "ml/data_view.h"

#include "ml/factorized.h"

namespace hamlet {

uint32_t DataView::num_rows() const {
  return materialized_ != nullptr ? materialized_->num_rows()
                                  : factorized_->num_rows();
}

uint32_t DataView::num_features() const {
  return materialized_ != nullptr ? materialized_->num_features()
                                  : factorized_->num_features();
}

uint32_t DataView::num_classes() const {
  return materialized_ != nullptr ? materialized_->num_classes()
                                  : factorized_->num_classes();
}

const std::vector<uint32_t>& DataView::labels() const {
  return materialized_ != nullptr ? materialized_->labels()
                                  : factorized_->labels();
}

const FeatureMeta& DataView::meta(uint32_t j) const {
  return materialized_ != nullptr ? materialized_->meta(j)
                                  : factorized_->meta(j);
}

const std::vector<FeatureMeta>& DataView::metas() const {
  return materialized_ != nullptr ? materialized_->metas()
                                  : factorized_->metas();
}

std::vector<std::string> DataView::FeatureNames(
    const std::vector<uint32_t>& indices) const {
  return materialized_ != nullptr ? materialized_->FeatureNames(indices)
                                  : factorized_->FeatureNames(indices);
}

void DataView::GatherCodes(uint32_t j, const std::vector<uint32_t>& rows,
                           std::vector<uint32_t>* out) const {
  if (factorized_ != nullptr) {
    factorized_->GatherCodes(j, rows, out);
    return;
  }
  const uint32_t* col = materialized_->feature(j).data();
  out->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) (*out)[i] = col[rows[i]];
}

}  // namespace hamlet
