#include "fs/feature_selector.h"

#include "ml/factorized.h"

namespace hamlet {

const std::vector<uint32_t>& DataView::labels() const {
  return materialized_ != nullptr ? materialized_->labels()
                                  : factorized_->labels();
}

std::vector<std::string> DataView::FeatureNames(
    const std::vector<uint32_t>& indices) const {
  return materialized_ != nullptr ? materialized_->FeatureNames(indices)
                                  : factorized_->FeatureNames(indices);
}

}  // namespace hamlet
