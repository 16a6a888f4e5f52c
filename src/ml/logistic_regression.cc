#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hamlet {

LogisticRegression::LogisticRegression(LogisticRegressionOptions options)
    : options_(options) {
  HAMLET_CHECK(options_.lambda >= 0.0, "lambda must be >= 0");
  HAMLET_CHECK(options_.max_epochs >= 1, "max_epochs must be >= 1");
}

void LogisticRegression::ActiveDims(const EncodedDataset& data, uint32_t row,
                                    std::vector<uint32_t>* out) const {
  out->clear();
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    uint32_t j = features_[jj];
    uint32_t code = data.feature(j)[row];
    uint32_t card = data.meta(j).cardinality;
    // Last category encodes as the zero vector.
    if (card >= 2 && code != card - 1) {
      out->push_back(offsets_[jj] + code);
    }
  }
}

Status LogisticRegression::DoTrain(const DataView& view,
                                   const std::vector<uint32_t>& rows,
                                   const std::vector<uint32_t>& features,
                                   const SuffStats* /*stats*/) {
  HAMLET_RETURN_NOT_OK(RequireMaterialized(view));
  const EncodedDataset& data = *view.materialized();
  if (rows.empty()) {
    return Status::InvalidArgument(
        "cannot train logistic regression on zero rows");
  }
  num_classes_ = data.num_classes();
  features_ = features;

  offsets_.assign(features_.size(), 0);
  num_dims_ = 0;
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    offsets_[jj] = num_dims_;
    uint32_t card = data.meta(features_[jj]).cardinality;
    num_dims_ += (card >= 2) ? card - 1 : 0;
  }
  const uint32_t stride = num_dims_ + 1;  // +1 bias at the end.
  weights_.assign(static_cast<size_t>(num_classes_) * stride, 0.0);

  // Pre-extract active dims per training row (CSR layout).
  const uint32_t n = static_cast<uint32_t>(rows.size());
  std::vector<uint32_t> csr_offsets(n + 1, 0);
  std::vector<uint32_t> csr_dims;
  csr_dims.reserve(static_cast<size_t>(n) * features_.size());
  {
    std::vector<uint32_t> dims;
    for (uint32_t i = 0; i < n; ++i) {
      ActiveDims(data, rows[i], &dims);
      csr_dims.insert(csr_dims.end(), dims.begin(), dims.end());
      csr_offsets[i + 1] = static_cast<uint32_t>(csr_dims.size());
    }
  }

  const double lr0 =
      options_.learning_rate > 0.0 ? options_.learning_rate : 0.3;
  const std::vector<uint32_t>& y = data.labels();
  const bool l1 = options_.regularizer == Regularizer::kL1;
  const bool l2 = options_.regularizer == Regularizer::kL2;

  std::vector<double> scores(num_classes_);
  std::vector<double> probs(num_classes_);

  for (uint32_t epoch = 0; epoch < options_.max_epochs; ++epoch) {
    const double lr = lr0 / (1.0 + 0.5 * epoch);
    const double shrink = lr * options_.lambda;      // L1 prox per touch.
    const double decay = 1.0 - lr * options_.lambda;  // L2 per touch.
    double max_bias_update = 0.0;

    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t* dims = csr_dims.data() + csr_offsets[i];
      const uint32_t ndims = csr_offsets[i + 1] - csr_offsets[i];
      for (uint32_t c = 0; c < num_classes_; ++c) {
        const double* w = &weights_[static_cast<size_t>(c) * stride];
        double s = w[num_dims_];  // bias
        for (uint32_t t = 0; t < ndims; ++t) s += w[dims[t]];
        scores[c] = s;
      }
      double mx = scores[0];
      for (uint32_t c = 1; c < num_classes_; ++c) {
        mx = std::max(mx, scores[c]);
      }
      double z = 0.0;
      for (uint32_t c = 0; c < num_classes_; ++c) {
        probs[c] = std::exp(scores[c] - mx);
        z += probs[c];
      }
      const uint32_t yi = y[rows[i]];
      for (uint32_t c = 0; c < num_classes_; ++c) {
        const double residual = probs[c] / z - (c == yi ? 1.0 : 0.0);
        const double step = lr * residual;
        double* w = &weights_[static_cast<size_t>(c) * stride];
        double before = w[num_dims_];
        w[num_dims_] = before - step;
        max_bias_update =
            std::max(max_bias_update, std::fabs(step));
        for (uint32_t t = 0; t < ndims; ++t) {
          double next = w[dims[t]] - step;
          // Lazy regularization: shrink a dimension only when an example
          // activates it (Langford et al.'s truncated gradient for L1).
          if (l1) {
            if (next > shrink) {
              next -= shrink;
            } else if (next < -shrink) {
              next += shrink;
            } else {
              next = 0.0;
            }
          } else if (l2) {
            next *= decay;
          }
          w[dims[t]] = next;
        }
      }
    }
    if (max_bias_update < options_.tolerance) break;
  }
  return Status::OK();
}

void LogisticRegression::Scores(const EncodedDataset& data, uint32_t row,
                                std::vector<double>* scores) const {
  const uint32_t stride = num_dims_ + 1;
  scores->assign(num_classes_, 0.0);
  std::vector<uint32_t> dims;
  ActiveDims(data, row, &dims);
  for (uint32_t c = 0; c < num_classes_; ++c) {
    const double* w = &weights_[static_cast<size_t>(c) * stride];
    double s = w[num_dims_];
    for (uint32_t d : dims) s += w[d];
    (*scores)[c] = s;
  }
}

uint32_t LogisticRegression::PredictOne(const EncodedDataset& data,
                                        uint32_t row) const {
  HAMLET_CHECK(num_classes_ > 0, "PredictOne() before Train()");
  std::vector<double> scores;
  Scores(data, row, &scores);
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes_; ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

std::vector<uint32_t> LogisticRegression::ZeroedFeatures(double eps) const {
  std::vector<uint32_t> out;
  const uint32_t stride = num_dims_ + 1;
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    uint32_t begin = offsets_[jj];
    uint32_t end = (jj + 1 < features_.size()) ? offsets_[jj + 1] : num_dims_;
    bool all_zero = true;
    for (uint32_t c = 0; c < num_classes_ && all_zero; ++c) {
      const double* w = &weights_[static_cast<size_t>(c) * stride];
      for (uint32_t d = begin; d < end; ++d) {
        if (std::fabs(w[d]) > eps) {
          all_zero = false;
          break;
        }
      }
    }
    if (all_zero) out.push_back(features_[jj]);
  }
  return out;
}

std::vector<uint32_t> LogisticRegression::ActiveFeatures(double eps) const {
  std::vector<uint32_t> zeroed = ZeroedFeatures(eps);
  std::vector<uint32_t> out;
  for (uint32_t j : features_) {
    if (std::find(zeroed.begin(), zeroed.end(), j) == zeroed.end()) {
      out.push_back(j);
    }
  }
  return out;
}

double LogisticRegression::weight(uint32_t cls, uint32_t dim) const {
  const uint32_t stride = num_dims_ + 1;
  HAMLET_CHECK(cls < num_classes_ && dim <= num_dims_,
               "weight(%u,%u) out of range", cls, dim);
  return weights_[static_cast<size_t>(cls) * stride + dim];
}

uint32_t LogisticRegression::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < offsets_.size(), "feature slot out of range");
  uint32_t end =
      jj + 1 < offsets_.size() ? offsets_[jj + 1] : num_dims_;
  return end - offsets_[jj] + 1;
}

LogisticRegressionParams LogisticRegression::ExportParams() const {
  LogisticRegressionParams params;
  params.options = options_;
  params.num_classes = num_classes_;
  params.num_dims = num_dims_;
  params.features = features_;
  params.offsets = offsets_;
  params.weights = weights_;
  return params;
}

Result<LogisticRegression> LogisticRegression::FromParams(
    LogisticRegressionParams params) {
  if (params.options.lambda < 0.0 || params.options.max_epochs < 1) {
    return Status::InvalidArgument(
        "logistic regression options are out of range");
  }
  if (params.num_classes == 0) {
    return Status::InvalidArgument(
        "logistic regression needs at least one class");
  }
  if (params.offsets.size() != params.features.size()) {
    return Status::InvalidArgument(
        "logistic regression offset/feature count mismatch");
  }
  const size_t stride = static_cast<size_t>(params.num_dims) + 1;
  if (params.weights.size() != stride * params.num_classes) {
    return Status::InvalidArgument(
        "logistic regression weight count mismatch");
  }
  uint32_t prev = 0;
  for (uint32_t off : params.offsets) {
    if (off < prev || off > params.num_dims) {
      return Status::InvalidArgument(
          "logistic regression offsets are not monotone within the "
          "one-hot layout");
    }
    prev = off;
  }
  LogisticRegression model(params.options);
  model.num_classes_ = params.num_classes;
  model.num_dims_ = params.num_dims;
  model.features_ = std::move(params.features);
  model.offsets_ = std::move(params.offsets);
  model.weights_ = std::move(params.weights);
  return model;
}

ClassifierFactory MakeLogisticRegressionFactory(
    LogisticRegressionOptions options) {
  return [options]() { return std::make_unique<LogisticRegression>(options); };
}

}  // namespace hamlet
