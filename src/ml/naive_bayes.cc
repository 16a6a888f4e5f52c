#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "ml/suff_stats.h"

namespace hamlet {

NaiveBayes::NaiveBayes(double alpha) : alpha_(alpha) {
  HAMLET_CHECK(alpha > 0.0, "Laplace alpha must be > 0, got %f", alpha);
}

Status NaiveBayes::DoTrain(const DataView& view,
                           const std::vector<uint32_t>& rows,
                           const std::vector<uint32_t>& features,
                           const SuffStats* given) {
  if (given != nullptr) return TrainFromStats(*given, features);
  const EncodedDataset& data = *view.materialized();
  // One scan counts the classes and the trained features' tables, and
  // the model is derived from those counts by TrainFromStats: one set of
  // expressions with or without `given`, so the models are bit-identical.
  SuffStats stats;
  stats.num_classes = data.num_classes();
  stats.num_rows = rows.size();
  stats.class_counts.assign(stats.num_classes, 0);
  stats.cardinalities.assign(data.num_features(), 0);
  stats.feature_counts.resize(data.num_features());
  const std::vector<uint32_t>& y = data.labels();
  for (uint32_t r : rows) ++stats.class_counts[y[r]];
  for (uint32_t j : features) {
    const std::vector<uint32_t>& f = data.feature(j);
    stats.cardinalities[j] = data.meta(j).cardinality;
    std::vector<uint64_t>& counts = stats.feature_counts[j];
    counts.assign(
        static_cast<size_t>(stats.cardinalities[j]) * stats.num_classes, 0);
    for (uint32_t r : rows) {
      ++counts[static_cast<size_t>(f[r]) * stats.num_classes + y[r]];
    }
  }
  return TrainFromStats(stats, features);
}

Status NaiveBayes::TrainFromStats(const SuffStats& stats,
                                  const std::vector<uint32_t>& features) {
  if (stats.num_rows == 0) {
    return Status::InvalidArgument("cannot train Naive Bayes on zero rows");
  }
  num_classes_ = stats.num_classes;
  features_ = features;

  log_priors_.resize(num_classes_);
  const double n = static_cast<double>(stats.num_rows);
  for (uint32_t c = 0; c < num_classes_; ++c) {
    log_priors_[c] = std::log(
        (static_cast<double>(stats.class_counts[c]) + alpha_) /
        (n + alpha_ * num_classes_));
  }

  log_likelihoods_.assign(features_.size(), {});
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    uint32_t j = features_[jj];
    HAMLET_CHECK(j < stats.feature_counts.size(),
                 "feature %u not covered by the statistics", j);
    const std::vector<uint64_t>& counts = stats.feature_counts[j];
    const uint32_t card = stats.cardinalities[j];
    std::vector<double>& ll = log_likelihoods_[jj];
    ll.resize(counts.size());
    for (uint32_t c = 0; c < num_classes_; ++c) {
      const double denom = static_cast<double>(stats.class_counts[c]) +
                           alpha_ * static_cast<double>(card);
      const double log_denom = std::log(denom);
      for (uint32_t v = 0; v < card; ++v) {
        size_t idx = static_cast<size_t>(v) * num_classes_ + c;
        ll[idx] = std::log(static_cast<double>(counts[idx]) + alpha_) -
                  log_denom;
      }
    }
  }
  return Status::OK();
}

void NaiveBayes::LogScoresInto(const EncodedDataset& data, uint32_t row,
                               std::vector<double>* out) const {
  HAMLET_CHECK(num_classes_ > 0, "LogScores() before Train()");
  out->assign(log_priors_.begin(), log_priors_.end());
  std::vector<double>& scores = *out;
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    uint32_t code = data.feature(features_[jj])[row];
    const std::vector<double>& ll = log_likelihoods_[jj];
    HAMLET_DCHECK(static_cast<size_t>(code) * num_classes_ < ll.size(),
                  "feature code out of trained domain");
    const double* cell = &ll[static_cast<size_t>(code) * num_classes_];
    for (uint32_t c = 0; c < num_classes_; ++c) scores[c] += cell[c];
  }
}

std::vector<double> NaiveBayes::LogScores(const EncodedDataset& data,
                                          uint32_t row) const {
  std::vector<double> scores;
  LogScoresInto(data, row, &scores);
  return scores;
}

std::vector<double> NaiveBayes::PredictProbabilities(
    const EncodedDataset& data, uint32_t row) const {
  std::vector<double> scores = LogScores(data, row);
  double mx = scores[0];
  for (double s : scores) mx = std::max(mx, s);
  double z = 0.0;
  for (double& s : scores) {
    s = std::exp(s - mx);
    z += s;
  }
  for (double& s : scores) s /= z;
  return scores;
}

uint32_t NaiveBayes::PredictOne(const EncodedDataset& data,
                                uint32_t row) const {
  thread_local std::vector<double> scores;
  LogScoresInto(data, row, &scores);
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes_; ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

std::vector<uint32_t> NaiveBayes::Predict(
    const DataView& view, const std::vector<uint32_t>& rows) const {
  const EncodedDataset& data = MaterializedForPredict(view);
  std::vector<uint32_t> out;
  out.reserve(rows.size());
  // Hand-rolled loop rather than PredictOne to keep the scores vector and
  // the per-feature column pointers hot.
  std::vector<const uint32_t*> cols(features_.size());
  for (size_t jj = 0; jj < features_.size(); ++jj) {
    cols[jj] = data.feature(features_[jj]).data();
  }
  std::vector<double> scores(num_classes_);
  for (uint32_t r : rows) {
    scores = log_priors_;
    for (size_t jj = 0; jj < features_.size(); ++jj) {
      uint32_t code = cols[jj][r];
      const double* cell =
          &log_likelihoods_[jj][static_cast<size_t>(code) * num_classes_];
      for (uint32_t c = 0; c < num_classes_; ++c) scores[c] += cell[c];
    }
    uint32_t best = 0;
    for (uint32_t c = 1; c < num_classes_; ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    out.push_back(best);
  }
  return out;
}

uint32_t NaiveBayes::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < log_likelihoods_.size(), "feature slot out of range");
  if (num_classes_ == 0) return 0;
  return static_cast<uint32_t>(log_likelihoods_[jj].size() / num_classes_);
}

NaiveBayesParams NaiveBayes::ExportParams() const {
  NaiveBayesParams params;
  params.alpha = alpha_;
  params.num_classes = num_classes_;
  params.features = features_;
  params.log_priors = log_priors_;
  params.log_likelihoods = log_likelihoods_;
  return params;
}

Result<NaiveBayes> NaiveBayes::FromParams(NaiveBayesParams params) {
  if (!(params.alpha > 0.0)) {
    return Status::InvalidArgument("NaiveBayes alpha must be > 0");
  }
  if (params.num_classes == 0) {
    return Status::InvalidArgument("NaiveBayes needs at least one class");
  }
  if (params.log_priors.size() != params.num_classes) {
    return Status::InvalidArgument("NaiveBayes log-prior count mismatch");
  }
  if (params.log_likelihoods.size() != params.features.size()) {
    return Status::InvalidArgument(
        "NaiveBayes per-feature table count mismatch");
  }
  for (const std::vector<double>& ll : params.log_likelihoods) {
    if (ll.empty() || ll.size() % params.num_classes != 0) {
      return Status::InvalidArgument(
          "NaiveBayes log-likelihood table is not a whole number of "
          "categories");
    }
  }
  NaiveBayes model(params.alpha);
  model.num_classes_ = params.num_classes;
  model.features_ = std::move(params.features);
  model.log_priors_ = std::move(params.log_priors);
  model.log_likelihoods_ = std::move(params.log_likelihoods);
  return model;
}

ClassifierFactory MakeNaiveBayesFactory(double alpha) {
  return [alpha]() { return std::make_unique<NaiveBayes>(alpha); };
}

}  // namespace hamlet
