#include "ml/suff_stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel_for.h"

namespace hamlet {

namespace {

// Per-thread scratch for the Eval* hot paths: reused across calls so a
// candidate evaluation allocates nothing after warm-up. Pool workers are
// persistent, so the buffers stay hot for a whole search.
thread_local std::vector<uint32_t> t_predicted;
thread_local std::vector<double> t_scores;

std::shared_ptr<const SuffStats> CheckStatsFit(
    std::shared_ptr<const SuffStats> stats, const DataView& view,
    const std::vector<uint32_t>& candidates) {
  HAMLET_CHECK(stats != nullptr, "NbSubsetEvaluator needs statistics");
  HAMLET_CHECK(stats->num_classes == view.num_classes(),
               "statistics for a different dataset: %u classes, want %u",
               stats->num_classes, view.num_classes());
  HAMLET_CHECK(stats->feature_counts.size() == view.num_features(),
               "statistics for a different dataset: %zu features, want %u",
               stats->feature_counts.size(), view.num_features());
  for (uint32_t j : candidates) {
    HAMLET_CHECK(j < view.num_features() &&
                     stats->cardinalities[j] == view.meta(j).cardinality,
                 "statistics for a different dataset: feature %u's "
                 "cardinality differs",
                 j);
  }
  return stats;
}

}  // namespace

SuffStats BuildSuffStats(const EncodedDataset& data,
                         const std::vector<uint32_t>& rows) {
  SuffStats stats;
  stats.num_classes = data.num_classes();
  stats.num_rows = rows.size();

  const std::vector<uint32_t>& y = data.labels();
  stats.class_counts.assign(stats.num_classes, 0);
  for (uint32_t r : rows) {
    HAMLET_DCHECK(r < data.num_rows(), "row %u out of range %u", r,
                  data.num_rows());
    ++stats.class_counts[y[r]];
  }

  const uint32_t num_features = data.num_features();
  stats.cardinalities.resize(num_features);
  stats.feature_counts.resize(num_features);
  // Integer counts per feature, one work item per feature: bit-identical
  // at any width.
  ParallelFor(num_features, [&](uint32_t j) {
    const uint32_t card = data.meta(j).cardinality;
    stats.cardinalities[j] = card;
    const std::vector<uint32_t>& f = data.feature(j);
    std::vector<uint64_t>& counts = stats.feature_counts[j];
    counts.assign(static_cast<size_t>(card) * stats.num_classes, 0);
    for (uint32_t r : rows) {
      ++counts[static_cast<size_t>(f[r]) * stats.num_classes + y[r]];
    }
  });
  return stats;
}

NbSubsetEvaluator::NbSubsetEvaluator(const DataView& view,
                                     std::shared_ptr<const SuffStats> stats,
                                     const std::vector<uint32_t>& eval_rows,
                                     ErrorMetric metric, double alpha,
                                     const std::vector<uint32_t>& candidates)
    : stats_(CheckStatsFit(std::move(stats), view, candidates)),
      metric_(metric) {
  num_classes_ = stats_->num_classes;
  HAMLET_CHECK(stats_->num_rows > 0,
               "cannot evaluate models over zero training rows");
  HAMLET_CHECK(alpha > 0.0, "Laplace alpha must be > 0, got %f", alpha);
  const std::vector<uint32_t>& labels = view.labels();
  eval_labels_.reserve(eval_rows.size());
  for (uint32_t r : eval_rows) eval_labels_.push_back(labels[r]);

  // Smoothed log priors — the exact expression NaiveBayes::Train uses, on
  // the exact same integer counts, so the doubles are identical.
  const double n = static_cast<double>(stats_->num_rows);
  log_priors_.resize(num_classes_);
  for (uint32_t c = 0; c < num_classes_; ++c) {
    log_priors_[c] = std::log(
        (static_cast<double>(stats_->class_counts[c]) + alpha) /
        (n + alpha * num_classes_));
  }

  // One log-likelihood table per candidate feature, derived once (the
  // scan path re-derives these for every candidate model it trains),
  // plus the candidate's evaluation-row codes, gathered through the view.
  const size_t num_features = stats_->feature_counts.size();
  log_likelihoods_.resize(num_features);
  eval_codes_.resize(num_features);
  std::vector<uint32_t> unique = candidates;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  ParallelFor(
      static_cast<uint32_t>(unique.size()), [&](uint32_t idx) {
        const uint32_t j = unique[idx];
        const uint32_t card = stats_->cardinalities[j];
        const std::vector<uint64_t>& counts = stats_->feature_counts[j];
        std::vector<double>& ll = log_likelihoods_[j];
        ll.resize(counts.size());
        for (uint32_t c = 0; c < num_classes_; ++c) {
          const double denom =
              static_cast<double>(stats_->class_counts[c]) +
              alpha * static_cast<double>(card);
          const double log_denom = std::log(denom);
          for (uint32_t v = 0; v < card; ++v) {
            const size_t i = static_cast<size_t>(v) * num_classes_ + c;
            ll[i] = std::log(static_cast<double>(counts[i]) + alpha) -
                    log_denom;
          }
        }
        view.GatherCodes(j, eval_rows, &eval_codes_[j]);
      });
}

double NbSubsetEvaluator::ErrorOf(
    const std::vector<uint32_t>& predicted) const {
  return ComputeError(metric_, eval_labels_, predicted);
}

double NbSubsetEvaluator::EvalSubset(
    const std::vector<uint32_t>& features) const {
  const uint32_t n = num_eval_rows();
  std::vector<uint32_t>& predicted = t_predicted;
  predicted.resize(n);
  std::vector<double>& scores = t_scores;
  scores.resize(num_classes_);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t c = 0; c < num_classes_; ++c) scores[c] = log_priors_[c];
    for (uint32_t j : features) {
      HAMLET_DCHECK(!log_likelihoods_[j].empty(),
                    "feature %u was not a candidate", j);
      const uint32_t code = eval_codes_[j][i];
      const double* cell =
          &log_likelihoods_[j][static_cast<size_t>(code) * num_classes_];
      for (uint32_t c = 0; c < num_classes_; ++c) scores[c] += cell[c];
    }
    uint32_t best = 0;
    for (uint32_t c = 1; c < num_classes_; ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    predicted[i] = best;
  }
  return ErrorOf(predicted);
}

void NbSubsetEvaluator::ResetBase(const std::vector<uint32_t>& features) {
  InitScores(&base_);
  for (uint32_t j : features) AddToBase(j);
}

void NbSubsetEvaluator::InitScores(std::vector<double>* out) const {
  const uint32_t n = num_eval_rows();
  out->resize(static_cast<size_t>(n) * num_classes_);
  for (uint32_t i = 0; i < n; ++i) {
    double* row = out->data() + static_cast<size_t>(i) * num_classes_;
    for (uint32_t c = 0; c < num_classes_; ++c) row[c] = log_priors_[c];
  }
}

void NbSubsetEvaluator::AccumulateFeature(uint32_t feature,
                                          const std::vector<double>& in,
                                          std::vector<double>* out) const {
  HAMLET_DCHECK(!log_likelihoods_[feature].empty(),
                "feature %u was not a candidate", feature);
  const uint32_t n = num_eval_rows();
  out->resize(in.size());
  const uint32_t* col = eval_codes_[feature].data();
  const std::vector<double>& ll = log_likelihoods_[feature];
  for (uint32_t i = 0; i < n; ++i) {
    const double* src = in.data() + static_cast<size_t>(i) * num_classes_;
    double* dst = out->data() + static_cast<size_t>(i) * num_classes_;
    const double* cell = &ll[static_cast<size_t>(col[i]) * num_classes_];
    for (uint32_t c = 0; c < num_classes_; ++c) dst[c] = src[c] + cell[c];
  }
}

double NbSubsetEvaluator::ErrorFromScores(
    const std::vector<double>& scores) const {
  const uint32_t n = num_eval_rows();
  std::vector<uint32_t>& predicted = t_predicted;
  predicted.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const double* row = scores.data() + static_cast<size_t>(i) * num_classes_;
    uint32_t best = 0;
    for (uint32_t c = 1; c < num_classes_; ++c) {
      if (row[c] > row[best]) best = c;
    }
    predicted[i] = best;
  }
  return ErrorOf(predicted);
}

void NbSubsetEvaluator::AddToBase(uint32_t feature) {
  AccumulateFeature(feature, base_, &base_);
}

void NbSubsetEvaluator::RemoveFromBase(uint32_t feature) {
  HAMLET_DCHECK(!log_likelihoods_[feature].empty(),
                "feature %u was not a candidate", feature);
  const uint32_t n = num_eval_rows();
  const uint32_t* col = eval_codes_[feature].data();
  const std::vector<double>& ll = log_likelihoods_[feature];
  for (uint32_t i = 0; i < n; ++i) {
    double* row = base_.data() + static_cast<size_t>(i) * num_classes_;
    const double* cell = &ll[static_cast<size_t>(col[i]) * num_classes_];
    for (uint32_t c = 0; c < num_classes_; ++c) row[c] -= cell[c];
  }
}

double NbSubsetEvaluator::EvalBase() const {
  return ErrorFromScores(base_);
}

double NbSubsetEvaluator::EvalBasePlus(uint32_t feature) const {
  HAMLET_DCHECK(!log_likelihoods_[feature].empty(),
                "feature %u was not a candidate", feature);
  const uint32_t n = num_eval_rows();
  std::vector<uint32_t>& predicted = t_predicted;
  predicted.resize(n);
  const uint32_t* col = eval_codes_[feature].data();
  const std::vector<double>& ll = log_likelihoods_[feature];
  for (uint32_t i = 0; i < n; ++i) {
    const double* row = base_.data() + static_cast<size_t>(i) * num_classes_;
    const double* cell = &ll[static_cast<size_t>(col[i]) * num_classes_];
    // f's contribution lands last, matching the scan path's summation
    // order for S ∪ {f}: argmax over identical doubles.
    uint32_t best = 0;
    double best_score = row[0] + cell[0];
    for (uint32_t c = 1; c < num_classes_; ++c) {
      const double s = row[c] + cell[c];
      if (s > best_score) {
        best_score = s;
        best = c;
      }
    }
    predicted[i] = best;
  }
  return ErrorOf(predicted);
}

double NbSubsetEvaluator::EvalBaseMinus(uint32_t feature) const {
  HAMLET_DCHECK(!log_likelihoods_[feature].empty(),
                "feature %u was not a candidate", feature);
  const uint32_t n = num_eval_rows();
  std::vector<uint32_t>& predicted = t_predicted;
  predicted.resize(n);
  const uint32_t* col = eval_codes_[feature].data();
  const std::vector<double>& ll = log_likelihoods_[feature];
  for (uint32_t i = 0; i < n; ++i) {
    const double* row = base_.data() + static_cast<size_t>(i) * num_classes_;
    const double* cell = &ll[static_cast<size_t>(col[i]) * num_classes_];
    uint32_t best = 0;
    double best_score = row[0] - cell[0];
    for (uint32_t c = 1; c < num_classes_; ++c) {
      const double s = row[c] - cell[c];
      if (s > best_score) {
        best_score = s;
        best = c;
      }
    }
    predicted[i] = best;
  }
  return ErrorOf(predicted);
}

}  // namespace hamlet
