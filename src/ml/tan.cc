#include "ml/tan.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"

namespace hamlet {

namespace {

// Pairwise conditional mutual information I(Xi;Xj|Y) in bits, computed
// from sparse joint counts so that large (e.g., FK x FK) domains never
// materialize a dense cube.
double ConditionalMutualInformation(const std::vector<uint32_t>& xi,
                                    const std::vector<uint32_t>& xj,
                                    const std::vector<uint32_t>& y,
                                    const std::vector<uint32_t>& rows,
                                    uint32_t card_j, uint32_t num_classes) {
  std::unordered_map<uint64_t, uint32_t> joint;   // (xi,xj,y) counts.
  std::unordered_map<uint64_t, uint32_t> iy;      // (xi,y) counts.
  std::unordered_map<uint64_t, uint32_t> jy;      // (xj,y) counts.
  std::vector<uint32_t> yc(num_classes, 0);
  joint.reserve(rows.size());
  for (uint32_t r : rows) {
    uint64_t a = xi[r], b = xj[r], c = y[r];
    ++joint[(a * card_j + b) * num_classes + c];
    ++iy[a * num_classes + c];
    ++jy[b * num_classes + c];
    ++yc[c];
  }
  const double n = static_cast<double>(rows.size());
  double cmi = 0.0;
  for (const auto& [key, cnt] : joint) {
    uint32_t c = static_cast<uint32_t>(key % num_classes);
    uint64_t ab = key / num_classes;
    uint64_t a = ab / card_j;
    uint64_t b = ab % card_j;
    double p_abc = cnt / n;
    double p_c = yc[c] / n;
    double p_ac = iy.at(a * num_classes + c) / n;
    double p_bc = jy.at(b * num_classes + c) / n;
    cmi += p_abc * std::log2((p_abc * p_c) / (p_ac * p_bc));
  }
  return cmi < 0.0 ? 0.0 : cmi;
}

}  // namespace

TreeAugmentedNaiveBayes::TreeAugmentedNaiveBayes(double alpha)
    : alpha_(alpha) {
  HAMLET_CHECK(alpha > 0.0, "Laplace alpha must be > 0, got %f", alpha);
}

Status TreeAugmentedNaiveBayes::DoTrain(const DataView& view,
                                        const std::vector<uint32_t>& rows,
                                        const std::vector<uint32_t>& features,
                                        const SuffStats* /*stats*/) {
  const EncodedDataset& data = *view.materialized();
  if (rows.empty()) {
    return Status::InvalidArgument("cannot train TAN on zero rows");
  }
  num_classes_ = data.num_classes();
  features_ = features;
  const uint32_t d = static_cast<uint32_t>(features_.size());
  num_features_trained_ = d;
  cardinalities_.clear();
  for (uint32_t j : features_) {
    cardinalities_.push_back(data.meta(j).cardinality);
  }
  const std::vector<uint32_t>& y = data.labels();

  // Priors.
  std::vector<uint64_t> class_counts(num_classes_, 0);
  for (uint32_t r : rows) ++class_counts[y[r]];
  log_priors_.resize(num_classes_);
  const double n = static_cast<double>(rows.size());
  for (uint32_t c = 0; c < num_classes_; ++c) {
    log_priors_[c] =
        std::log((static_cast<double>(class_counts[c]) + alpha_) /
                 (n + alpha_ * num_classes_));
  }

  // Pairwise CMI matrix.
  edge_weights_.assign(static_cast<size_t>(d) * d, 0.0);
  for (uint32_t i = 0; i < d; ++i) {
    for (uint32_t j = i + 1; j < d; ++j) {
      double w = ConditionalMutualInformation(
          data.feature(features_[i]), data.feature(features_[j]), y, rows,
          data.meta(features_[j]).cardinality, num_classes_);
      edge_weights_[static_cast<size_t>(i) * d + j] = w;
      edge_weights_[static_cast<size_t>(j) * d + i] = w;
    }
  }

  // Maximum spanning tree (Prim), rooted at feature position 0.
  parents_.assign(d, -1);
  if (d > 1) {
    std::vector<bool> in_tree(d, false);
    std::vector<double> best_w(d, -1.0);
    std::vector<int32_t> best_p(d, -1);
    in_tree[0] = true;
    for (uint32_t j = 1; j < d; ++j) {
      best_w[j] = edge_weights_[j];  // row 0
      best_p[j] = 0;
    }
    for (uint32_t step = 1; step < d; ++step) {
      int32_t pick = -1;
      double pick_w = -1.0;
      for (uint32_t j = 0; j < d; ++j) {
        if (!in_tree[j] && best_w[j] > pick_w) {
          pick_w = best_w[j];
          pick = static_cast<int32_t>(j);
        }
      }
      HAMLET_CHECK(pick >= 0, "MST construction failed");
      in_tree[pick] = true;
      parents_[pick] = best_p[pick];
      for (uint32_t j = 0; j < d; ++j) {
        if (in_tree[j]) continue;
        double w = edge_weights_[static_cast<size_t>(pick) * d + j];
        if (w > best_w[j]) {
          best_w[j] = w;
          best_p[j] = pick;
        }
      }
    }
  }

  // CPTs. Root/orphans: P(Xj|Y). Children: P(Xj | parent, Y).
  log_cpts_.assign(d, {});
  for (uint32_t jj = 0; jj < d; ++jj) {
    const std::vector<uint32_t>& f = data.feature(features_[jj]);
    const uint32_t card = data.meta(features_[jj]).cardinality;
    if (parents_[jj] < 0) {
      std::vector<uint64_t> counts(static_cast<size_t>(card) * num_classes_,
                                   0);
      for (uint32_t r : rows) {
        ++counts[static_cast<size_t>(f[r]) * num_classes_ + y[r]];
      }
      std::vector<double>& cpt = log_cpts_[jj];
      cpt.resize(counts.size());
      for (uint32_t c = 0; c < num_classes_; ++c) {
        double denom = static_cast<double>(class_counts[c]) +
                       alpha_ * static_cast<double>(card);
        for (uint32_t v = 0; v < card; ++v) {
          size_t idx = static_cast<size_t>(v) * num_classes_ + c;
          cpt[idx] =
              std::log((static_cast<double>(counts[idx]) + alpha_) / denom);
        }
      }
    } else {
      const uint32_t pp = static_cast<uint32_t>(parents_[jj]);
      const std::vector<uint32_t>& pf = data.feature(features_[pp]);
      const uint32_t pcard = data.meta(features_[pp]).cardinality;
      const size_t table_size =
          static_cast<size_t>(card) * pcard * num_classes_;
      std::vector<uint64_t> counts(table_size, 0);
      std::vector<uint64_t> parent_counts(
          static_cast<size_t>(pcard) * num_classes_, 0);
      for (uint32_t r : rows) {
        size_t idx =
            (static_cast<size_t>(f[r]) * pcard + pf[r]) * num_classes_ + y[r];
        ++counts[idx];
        ++parent_counts[static_cast<size_t>(pf[r]) * num_classes_ + y[r]];
      }
      std::vector<double>& cpt = log_cpts_[jj];
      cpt.resize(table_size);
      for (uint32_t v = 0; v < card; ++v) {
        for (uint32_t pv = 0; pv < pcard; ++pv) {
          for (uint32_t c = 0; c < num_classes_; ++c) {
            size_t idx =
                (static_cast<size_t>(v) * pcard + pv) * num_classes_ + c;
            double denom =
                static_cast<double>(
                    parent_counts[static_cast<size_t>(pv) * num_classes_ +
                                  c]) +
                alpha_ * static_cast<double>(card);
            cpt[idx] = std::log(
                (static_cast<double>(counts[idx]) + alpha_) / denom);
          }
        }
      }
    }
  }
  return Status::OK();
}

uint32_t TreeAugmentedNaiveBayes::PredictOne(const EncodedDataset& data,
                                             uint32_t row) const {
  HAMLET_CHECK(num_classes_ > 0, "PredictOne() before Train()");
  std::vector<double> scores = log_priors_;
  for (uint32_t jj = 0; jj < features_.size(); ++jj) {
    uint32_t code = data.feature(features_[jj])[row];
    const std::vector<double>& cpt = log_cpts_[jj];
    if (parents_[jj] < 0) {
      const double* cell = &cpt[static_cast<size_t>(code) * num_classes_];
      for (uint32_t c = 0; c < num_classes_; ++c) scores[c] += cell[c];
    } else {
      uint32_t pp = static_cast<uint32_t>(parents_[jj]);
      uint32_t pcode = data.feature(features_[pp])[row];
      uint32_t pcard = data.meta(features_[pp]).cardinality;
      const double* cell =
          &cpt[(static_cast<size_t>(code) * pcard + pcode) * num_classes_];
      for (uint32_t c = 0; c < num_classes_; ++c) scores[c] += cell[c];
    }
  }
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes_; ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

uint32_t TreeAugmentedNaiveBayes::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < cardinalities_.size(),
               "trained_cardinality slot out of range");
  return cardinalities_[jj];
}

double TreeAugmentedNaiveBayes::EdgeWeight(uint32_t i, uint32_t j) const {
  HAMLET_CHECK(i < num_features_trained_ && j < num_features_trained_,
               "edge (%u,%u) out of range", i, j);
  return edge_weights_[static_cast<size_t>(i) * num_features_trained_ + j];
}

ClassifierFactory MakeTanFactory(double alpha) {
  return [alpha]() {
    return std::make_unique<TreeAugmentedNaiveBayes>(alpha);
  };
}

}  // namespace hamlet
