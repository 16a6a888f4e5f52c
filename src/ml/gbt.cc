#include "ml/gbt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel_for.h"
#include "ml/decision_tree.h"
#include "ml/data_view.h"
#include "ml/tree_grower.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {

namespace {

obs::Histogram& GbtTrainHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("gbt.train_ns");
  return histogram;
}

obs::Counter& GbtTrainsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("gbt.trains");
  return counter;
}

obs::Counter& GbtTreesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("gbt.trees");
  return counter;
}

/// One table cell of a regression tree: the gradient and hessian sums
/// and the item count of one code.
struct GradCell {
  double g = 0.0;
  double h = 0.0;
  uint64_t n = 0;

  GradCell& operator-=(const GradCell& o) {
    g -= o.g;
    h -= o.h;
    n -= o.n;
    return *this;
  }
};

/// The regression trees' split criterion (ml/tree_grower.h) for class
/// column `k`: a row is one GradCell, a split gains the XGBoost gain,
/// every node carries its Newton value, and a leaf folds that value into
/// the boosted scores of its items.
struct NewtonCriterion {
  using Cell = GradCell;
  const GbtOptions& options;
  const std::vector<double>& g;  // Flat [i * num_classes + k].
  const std::vector<double>& h;
  uint32_t k;
  uint32_t num_classes;
  std::vector<double>* scores;  // Flat [i * num_classes + k], updated.
  std::vector<double>* value;   // The tree's per-node values.

  uint32_t row_width() const { return 1; }
  void Add(uint32_t i, GradCell* row) const {
    const size_t at = static_cast<size_t>(i) * num_classes + k;
    row->g += g[at];
    row->h += h[at];
    ++row->n;
  }
  uint64_t Count(const GradCell* row) const { return row->n; }
  bool Pure(const GradCell*, uint64_t) const { return false; }
  double Score(const GradCell* total, uint64_t) const {
    return (total->g * total->g) / (total->h + options.lambda);
  }
  double Gain(const GradCell* l, const GradCell* r, uint64_t, uint64_t,
              double parent_obj) const {
    return (l->g * l->g) / (l->h + options.lambda) +
           (r->g * r->g) / (r->h + options.lambda) - parent_obj;
  }
  void Payload(const GradCell* total, uint64_t) const {
    const double hl = total->h + options.lambda;
    value->push_back(hl > 0.0 ? -(total->g / hl) * options.learning_rate
                              : 0.0);
  }
  void Leaf(int32_t node, const std::vector<uint32_t>& items) const {
    for (uint32_t i : items) {
      (*scores)[static_cast<size_t>(i) * num_classes + k] += (*value)[node];
    }
  }
};

}  // namespace

Gbt::Gbt(GbtOptions options) : options_(options) {
  HAMLET_CHECK(options_.learning_rate > 0.0,
               "Gbt learning_rate must be positive, got %f",
               options_.learning_rate);
  HAMLET_CHECK(options_.lambda > 0.0, "Gbt lambda must be positive, got %f",
               options_.lambda);
}

void Gbt::CapToCandidateBudget() {
  options_.num_rounds =
      std::min(options_.num_rounds, options_.candidate_rounds);
  options_.max_depth =
      std::min(options_.max_depth, options_.candidate_max_depth);
}

Status Gbt::DoTrain(const DataView& view, const std::vector<uint32_t>& rows,
                    const std::vector<uint32_t>& features,
                    const SuffStats* /*stats*/) {
  obs::ScopedLatency latency(GbtTrainHistogram());
  HAMLET_ASSIGN_OR_RETURN(TreeTrainingSet set,
                          GatherTreeTrainingSet(view, rows, features));
  num_classes_ = view.num_classes();
  features_ = features;
  cardinalities_ = std::move(set.cardinalities);
  const std::vector<uint32_t>& labels = set.labels;
  const std::vector<std::vector<uint32_t>>& codes = set.codes;

  trees_.clear();
  const uint32_t n = static_cast<uint32_t>(labels.size());
  const uint32_t K = num_classes_;

  // Base scores: smoothed log priors (pseudo-count 1), the same kind of
  // expression the tree leaves and the NB prior use.
  std::vector<uint64_t> cls(K, 0);
  for (uint32_t y : labels) ++cls[y];
  base_scores_.resize(K);
  const double base_denom =
      static_cast<double>(n) + static_cast<double>(K);
  for (uint32_t y = 0; y < K; ++y) {
    base_scores_[y] =
        std::log((static_cast<double>(cls[y]) + 1.0) / base_denom);
  }

  std::vector<double> scores(static_cast<size_t>(n) * K);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t y = 0; y < K; ++y) {
      scores[static_cast<size_t>(i) * K + y] = base_scores_[y];
    }
  }

  std::vector<double> g(static_cast<size_t>(n) * K);
  std::vector<double> h(static_cast<size_t>(n) * K);
  // One GradCell, two gradient sums and a count, per code.
  const uint32_t table_grain = TableGrain(cardinalities_, 3);
  trees_.reserve(static_cast<size_t>(options_.num_rounds) * K);
  for (uint32_t m = 0; m < options_.num_rounds; ++m) {
    // Softmax gradients/hessians. Rows are independent (each work item
    // writes only its own K slots), and within a row every sum runs in
    // ascending class order — deterministic at any thread count. A row
    // costs 2K exps; one class measured ~18 ns against a histogram
    // cell's 1-4 ns, so a row counts as 8K cells.
    ParallelFor(
        n,
        [&](uint32_t i) {
          const double* s = &scores[static_cast<size_t>(i) * K];
          double max_s = s[0];
          for (uint32_t y = 1; y < K; ++y) {
            if (s[y] > max_s) max_s = s[y];
          }
          double sum = 0.0;
          for (uint32_t y = 0; y < K; ++y) sum += std::exp(s[y] - max_s);
          for (uint32_t y = 0; y < K; ++y) {
            const double p = std::exp(s[y] - max_s) / sum;
            const size_t at = static_cast<size_t>(i) * K + y;
            g[at] = p - (labels[i] == y ? 1.0 : 0.0);
            h[at] = p * (1.0 - p);
          }
        },
        NodeGrain(8 * static_cast<uint64_t>(K)));

    for (uint32_t k = 0; k < K; ++k) {
      GbtTree tree;
      const NewtonCriterion criterion{options_, g, h, k, K, &scores,
                                      &tree.value};
      TreeGrower<NewtonCriterion> grower{criterion,
                                         codes,
                                         cardinalities_,
                                         options_.max_depth,
                                         options_.min_rows_split,
                                         options_.min_gain,
                                         table_grain,
                                         &tree.split_slot,
                                         &tree.split_code,
                                         &tree.left,
                                         &tree.right};
      grower.Grow(grower.Root(n));
      trees_.push_back(std::move(tree));
    }
  }

  GbtTrainsCounter().Add(1);
  GbtTreesCounter().Add(trees_.size());
  return Status::OK();
}

template <typename CodeAt>
void Gbt::ScoresInto(const CodeAt& code, std::vector<double>* out) const {
  out->assign(base_scores_.begin(), base_scores_.end());
  for (size_t t = 0; t < trees_.size(); ++t) {
    const uint32_t k = static_cast<uint32_t>(t % num_classes_);
    const GbtTree& tree = trees_[t];
    (*out)[k] += tree.value[LeafOf(tree.split_slot, tree.split_code,
                                   tree.left, tree.right, code)];
  }
}

uint32_t Gbt::BestClass(const std::vector<double>& scores) const {
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes_; ++c) {
    if (scores[c] > scores[best]) best = c;
  }
  return best;
}

void Gbt::LogScoresInto(const EncodedDataset& data, uint32_t row,
                        std::vector<double>* out) const {
  HAMLET_CHECK(num_classes_ > 0, "Gbt::LogScoresInto before Train");
  ScoresInto(
      [&](uint32_t slot) { return data.feature(features_[slot])[row]; }, out);
}

uint32_t Gbt::PredictOne(const EncodedDataset& data, uint32_t row) const {
  thread_local std::vector<double> scores;
  LogScoresInto(data, row, &scores);
  return BestClass(scores);
}

std::vector<uint32_t> Gbt::Predict(const DataView& data,
                                   const std::vector<uint32_t>& rows) const {
  std::vector<bool> tested(features_.size(), false);
  uint64_t walk = 0;
  for (const GbtTree& t : trees_) {
    MarkTestedSlots(t.split_slot, &tested);
    walk += LongestWalk(t.split_slot, t.left, t.right);
  }
  const std::vector<std::vector<uint32_t>> cols = GatherTrainedCodes(
      data, "Gbt", num_classes_ > 0, features_, tested, rows);
  std::vector<uint32_t> out(rows.size());
  ParallelFor(
      static_cast<uint32_t>(rows.size()),
      [&](uint32_t i) {
        thread_local std::vector<double> scores;
        ScoresInto([&](uint32_t slot) { return cols[slot][i]; }, &scores);
        out[i] = BestClass(scores);
      },
      NodeGrain(walk));
  return out;
}

uint32_t Gbt::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < cardinalities_.size(),
               "trained_cardinality slot out of range");
  return cardinalities_[jj];
}

GbtParams Gbt::ExportParams() const {
  GbtParams params;
  params.learning_rate = options_.learning_rate;
  params.lambda = options_.lambda;
  params.num_classes = num_classes_;
  params.features = features_;
  params.cardinalities = cardinalities_;
  params.base_scores = base_scores_;
  params.trees = trees_;
  return params;
}

Result<Gbt> Gbt::FromParams(GbtParams params) {
  if (params.learning_rate <= 0.0) {
    return Status::InvalidArgument("Gbt params: learning_rate must be > 0");
  }
  if (params.lambda <= 0.0) {
    return Status::InvalidArgument("Gbt params: lambda must be > 0");
  }
  if (params.num_classes == 0) {
    return Status::InvalidArgument("Gbt params: zero classes");
  }
  if (params.features.size() != params.cardinalities.size()) {
    return Status::InvalidArgument(
        "Gbt params: features/cardinalities size mismatch");
  }
  if (params.base_scores.size() != params.num_classes) {
    return Status::InvalidArgument(
        "Gbt params: base_scores size does not match classes");
  }
  if (params.trees.size() % params.num_classes != 0) {
    return Status::InvalidArgument(
        "Gbt params: tree count is not a multiple of classes");
  }
  for (const GbtTree& t : params.trees) {
    HAMLET_RETURN_NOT_OK(ValidateTreeStructure(
        t.split_slot, t.split_code, t.left, t.right, params.features.size(),
        params.cardinalities, "Gbt params"));
    if (t.value.size() != t.split_slot.size()) {
      return Status::InvalidArgument(
          "Gbt params: value size does not match nodes");
    }
  }

  GbtOptions options;
  options.learning_rate = params.learning_rate;
  options.lambda = params.lambda;
  Gbt model(options);
  model.num_classes_ = params.num_classes;
  model.features_ = std::move(params.features);
  model.cardinalities_ = std::move(params.cardinalities);
  model.base_scores_ = std::move(params.base_scores);
  model.trees_ = std::move(params.trees);
  return model;
}

ClassifierFactory MakeGbtFactory(GbtOptions options) {
  return [options]() { return std::make_unique<Gbt>(options); };
}

}  // namespace hamlet
