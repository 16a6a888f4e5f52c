#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "ml/data_view.h"
#include "ml/suff_stats.h"
#include "ml/tree_grower.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {

namespace {

obs::Histogram& TreeTrainHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("tree.train_ns");
  return histogram;
}

obs::Counter& TreeTrainsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("tree.trains");
  return counter;
}

obs::Counter& TreeNodesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("tree.nodes");
  return counter;
}

/// Gini impurity 1 - sum_y p_y^2 of one count vector, accumulated in
/// ascending class order — the pinned expression of every split.
double GiniOf(const uint64_t* counts, uint32_t num_classes, uint64_t total) {
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  double sum_sq = 0.0;
  for (uint32_t y = 0; y < num_classes; ++y) {
    const double p = static_cast<double>(counts[y]) / n;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// CART's split criterion (ml/tree_grower.h): a row holds K class counts,
/// a split gains the Gini decrease, a pure node stops, and every node
/// carries its smoothed class log-probabilities.
struct GiniCriterion {
  using Cell = uint64_t;
  const std::vector<uint32_t>& labels;  // Per item.
  uint32_t num_classes;
  double alpha;
  std::vector<double>* scores;  // Flat [node * num_classes + y].

  uint32_t row_width() const { return num_classes; }
  void Add(uint32_t i, uint64_t* row) const { ++row[labels[i]]; }
  uint64_t Count(const uint64_t* row) const {
    uint64_t n = 0;
    for (uint32_t y = 0; y < num_classes; ++y) n += row[y];
    return n;
  }
  bool Pure(const uint64_t* total, uint64_t n) const {
    for (uint32_t y = 0; y < num_classes; ++y) {
      if (total[y] == n) return true;
    }
    return false;
  }
  double Score(const uint64_t* total, uint64_t n) const {
    return GiniOf(total, num_classes, n);
  }
  double Gain(const uint64_t* l, const uint64_t* r, uint64_t nl, uint64_t nr,
              double parent_gini) const {
    const double n = static_cast<double>(nl + nr);
    return parent_gini -
           ((static_cast<double>(nl) / n) * GiniOf(l, num_classes, nl) +
            (static_cast<double>(nr) / n) * GiniOf(r, num_classes, nr));
  }
  // The same expression as the Naive Bayes prior, so a depth-0 tree IS
  // the prior-only model.
  void Payload(const uint64_t* total, uint64_t n) const {
    const double denom =
        static_cast<double>(n) + alpha * static_cast<double>(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      scores->push_back(
          std::log((static_cast<double>(total[y]) + alpha) / denom));
    }
  }
  void Leaf(int32_t, const std::vector<uint32_t>&) const {}
};

/// True when the statistics can seed the root histograms: same row and
/// class counts, and a table for each trained slot covering its
/// training-time cardinality.
bool RootStatsUsable(const SuffStats* stats, uint64_t num_rows,
                     uint32_t num_classes,
                     const std::vector<uint32_t>& features,
                     const std::vector<uint32_t>& cards) {
  if (stats == nullptr || stats->num_rows != num_rows ||
      stats->num_classes != num_classes) {
    return false;
  }
  for (size_t jj = 0; jj < features.size(); ++jj) {
    if (features[jj] >= stats->feature_counts.size()) return false;
    if (stats->cardinalities[features[jj]] != cards[jj]) return false;
  }
  return true;
}

/// The codes at `rows` of each slot `gather` marks, one slot per work
/// item, kSlotGatherCodeGrain codes per shard; the other slots stay empty.
std::vector<std::vector<uint32_t>> GatherSlotCodes(
    const DataView& view, const std::vector<uint32_t>& features,
    const std::vector<bool>& gather, const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> slots;
  for (uint32_t jj = 0; jj < features.size(); ++jj) {
    if (gather[jj]) slots.push_back(jj);
  }
  std::vector<std::vector<uint32_t>> codes(features.size());
  const uint64_t per_slot = std::max<uint64_t>(rows.size(), 1);
  ParallelFor(
      static_cast<uint32_t>(slots.size()),
      [&](uint32_t i) {
        view.GatherCodes(features[slots[i]], rows, &codes[slots[i]]);
      },
      static_cast<uint32_t>((kSlotGatherCodeGrain + per_slot - 1) /
                            per_slot));
  return codes;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {
  HAMLET_CHECK(options_.alpha > 0.0,
               "DecisionTree alpha must be positive, got %f", options_.alpha);
}

void DecisionTree::CapToCandidateBudget() {
  options_.max_depth =
      std::min(options_.max_depth, options_.candidate_max_depth);
}

Status DecisionTree::DoTrain(const DataView& view,
                             const std::vector<uint32_t>& rows,
                             const std::vector<uint32_t>& features,
                             const SuffStats* stats) {
  obs::ScopedLatency latency(TreeTrainHistogram());
  HAMLET_ASSIGN_OR_RETURN(TreeTrainingSet set,
                          GatherTreeTrainingSet(view, rows, features));
  num_classes_ = view.num_classes();
  features_ = features;
  cardinalities_ = std::move(set.cardinalities);
  split_slot_.clear();
  split_code_.clear();
  left_.clear();
  right_.clear();
  scores_.clear();

  const GiniCriterion criterion{set.labels, num_classes_, options_.alpha,
                                &scores_};
  TreeGrower<GiniCriterion> grower{criterion,
                                   set.codes,
                                   cardinalities_,
                                   options_.max_depth,
                                   options_.min_rows_split,
                                   options_.min_gain,
                                   TableGrain(cardinalities_, num_classes_),
                                   &split_slot_,
                                   &split_code_,
                                   &left_,
                                   &right_};
  const uint32_t n = static_cast<uint32_t>(rows.size());
  if (RootStatsUsable(stats, n, num_classes_, features_, cardinalities_)) {
    // The counts are integers, so the statistics' tables equal the ones a
    // pass over the gathered codes would build.
    std::vector<std::vector<uint64_t>> tables;
    for (uint32_t j : features_) tables.push_back(stats->feature_counts[j]);
    grower.Grow(grower.Root(n, stats->class_counts, std::move(tables)));
  } else {
    grower.Grow(grower.Root(n));
  }

  TreeTrainsCounter().Add(1);
  TreeNodesCounter().Add(num_nodes());
  return Status::OK();
}

uint32_t DecisionTree::BestClass(int32_t node) const {
  const double* s = &scores_[static_cast<size_t>(node) * num_classes_];
  uint32_t best = 0;
  for (uint32_t c = 1; c < num_classes_; ++c) {
    if (s[c] > s[best]) best = c;
  }
  return best;
}

uint32_t DecisionTree::PredictOne(const EncodedDataset& data,
                                  uint32_t row) const {
  HAMLET_CHECK(num_nodes() > 0, "DecisionTree::PredictOne before Train");
  return BestClass(LeafOf(split_slot_, split_code_, left_, right_,
                           [&](uint32_t slot) {
                             return data.feature(features_[slot])[row];
                           }));
}

std::vector<uint32_t> DecisionTree::Predict(
    const DataView& data, const std::vector<uint32_t>& rows) const {
  std::vector<bool> tested(features_.size(), false);
  MarkTestedSlots(split_slot_, &tested);
  const std::vector<std::vector<uint32_t>> cols = GatherTrainedCodes(
      data, "DecisionTree", num_nodes() > 0, features_, tested, rows);
  std::vector<uint32_t> out(rows.size());
  ParallelFor(
      static_cast<uint32_t>(rows.size()),
      [&](uint32_t i) {
        out[i] = BestClass(
            LeafOf(split_slot_, split_code_, left_, right_,
                   [&](uint32_t slot) { return cols[slot][i]; }));
      },
      NodeGrain(LongestWalk(split_slot_, left_, right_)));
  return out;
}

void DecisionTree::LogScoresInto(const EncodedDataset& data, uint32_t row,
                                 std::vector<double>* out) const {
  HAMLET_CHECK(num_nodes() > 0, "DecisionTree::LogScoresInto before Train");
  const int32_t node =
      LeafOf(split_slot_, split_code_, left_, right_, [&](uint32_t slot) {
        return data.feature(features_[slot])[row];
      });
  const double* s = &scores_[static_cast<size_t>(node) * num_classes_];
  out->assign(s, s + num_classes_);
}

uint32_t DecisionTree::trained_cardinality(size_t jj) const {
  HAMLET_CHECK(jj < cardinalities_.size(),
               "trained_cardinality slot out of range");
  return cardinalities_[jj];
}

DecisionTreeParams DecisionTree::ExportParams() const {
  DecisionTreeParams params;
  params.alpha = options_.alpha;
  params.num_classes = num_classes_;
  params.features = features_;
  params.cardinalities = cardinalities_;
  params.split_slot = split_slot_;
  params.split_code = split_code_;
  params.left = left_;
  params.right = right_;
  params.scores = scores_;
  return params;
}

Result<DecisionTree> DecisionTree::FromParams(DecisionTreeParams params) {
  if (params.alpha <= 0.0) {
    return Status::InvalidArgument("DecisionTree params: alpha must be > 0");
  }
  if (params.num_classes == 0) {
    return Status::InvalidArgument("DecisionTree params: zero classes");
  }
  if (params.features.size() != params.cardinalities.size()) {
    return Status::InvalidArgument(
        "DecisionTree params: features/cardinalities size mismatch");
  }
  HAMLET_RETURN_NOT_OK(ValidateTreeStructure(
      params.split_slot, params.split_code, params.left, params.right,
      params.features.size(), params.cardinalities, "DecisionTree params"));
  if (params.scores.size() !=
      params.split_slot.size() * params.num_classes) {
    return Status::InvalidArgument(
        "DecisionTree params: scores size does not match nodes * classes");
  }

  DecisionTreeOptions options;
  options.alpha = params.alpha;
  DecisionTree model(options);
  model.num_classes_ = params.num_classes;
  model.features_ = std::move(params.features);
  model.cardinalities_ = std::move(params.cardinalities);
  model.split_slot_ = std::move(params.split_slot);
  model.split_code_ = std::move(params.split_code);
  model.left_ = std::move(params.left);
  model.right_ = std::move(params.right);
  model.scores_ = std::move(params.scores);
  return model;
}

ClassifierFactory MakeDecisionTreeFactory(DecisionTreeOptions options) {
  return [options]() { return std::make_unique<DecisionTree>(options); };
}

Status ValidateTreeStructure(const std::vector<int32_t>& split_slot,
                             const std::vector<uint32_t>& split_code,
                             const std::vector<int32_t>& left,
                             const std::vector<int32_t>& right,
                             size_t num_slots,
                             const std::vector<uint32_t>& cardinalities,
                             const char* context) {
  const size_t n = split_slot.size();
  if (n == 0 || split_code.size() != n || left.size() != n ||
      right.size() != n) {
    return Status::InvalidArgument(
        StringFormat("%s: inconsistent node arrays", context));
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t slot = split_slot[i];
    if (slot < 0) {
      if (left[i] != -1 || right[i] != -1) {
        return Status::InvalidArgument(
            StringFormat("%s: leaf with children", context));
      }
      continue;
    }
    if (static_cast<size_t>(slot) >= num_slots) {
      return Status::InvalidArgument(
          StringFormat("%s: split slot out of range", context));
    }
    if (split_code[i] >= cardinalities[slot]) {
      return Status::InvalidArgument(
          StringFormat("%s: split code outside the slot's domain", context));
    }
    const int32_t l = left[i], r = right[i];
    if (l <= static_cast<int32_t>(i) || r <= static_cast<int32_t>(i) ||
        static_cast<size_t>(l) >= n || static_cast<size_t>(r) >= n ||
        l == r) {
      return Status::InvalidArgument(
          StringFormat("%s: child index out of range", context));
    }
  }
  // Reachability: pre-order flat storage means every node must be reached
  // exactly once from the root. Catches both dangling and shared nodes.
  std::vector<uint8_t> visited(n, 0);
  std::vector<int32_t> stack = {0};
  size_t count = 0;
  while (!stack.empty()) {
    const int32_t node = stack.back();
    stack.pop_back();
    if (visited[node]) {
      return Status::InvalidArgument(
          StringFormat("%s: node reachable twice", context));
    }
    visited[node] = 1;
    ++count;
    if (split_slot[node] >= 0) {
      stack.push_back(right[node]);
      stack.push_back(left[node]);
    }
  }
  if (count != n) {
    return Status::InvalidArgument(
        StringFormat("%s: unreachable nodes", context));
  }
  return Status::OK();
}

uint32_t TableGrain(const std::vector<uint32_t>& cardinalities,
                    uint32_t entries_per_code) {
  uint64_t entries = 0;
  for (uint32_t card : cardinalities) entries += card;
  return NodeGrain(entries * entries_per_code /
                   std::max<size_t>(cardinalities.size(), 1));
}

Result<TreeTrainingSet> GatherTreeTrainingSet(
    const DataView& view, const std::vector<uint32_t>& rows,
    const std::vector<uint32_t>& features) {
  if (view.num_classes() == 0) {
    return Status::InvalidArgument("dataset has zero classes");
  }
  TreeTrainingSet set;
  set.cardinalities.reserve(features.size());
  for (uint32_t j : features) {
    if (j >= view.num_features()) {
      return Status::InvalidArgument(
          StringFormat("feature index %u out of range (%u features)", j,
                       view.num_features()));
    }
    set.cardinalities.push_back(view.meta(j).cardinality);
  }
  const std::vector<uint32_t>& labels = view.labels();
  set.labels.reserve(rows.size());
  for (uint32_t r : rows) {
    if (r >= labels.size()) {
      return Status::InvalidArgument(StringFormat(
          "row index %u out of range (%u rows)", r, view.num_rows()));
    }
    set.labels.push_back(labels[r]);
  }
  set.codes = GatherSlotCodes(
      view, features, std::vector<bool>(features.size(), true), rows);
  return set;
}

std::vector<std::vector<uint32_t>> GatherTrainedCodes(
    const DataView& view, const char* model, bool trained,
    const std::vector<uint32_t>& features, const std::vector<bool>& tested,
    const std::vector<uint32_t>& rows) {
  HAMLET_CHECK(trained, "%s::Predict before Train", model);
  for (uint32_t j : features) {
    HAMLET_CHECK(j < view.num_features(),
                 "trained feature index %u out of range (%u features)", j,
                 view.num_features());
  }
  return GatherSlotCodes(view, features, tested, rows);
}

void MarkTestedSlots(const std::vector<int32_t>& split_slot,
                     std::vector<bool>* tested) {
  for (int32_t slot : split_slot) {
    if (slot >= 0) (*tested)[slot] = true;
  }
}

uint32_t LongestWalk(const std::vector<int32_t>& split_slot,
                     const std::vector<int32_t>& left,
                     const std::vector<int32_t>& right) {
  // Pre-order storage puts every child after its parent, so one forward
  // pass sees each node's walk length before its children's.
  std::vector<uint32_t> walk(split_slot.size(), 1);
  uint32_t longest = 0;
  for (size_t i = 0; i < split_slot.size(); ++i) {
    if (split_slot[i] < 0) {
      longest = std::max(longest, walk[i]);
    } else {
      walk[left[i]] = walk[right[i]] = walk[i] + 1;
    }
  }
  return longest;
}

}  // namespace hamlet
