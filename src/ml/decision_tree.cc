#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "ml/data_view.h"
#include "ml/suff_stats.h"
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
/// ascending class order — the pinned expression both training paths use.
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

/// One node's pending work: its rows (as indices into the gathered code
/// matrix), its per-slot histograms, and its class counts.
struct NodeWork {
  std::vector<uint32_t> items;
  std::vector<std::vector<uint64_t>> hist;  // Per slot, [code * K + y].
  std::vector<uint64_t> cls;                // [y].
  uint32_t depth = 0;
};

/// Grows the flat pre-order node arrays. One instance per training;
/// recursion is depth-bounded by max_depth, and a parent's histograms are
/// moved into the larger child (subtraction trick) before recursing, so
/// live histogram memory is O(depth * d * card * K), not O(nodes).
struct TreeBuilder {
  const DecisionTreeOptions& options;
  uint32_t num_classes;
  const std::vector<uint32_t>& labels;
  const std::vector<std::vector<uint32_t>>& codes;  // Per slot, node-local.
  const std::vector<uint32_t>& cards;
  uint32_t max_depth;
  uint32_t table_grain;  // TableGrain of the split scan and subtraction.

  std::vector<int32_t>* split_slot;
  std::vector<uint32_t>* split_code;
  std::vector<int32_t>* left;
  std::vector<int32_t>* right;
  std::vector<double>* scores;

  /// One pass over `items` (one feature slot per work item, each writing
  /// only its own table — the BuildSuffStats sharding contract), parallel
  /// when the node's rows x slots are worth it.
  void BuildHistograms(const std::vector<uint32_t>& items,
                       std::vector<std::vector<uint64_t>>* hist) const {
    const uint32_t d = static_cast<uint32_t>(codes.size());
    hist->resize(d);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          std::vector<uint64_t>& h = (*hist)[jj];
          h.assign(static_cast<size_t>(cards[jj]) * num_classes, 0);
          const std::vector<uint32_t>& col = codes[jj];
          for (uint32_t i : items) {
            ++h[static_cast<size_t>(col[i]) * num_classes + labels[i]];
          }
        },
        NodeGrain(items.size()));
  }

  int32_t Grow(NodeWork&& w) {
    const int32_t idx = static_cast<int32_t>(split_slot->size());
    split_slot->push_back(-1);
    split_code->push_back(0);
    left->push_back(-1);
    right->push_back(-1);

    // Every node carries smoothed class log-probabilities — the same
    // expression as the Naive Bayes prior, so a depth-0 tree IS the
    // prior-only model.
    const uint64_t n_node = w.items.size();
    const double denom = static_cast<double>(n_node) +
                         options.alpha * static_cast<double>(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      scores->push_back(std::log(
          (static_cast<double>(w.cls[y]) + options.alpha) / denom));
    }

    if (w.depth >= max_depth || n_node < options.min_rows_split) return idx;
    for (uint32_t y = 0; y < num_classes; ++y) {
      if (w.cls[y] == n_node) return idx;  // Pure node.
    }

    // Best split per slot in parallel (codes ascending, strictly-greater
    // gain wins), then a serial slot-ordered reduction so the lowest slot
    // wins exact cross-feature ties at any thread count.
    const uint32_t d = static_cast<uint32_t>(codes.size());
    struct SlotBest {
      double gain = 0.0;
      uint32_t code = 0;
      bool valid = false;
    };
    std::vector<SlotBest> best(d);
    const double parent_gini = GiniOf(w.cls.data(), num_classes, n_node);
    const double n_d = static_cast<double>(n_node);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          const std::vector<uint64_t>& h = w.hist[jj];
          std::vector<uint64_t> l(num_classes), r(num_classes);
          SlotBest b;
          for (uint32_t v = 0; v < cards[jj]; ++v) {
            uint64_t nl = 0;
            for (uint32_t y = 0; y < num_classes; ++y) {
              l[y] = h[static_cast<size_t>(v) * num_classes + y];
              nl += l[y];
            }
            if (nl == 0 || nl == n_node) continue;
            for (uint32_t y = 0; y < num_classes; ++y) r[y] = w.cls[y] - l[y];
            const uint64_t nr = n_node - nl;
            const double weighted =
                (static_cast<double>(nl) / n_d) *
                    GiniOf(l.data(), num_classes, nl) +
                (static_cast<double>(nr) / n_d) *
                    GiniOf(r.data(), num_classes, nr);
            const double gain = parent_gini - weighted;
            if (!b.valid || gain > b.gain) b = {gain, v, true};
          }
          best[jj] = b;
        },
        table_grain);
    int32_t pick = -1;
    double pick_gain = options.min_gain;
    for (uint32_t jj = 0; jj < d; ++jj) {
      if (best[jj].valid && best[jj].gain > pick_gain) {
        pick = static_cast<int32_t>(jj);
        pick_gain = best[jj].gain;
      }
    }
    if (pick < 0) return idx;

    // Partition in ascending item order (left = code match).
    const uint32_t v = best[pick].code;
    const std::vector<uint32_t>& col = codes[pick];
    NodeWork lw, rw;
    lw.depth = rw.depth = w.depth + 1;
    for (uint32_t i : w.items) {
      (col[i] == v ? lw.items : rw.items).push_back(i);
    }
    w.items.clear();
    w.items.shrink_to_fit();

    // Child class counts straight from the parent histogram.
    lw.cls.resize(num_classes);
    rw.cls.resize(num_classes);
    for (uint32_t y = 0; y < num_classes; ++y) {
      lw.cls[y] = w.hist[pick][static_cast<size_t>(v) * num_classes + y];
      rw.cls[y] = w.cls[y] - lw.cls[y];
    }

    // Subtraction trick: build the smaller child's histograms with one
    // pass, then derive the sibling's by subtracting them from the
    // parent's (exact — integer counts). The parent's tables are moved,
    // not copied.
    NodeWork* small = lw.items.size() <= rw.items.size() ? &lw : &rw;
    NodeWork* big = small == &lw ? &rw : &lw;
    BuildHistograms(small->items, &small->hist);
    big->hist = std::move(w.hist);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          std::vector<uint64_t>& bh = big->hist[jj];
          const std::vector<uint64_t>& sh = small->hist[jj];
          for (size_t x = 0; x < bh.size(); ++x) bh[x] -= sh[x];
        },
        table_grain);

    const int32_t lidx = Grow(std::move(lw));
    const int32_t ridx = Grow(std::move(rw));
    (*split_slot)[idx] = pick;
    (*split_code)[idx] = v;
    (*left)[idx] = lidx;
    (*right)[idx] = ridx;
    return idx;
  }
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

/// Each slot's codes at `rows`, one slot per work item.
std::vector<std::vector<uint32_t>> GatherSlotCodes(
    const DataView& view, const std::vector<uint32_t>& features,
    const std::vector<uint32_t>& rows) {
  const uint32_t d = static_cast<uint32_t>(features.size());
  std::vector<std::vector<uint32_t>> codes(d);
  ParallelFor(
      d,
      [&](uint32_t jj) { view.GatherCodes(features[jj], rows, &codes[jj]); },
      NodeGrain(rows.size()));
  return codes;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {
  HAMLET_CHECK(options_.alpha > 0.0,
               "DecisionTree alpha must be positive, got %f", options_.alpha);
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

  TreeBuilder builder{options_,
                      num_classes_,
                      set.labels,
                      set.codes,
                      cardinalities_,
                      options_.max_depth,
                      TableGrain(cardinalities_, num_classes_),
                      &split_slot_,
                      &split_code_,
                      &left_,
                      &right_,
                      &scores_};

  NodeWork root;
  root.items.resize(rows.size());
  std::iota(root.items.begin(), root.items.end(), 0u);
  root.depth = 0;
  if (RootStatsUsable(stats, rows.size(), num_classes_, features_,
                      cardinalities_)) {
    // The counts are integers, so the statistics' tables equal the
    // histograms a pass over the gathered codes would build.
    root.cls = stats->class_counts;
    root.hist.resize(features_.size());
    for (size_t jj = 0; jj < features_.size(); ++jj) {
      root.hist[jj] = stats->feature_counts[features_[jj]];
    }
  } else {
    root.cls.assign(num_classes_, 0);
    for (uint32_t y : set.labels) ++root.cls[y];
    builder.BuildHistograms(root.items, &root.hist);
  }
  builder.Grow(std::move(root));

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
  return BestClass(LeafOf(
      [&](uint32_t slot) { return data.feature(features_[slot])[row]; }));
}

std::vector<uint32_t> DecisionTree::Predict(
    const DataView& data, const std::vector<uint32_t>& rows) const {
  const std::vector<std::vector<uint32_t>> cols = GatherTrainedCodes(
      data, "DecisionTree", num_nodes() > 0, features_, rows);
  std::vector<uint32_t> out(rows.size());
  ParallelFor(
      static_cast<uint32_t>(rows.size()),
      [&](uint32_t i) {
        out[i] =
            BestClass(LeafOf([&](uint32_t slot) { return cols[slot][i]; }));
      },
      NodeGrain(LongestWalk(split_slot_, left_, right_)));
  return out;
}

void DecisionTree::LogScoresInto(const EncodedDataset& data, uint32_t row,
                                 std::vector<double>* out) const {
  HAMLET_CHECK(num_nodes() > 0, "DecisionTree::LogScoresInto before Train");
  const int32_t node = LeafOf(
      [&](uint32_t slot) { return data.feature(features_[slot])[row]; });
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
  set.codes = GatherSlotCodes(view, features, rows);
  return set;
}

std::vector<std::vector<uint32_t>> GatherTrainedCodes(
    const DataView& view, const char* model, bool trained,
    const std::vector<uint32_t>& features,
    const std::vector<uint32_t>& rows) {
  HAMLET_CHECK(trained, "%s::Predict before Train", model);
  for (uint32_t j : features) {
    HAMLET_CHECK(j < view.num_features(),
                 "trained feature index %u out of range (%u features)", j,
                 view.num_features());
  }
  return GatherSlotCodes(view, features, rows);
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
