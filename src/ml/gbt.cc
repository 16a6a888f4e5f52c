#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/parallel_for.h"
#include "ml/decision_tree.h"
#include "ml/data_view.h"
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

/// One regression-tree node's pending work: its rows plus per-slot
/// gradient/hessian/count histograms and its G/H totals.
struct RegNodeWork {
  std::vector<uint32_t> items;
  std::vector<std::vector<double>> gh;    // Per slot, [code * 2 + {g, h}].
  std::vector<std::vector<uint64_t>> cnt; // Per slot, [code].
  double g_total = 0.0;
  double h_total = 0.0;
  uint32_t depth = 0;
};

/// Grows one flat pre-order regression tree for class column `k` and
/// applies each finalized leaf's value to the boosted score matrix. Same
/// parallel-histogram + subtraction-trick shape as the classification
/// TreeBuilder (ml/decision_tree.cc); all double accumulations are pinned
/// to ascending item order inside one work item per slot.
struct RegTreeBuilder {
  const GbtOptions& options;
  const std::vector<std::vector<uint32_t>>& codes;  // Per slot, node-local.
  const std::vector<uint32_t>& cards;
  const std::vector<double>& g;  // Flat [i * num_classes + k].
  const std::vector<double>& h;
  uint32_t k;
  uint32_t num_classes;
  uint32_t max_depth;
  uint32_t table_grain;  // TableGrain of the split scan and subtraction.
  std::vector<double>* scores;   // Flat [i * num_classes + k], updated.
  GbtTree* tree;

  void BuildHistograms(const std::vector<uint32_t>& items,
                       std::vector<std::vector<double>>* gh,
                       std::vector<std::vector<uint64_t>>* cnt) const {
    const uint32_t d = static_cast<uint32_t>(codes.size());
    gh->resize(d);
    cnt->resize(d);
    ParallelFor(
        d,
        [&](uint32_t jj) {
          std::vector<double>& gj = (*gh)[jj];
          std::vector<uint64_t>& cj = (*cnt)[jj];
          gj.assign(static_cast<size_t>(cards[jj]) * 2, 0.0);
          cj.assign(cards[jj], 0);
          const std::vector<uint32_t>& col = codes[jj];
          for (uint32_t i : items) {
            const size_t c = col[i];
            gj[c * 2] += g[static_cast<size_t>(i) * num_classes + k];
            gj[c * 2 + 1] += h[static_cast<size_t>(i) * num_classes + k];
            ++cj[c];
          }
        },
        NodeGrain(items.size()));
  }

  int32_t Grow(RegNodeWork&& w) {
    const int32_t idx = static_cast<int32_t>(tree->split_slot.size());
    tree->split_slot.push_back(-1);
    tree->split_code.push_back(0);
    tree->left.push_back(-1);
    tree->right.push_back(-1);
    const double hl = w.h_total + options.lambda;
    const double value =
        hl > 0.0 ? -(w.g_total / hl) * options.learning_rate : 0.0;
    tree->value.push_back(value);

    const uint64_t n_node = w.items.size();
    int32_t pick = -1;
    uint32_t pick_code = 0;
    if (w.depth < max_depth && n_node >= options.min_rows_split) {
      const uint32_t d = static_cast<uint32_t>(codes.size());
      struct SlotBest {
        double gain = 0.0;
        uint32_t code = 0;
        bool valid = false;
      };
      std::vector<SlotBest> best(d);
      const double parent_obj =
          (w.g_total * w.g_total) / (w.h_total + options.lambda);
      ParallelFor(
          d,
          [&](uint32_t jj) {
            const std::vector<double>& gj = w.gh[jj];
            const std::vector<uint64_t>& cj = w.cnt[jj];
            SlotBest b;
            for (uint32_t v = 0; v < cards[jj]; ++v) {
              const uint64_t nl = cj[v];
              if (nl == 0 || nl == n_node) continue;
              const double gl = gj[static_cast<size_t>(v) * 2];
              const double hl_v = gj[static_cast<size_t>(v) * 2 + 1];
              const double gr = w.g_total - gl;
              const double hr = w.h_total - hl_v;
              const double gain = (gl * gl) / (hl_v + options.lambda) +
                                  (gr * gr) / (hr + options.lambda) -
                                  parent_obj;
              if (!b.valid || gain > b.gain) b = {gain, v, true};
            }
            best[jj] = b;
          },
          table_grain);
      double pick_gain = options.min_gain;
      for (uint32_t jj = 0; jj < d; ++jj) {
        if (best[jj].valid && best[jj].gain > pick_gain) {
          pick = static_cast<int32_t>(jj);
          pick_gain = best[jj].gain;
          pick_code = best[jj].code;
        }
      }
    }

    if (pick < 0) {
      // Finalize the leaf: fold its value into the boosted scores.
      for (uint32_t i : w.items) {
        (*scores)[static_cast<size_t>(i) * num_classes + k] += value;
      }
      return idx;
    }

    const std::vector<uint32_t>& col = codes[pick];
    RegNodeWork lw, rw;
    lw.depth = rw.depth = w.depth + 1;
    for (uint32_t i : w.items) {
      (col[i] == pick_code ? lw.items : rw.items).push_back(i);
    }
    w.items.clear();
    w.items.shrink_to_fit();

    lw.g_total = w.gh[pick][static_cast<size_t>(pick_code) * 2];
    lw.h_total = w.gh[pick][static_cast<size_t>(pick_code) * 2 + 1];
    rw.g_total = w.g_total - lw.g_total;
    rw.h_total = w.h_total - lw.h_total;

    // Subtraction trick: build the smaller child's histograms, derive the
    // sibling's from the parent's by subtraction (deterministic — both
    // training paths run the identical sequence of operations).
    RegNodeWork* small = lw.items.size() <= rw.items.size() ? &lw : &rw;
    RegNodeWork* big = small == &lw ? &rw : &lw;
    BuildHistograms(small->items, &small->gh, &small->cnt);
    big->gh = std::move(w.gh);
    big->cnt = std::move(w.cnt);
    const uint32_t d = static_cast<uint32_t>(codes.size());
    ParallelFor(
        d,
        [&](uint32_t jj) {
          std::vector<double>& bg = big->gh[jj];
          std::vector<uint64_t>& bc = big->cnt[jj];
          const std::vector<double>& sg = small->gh[jj];
          const std::vector<uint64_t>& sc = small->cnt[jj];
          for (size_t x = 0; x < bg.size(); ++x) bg[x] -= sg[x];
          for (size_t x = 0; x < bc.size(); ++x) bc[x] -= sc[x];
        },
        table_grain);

    const int32_t lidx = Grow(std::move(lw));
    const int32_t ridx = Grow(std::move(rw));
    tree->split_slot[idx] = pick;
    tree->split_code[idx] = pick_code;
    tree->left[idx] = lidx;
    tree->right[idx] = ridx;
    return idx;
  }
};

/// Leaf value of one tree for a row whose slot codes come from `fetch`.
template <typename FetchCode>
double TreeValueAt(const GbtTree& t, const FetchCode& fetch) {
  int32_t node = 0;
  while (t.split_slot[node] >= 0) {
    const uint32_t slot = static_cast<uint32_t>(t.split_slot[node]);
    node = fetch(slot) == t.split_code[node] ? t.left[node] : t.right[node];
  }
  return t.value[node];
}

}  // namespace

Gbt::Gbt(GbtOptions options) : options_(options) {
  HAMLET_CHECK(options_.learning_rate > 0.0,
               "Gbt learning_rate must be positive, got %f",
               options_.learning_rate);
  HAMLET_CHECK(options_.lambda > 0.0, "Gbt lambda must be positive, got %f",
               options_.lambda);
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
  // Two gradient sums and a count per code.
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
      RegTreeBuilder builder{options_,    codes, cardinalities_,
                             g,           h,     k,
                             K,           options_.max_depth,
                             table_grain, &scores, &tree};
      RegNodeWork root;
      root.items.resize(n);
      std::iota(root.items.begin(), root.items.end(), 0u);
      root.depth = 0;
      for (uint32_t i = 0; i < n; ++i) {
        root.g_total += g[static_cast<size_t>(i) * K + k];
        root.h_total += h[static_cast<size_t>(i) * K + k];
      }
      builder.BuildHistograms(root.items, &root.gh, &root.cnt);
      builder.Grow(std::move(root));
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
    (*out)[k] += TreeValueAt(trees_[t], code);
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
  const std::vector<std::vector<uint32_t>> cols =
      GatherTrainedCodes(data, "Gbt", num_classes_ > 0, features_, rows);
  uint64_t walk = 0;
  for (const GbtTree& t : trees_) {
    walk += LongestWalk(t.split_slot, t.left, t.right);
  }
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
