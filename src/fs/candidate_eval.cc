#include "fs/candidate_eval.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "common/parallel_for.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "obs/trace.h"

namespace hamlet {

obs::Counter& FsModelsTrainedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("fs.models_trained");
  return counter;
}

obs::Histogram& FsCandidateEvalHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("fs.candidate_eval_ns");
  return histogram;
}

obs::Counter& FsDeltaEvalsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("fs.delta_evals");
  return counter;
}

const char* ScoringBackendName(ScoringBackend backend) {
  switch (backend) {
    case ScoringBackend::kNbDelta:
      return "nb_delta";
    case ScoringBackend::kScan:
      return "scan";
    case ScoringBackend::kFactorizedScan:
      return "factorized_scan";
  }
  return "unknown";
}

Result<ScoringBackend> ChooseScoringBackend(const Classifier& model,
                                            bool factorized_view,
                                            bool force_scan_eval) {
  if (dynamic_cast<const NaiveBayes*>(&model) != nullptr &&
      !force_scan_eval) {
    return ScoringBackend::kNbDelta;
  }
  if (!factorized_view) return ScoringBackend::kScan;
  if (model.ReadsFactorizedView()) return ScoringBackend::kFactorizedScan;
  return Status::InvalidArgument(StringFormat(
      "the factorized view cannot score %s models: it needs Naive Bayes "
      "with the sufficient-statistics path on, or a classifier that reads "
      "the factorized view such as decision_tree or gbt (no scan exists "
      "without the materialized join)",
      model.name().c_str()));
}

std::shared_ptr<const SuffStats> BuildViewStats(
    const DataView& view, const std::vector<uint32_t>& rows) {
  obs::TraceSpan span("fs.stats_build");
  span.AddAttr("rows", static_cast<uint64_t>(rows.size()));
  std::shared_ptr<const SuffStats> stats =
      view.materialized() != nullptr
          ? std::make_shared<const SuffStats>(
                BuildSuffStats(*view.materialized(), rows))
          : std::make_shared<const SuffStats>(
                BuildFactorizedSuffStats(*view.factorized(), rows));
  span.AddAttr("features",
               static_cast<uint64_t>(stats->feature_counts.size()));
  return stats;
}

std::shared_ptr<const SuffStats> StatsForScorer(
    const DataView& view, const std::vector<uint32_t>& train_rows,
    const ClassifierFactory& factory, bool force_scan_eval) {
  std::unique_ptr<Classifier> probe = factory();
  const Result<ScoringBackend> backend = ChooseScoringBackend(
      *probe, view.factorized() != nullptr, force_scan_eval);
  const bool reads_stats =
      backend.ok() &&
      (*backend == ScoringBackend::kNbDelta ||
       (*backend == ScoringBackend::kFactorizedScan && !force_scan_eval &&
        dynamic_cast<const DecisionTree*>(probe.get()) != nullptr));
  return reads_stats ? BuildViewStats(view, train_rows) : nullptr;
}

ClassifierFactory WithRefitBudget(ClassifierFactory factory) {
  return [factory = std::move(factory)]() -> std::unique_ptr<Classifier> {
    std::unique_ptr<Classifier> model = factory();
    if (const auto* tree = dynamic_cast<const DecisionTree*>(model.get())) {
      DecisionTreeOptions options = tree->options();
      options.max_depth =
          std::min(options.max_depth, options.candidate_max_depth);
      return std::make_unique<DecisionTree>(options);
    }
    if (const auto* gbt = dynamic_cast<const Gbt*>(model.get())) {
      GbtOptions options = gbt->options();
      options.num_rounds =
          std::min(options.num_rounds, options.candidate_rounds);
      options.max_depth =
          std::min(options.max_depth, options.candidate_max_depth);
      return std::make_unique<Gbt>(options);
    }
    return model;
  };
}

namespace {

// Subtree count for the parallel lattice DFS: enough to keep every shard
// busy (≥4× the shards the 2^d-leaf lattice gets), but never more than the
// lattice has — or than is worth the per-task setup.
uint32_t ChooseSplitBits(uint32_t d) {
  const uint32_t shards =
      ThreadPool::Global().ShardsFor(1u << std::min(d, 31u));
  uint32_t split_bits = 0;
  while ((1u << split_bits) < 4 * shards && split_bits < d &&
         split_bits < 12) {
    ++split_bits;
  }
  return split_bits;
}

// kNbDelta: every error is derived from the evaluator's log-likelihood
// tables and the per-row base scores of the current subset. The
// summation orders are pinned to the scan path's, so additions, prefixes
// and lattice leaves are bit-identical to a retrain; removals subtract,
// which re-associates the sum (~1e-15 per score, docs/PERFORMANCE.md).
class NbDeltaScorer final : public CandidateScorer {
 public:
  explicit NbDeltaScorer(std::unique_ptr<NbSubsetEvaluator> ev)
      : ev_(std::move(ev)) {}

  Result<double> ScoreBase(const std::vector<uint32_t>& base) override {
    ev_->ResetBase(base);
    return ev_->EvalBase();
  }
  void AddToBase(uint32_t feature) override { ev_->AddToBase(feature); }
  void RemoveFromBase(uint32_t feature) override {
    ev_->RemoveFromBase(feature);
  }

  Status ScoreAdditions(const std::vector<uint32_t>& adds,
                        std::vector<double>* errors) override {
    return ScoreEach(adds, &NbSubsetEvaluator::EvalBasePlus, errors);
  }

  Status ScoreRemovals(const std::vector<uint32_t>& drops,
                       std::vector<double>* errors) override {
    return ScoreEach(drops, &NbSubsetEvaluator::EvalBaseMinus, errors);
  }

  // The prefixes are nested, so one AddToBase per k scores them all —
  // strictly less work than retraining every prefix.
  Status ScorePrefixes(const std::vector<uint32_t>& ranked,
                       std::vector<double>* errors) override {
    errors->assign(ranked.size(), 0.0);
    ev_->ResetBase({});
    for (size_t k = 0; k < ranked.size(); ++k) {
      obs::ScopedLatency latency(FsCandidateEvalHistogram());
      ev_->AddToBase(ranked[k]);
      (*errors)[k] = ev_->EvalBase();
    }
    Record(ranked.size());
    return Status::OK();
  }

  // A DFS that shares partial score sums between subsets. The low
  // `split_bits` bits of the mask are enumerated as independent subtrees
  // (parallel work items); within a subtree, extending the subset by one
  // feature is a single AccumulateFeature pass, so each of the 2^d leaves
  // costs O(eval_rows × classes) instead of a full retrain. Features are
  // accumulated in ascending bit order, the scan path's order.
  Status ScoreLattice(const std::vector<uint32_t>& candidates,
                      std::vector<double>* errors) override {
    const uint32_t d = static_cast<uint32_t>(candidates.size());
    const uint32_t split_bits = ChooseSplitBits(d);
    errors->assign(size_t{1} << d, 0.0);
    const NbSubsetEvaluator& ev = *ev_;
    ParallelFor(1u << split_bits, [&](uint32_t prefix) {
      // One score buffer per DFS level, reused across the whole subtree.
      std::vector<std::vector<double>> levels(d - split_bits + 1);
      ev.InitScores(&levels[0]);
      for (uint32_t j = 0; j < split_bits; ++j) {
        if (prefix & (1u << j)) {
          ev.AccumulateFeature(candidates[j], levels[0], &levels[0]);
        }
      }
      auto rec = [&](auto&& self, uint32_t level, uint32_t bit,
                     uint32_t mask) -> void {
        if (bit == d) {
          obs::ScopedLatency latency(FsCandidateEvalHistogram());
          (*errors)[mask] = ev.ErrorFromScores(levels[level]);
          return;
        }
        self(self, level, bit + 1, mask);  // Exclude candidates[bit].
        ev.AccumulateFeature(candidates[bit], levels[level],
                             &levels[level + 1]);
        self(self, level + 1, bit + 1, mask | (1u << bit));
      };
      rec(rec, 0, split_bits, prefix);
    });
    Record(errors->size());
    return Status::OK();
  }

 private:
  using DeltaEval = double (NbSubsetEvaluator::*)(uint32_t) const;

  Status ScoreEach(const std::vector<uint32_t>& features, DeltaEval eval,
                   std::vector<double>* errors) const {
    const uint32_t m = static_cast<uint32_t>(features.size());
    errors->assign(m, 0.0);
    const NbSubsetEvaluator& ev = *ev_;
    ParallelFor(m, [&](uint32_t i) {
      obs::ScopedLatency latency(FsCandidateEvalHistogram());
      (*errors)[i] = (ev.*eval)(features[i]);
    });
    Record(m);
    return Status::OK();
  }

  static void Record(uint64_t count) {
    FsModelsTrainedCounter().Add(count);
    FsDeltaEvalsCounter().Add(count);
  }

  std::unique_ptr<NbSubsetEvaluator> ev_;
};

// kScan and kFactorizedScan: `retrain_` trains a fresh model on one
// subset and returns its error, so every candidate is a full retrain.
class RetrainScorer final : public CandidateScorer {
 public:
  using Retrain =
      std::function<Result<double>(const std::vector<uint32_t>& features)>;

  explicit RetrainScorer(Retrain retrain) : retrain_(std::move(retrain)) {}

  Result<double> ScoreBase(const std::vector<uint32_t>& base) override {
    base_ = base;
    return retrain_(base_);
  }
  void AddToBase(uint32_t feature) override { base_.push_back(feature); }
  void RemoveFromBase(uint32_t feature) override {
    base_.erase(std::find(base_.begin(), base_.end(), feature));
  }

  Status ScoreAdditions(const std::vector<uint32_t>& adds,
                        std::vector<double>* errors) override {
    return ScoreEach(
        adds.size(),
        [&](uint32_t i) {
          std::vector<uint32_t> trial = base_;
          trial.push_back(adds[i]);
          return trial;
        },
        errors);
  }

  Status ScoreRemovals(const std::vector<uint32_t>& drops,
                       std::vector<double>* errors) override {
    return ScoreEach(
        drops.size(),
        [&](uint32_t i) {
          std::vector<uint32_t> trial;
          trial.reserve(base_.size());
          for (uint32_t f : base_) {
            if (f != drops[i]) trial.push_back(f);
          }
          return trial;
        },
        errors);
  }

  Status ScorePrefixes(const std::vector<uint32_t>& ranked,
                       std::vector<double>* errors) override {
    return ScoreEach(
        ranked.size(),
        [&](uint32_t i) {
          return std::vector<uint32_t>(ranked.begin(), ranked.begin() + i + 1);
        },
        errors);
  }

  Status ScoreLattice(const std::vector<uint32_t>& candidates,
                      std::vector<double>* errors) override {
    const uint32_t d = static_cast<uint32_t>(candidates.size());
    return ScoreEach(
        size_t{1} << d,
        [&](uint32_t mask) {
          std::vector<uint32_t> subset;
          for (uint32_t j = 0; j < d; ++j) {
            if (mask & (1u << j)) subset.push_back(candidates[j]);
          }
          return subset;
        },
        errors);
  }

 private:
  // Retrains `make_trial(i)`'s subset for every i in [0, count) in
  // parallel, one slot per candidate, and returns the first failure in
  // index order if any retrain failed.
  template <typename MakeTrial>
  Status ScoreEach(size_t count, const MakeTrial& make_trial,
                   std::vector<double>* errors) const {
    const uint32_t n = static_cast<uint32_t>(count);
    errors->assign(n, 0.0);
    std::vector<Status> statuses(n);
    ParallelFor(n, [&](uint32_t i) {
      obs::ScopedLatency latency(FsCandidateEvalHistogram());
      Result<double> err = retrain_(make_trial(i));
      if (err.ok()) {
        (*errors)[i] = *err;
      } else {
        statuses[i] = err.status();
      }
    });
    FsModelsTrainedCounter().Add(n);
    for (const Status& st : statuses) {
      HAMLET_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  Retrain retrain_;
  std::vector<uint32_t> base_;
};

}  // namespace

Result<std::unique_ptr<CandidateScorer>> MakeCandidateScorer(
    const DataView& view, const std::vector<uint32_t>& train_rows,
    const std::vector<uint32_t>& eval_rows, const ClassifierFactory& factory,
    ErrorMetric metric, const std::vector<uint32_t>& candidates,
    std::shared_ptr<const SuffStats> stats, bool force_scan_eval) {
  if (train_rows.empty()) {
    return Status::InvalidArgument("cannot select features on zero rows");
  }
  // The factory is an opaque std::function; probe one instance to learn
  // the concrete classifier (and Naive Bayes' smoothing constant).
  std::unique_ptr<Classifier> probe = factory();
  HAMLET_ASSIGN_OR_RETURN(
      ScoringBackend backend,
      ChooseScoringBackend(*probe, view.factorized() != nullptr,
                           force_scan_eval));
  if (backend == ScoringBackend::kNbDelta) {
    const double alpha = static_cast<const NaiveBayes&>(*probe).alpha();
    if (stats == nullptr) stats = BuildViewStats(view, train_rows);
    return std::unique_ptr<CandidateScorer>(std::make_unique<NbDeltaScorer>(
        std::make_unique<NbSubsetEvaluator>(view, std::move(stats), eval_rows,
                                            metric, alpha, candidates)));
  }

  // kScan and kFactorizedScan: one retrain on either view. The view is
  // two pointers, copied into the scorer; labels are gathered once per
  // scorer, not once per candidate. Every model trains and predicts the
  // same bits on both views, so every error equals the materialized one.
  std::vector<uint32_t> labels;
  labels.reserve(eval_rows.size());
  for (uint32_t r : eval_rows) labels.push_back(view.labels()[r]);
  RetrainScorer::Retrain retrain =
      [&factory, view, &train_rows, stats = std::move(stats), &eval_rows,
       labels = std::move(labels),
       metric](const std::vector<uint32_t>& features) -> Result<double> {
    std::unique_ptr<Classifier> model = factory();
    HAMLET_RETURN_NOT_OK(
        model->Train(view, train_rows, features, stats.get()));
    return ComputeError(metric, labels, model->Predict(view, eval_rows));
  };
  return std::unique_ptr<CandidateScorer>(
      std::make_unique<RetrainScorer>(std::move(retrain)));
}

}  // namespace hamlet
