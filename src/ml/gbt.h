#ifndef HAMLET_ML_GBT_H_
#define HAMLET_ML_GBT_H_

/// \file gbt.h
/// Gradient-boosted trees over one-vs-rest (softmax) log-loss — the
/// JoinBoost-style ensemble companion to ml/decision_tree.h, and the
/// high-capacity classifier the capacity-aware advisor re-test
/// (EXPERIMENTS.md) is about.
///
/// Each boosting round fits one second-order regression tree per class to
/// the softmax gradients/hessians (g = p - 1[y=k], h = p(1-p)), with
/// splits scored by the XGBoost gain
///     G_L^2/(H_L+λ) + G_R^2/(H_R+λ) - G^2/(H+λ)
/// read from per-(feature, code) gradient/hessian histograms, and leaf
/// values -η·G/(H+λ). Histograms use the same machinery as the
/// classification tree: one pass per node (one feature slot per work
/// item, items accumulated in ascending order, sharded by the same
/// NodeGrain rule) and the subtraction trick for siblings.
///
/// Determinism contract: every floating-point accumulation is pinned —
/// gradients per row in ascending (row, class) order, histogram buckets
/// in ascending item order within a slot's single work item, node totals
/// serially in item order, winners by serial slot-ordered reduction with
/// strictly-greater gain (lowest slot, then lowest code, wins exact
/// ties). Train and Predict take either view (ml/data_view.h), and each
/// has one body, which gathers the columns through the view
/// (GatherTreeTrainingSet and GatherTrainedCodes in ml/decision_tree.h:
/// a column read on the joined table, the FK -> R hops on the factorized
/// view) and then runs the same code on them, so ensembles are
/// bit-identical at any thread count AND between the materialized and
/// factorized views (docs/TREES.md; ctest label `factorized`).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "ml/classifier.h"

namespace hamlet {

/// Training knobs. `candidate_rounds`/`candidate_max_depth` are the
/// cheap-refit budget: the forward and backward searches train each
/// candidate with rounds and depth capped there (fs/candidate_eval.h's
/// WithRefitBudget) and leave the full budget to the final fit.
struct GbtOptions {
  uint32_t num_rounds = 20;      ///< Boosting rounds (num_classes trees each).
  double learning_rate = 0.3;    ///< η, folded into stored leaf values.
  double lambda = 1.0;           ///< L2 regularizer on leaf values (> 0).
  uint32_t max_depth = 3;        ///< Per-tree depth cap (root is depth 0).
  uint64_t min_rows_split = 16;  ///< Nodes smaller than this become leaves.
  double min_gain = 1e-12;       ///< Minimum gain to accept a split.
  uint32_t candidate_rounds = 4;     ///< Round cap of candidate retrains.
  uint32_t candidate_max_depth = 2;  ///< Depth cap of candidate retrains.
};

/// One flat pre-order regression tree of the ensemble (same layout as
/// DecisionTreeParams' node arrays; `value` is the leaf value with the
/// learning rate already folded in, stored for every node).
struct GbtTree {
  std::vector<int32_t> split_slot;   ///< Per node; -1 marks a leaf.
  std::vector<uint32_t> split_code;  ///< Per node; 0 for leaves.
  std::vector<int32_t> left;         ///< Per node; -1 for leaves.
  std::vector<int32_t> right;        ///< Per node; -1 for leaves.
  std::vector<double> value;         ///< Per node.
};

/// The complete trained state of a Gbt ensemble, as plain data — the
/// serialization surface (serve/serde.h). Trees are stored round-major,
/// class-minor: trees[m * num_classes + k] is round m's tree for class k.
struct GbtParams {
  double learning_rate = 0.3;
  double lambda = 1.0;
  uint32_t num_classes = 0;
  std::vector<uint32_t> features;       ///< Trained slot -> feature index.
  std::vector<uint32_t> cardinalities;  ///< Per slot, training-time |D_F|.
  std::vector<double> base_scores;      ///< [y] initial logits (log priors).
  std::vector<GbtTree> trees;
};

/// Gradient-boosted one-vs-rest ensemble:
///   score_y(x) = base_y + sum_m tree_{m,y}(x),
///   predict argmax_y score_y  (first strictly-greatest wins).
class Gbt : public Classifier {
 public:
  explicit Gbt(GbtOptions options = {});

  static constexpr ModelTraits kTraits = {ModelKind::kGradientBoostedTrees,
                                          StatsUse::kNone,
                                          /*reads_factorized_view=*/true};
  ModelTraits traits() const override { return kTraits; }

  uint32_t PredictOne(const EncodedDataset& data, uint32_t row) const override;

  /// Gathers the columns some tree tests at `rows` (GatherTrainedCodes),
  /// then sums each row's tree values, sharded by NodeGrain over the
  /// summed LongestWalk of the trees. Equal to PredictOne at every row, on
  /// either view.
  std::vector<uint32_t> Predict(
      const DataView& data,
      const std::vector<uint32_t>& rows) const override;

  /// Caps num_rounds at candidate_rounds and max_depth at
  /// candidate_max_depth.
  void CapToCandidateBudget() override;

  /// Boosted per-class logits of one row, written into `*out` (resized to
  /// num_classes) — the serving layer's batched scoring hook, same
  /// contract as NaiveBayes::LogScoresInto.
  void LogScoresInto(const EncodedDataset& data, uint32_t row,
                     std::vector<double>* out) const;

  uint32_t num_classes() const { return num_classes_; }
  uint32_t num_trees() const { return static_cast<uint32_t>(trees_.size()); }

  uint32_t trained_cardinality(size_t jj) const override;
  const std::vector<uint32_t>& trained_features() const override {
    return features_;
  }

  const GbtOptions& options() const { return options_; }

  /// Copies the trained state out as plain data.
  GbtParams ExportParams() const;

  /// Rebuilds an ensemble from exported state; InvalidArgument on any
  /// inconsistency — the deserialization entry point.
  static Result<Gbt> FromParams(GbtParams params);

 protected:
  /// Trains on either view: candidate columns are gathered through
  /// GatherTreeTrainingSet. Gradient histograms are not contingency
  /// counts, so `stats` is unused.
  Status DoTrain(const DataView& data, const std::vector<uint32_t>& rows,
                 const std::vector<uint32_t>& features,
                 const SuffStats* stats) override;

 private:
  // Boosted per-class logits into `*out`, the codes per slot from
  // `code(slot)`; the one scoring body of LogScoresInto and Predict.
  template <typename CodeAt>
  void ScoresInto(const CodeAt& code, std::vector<double>* out) const;
  // The first strictly-greatest of `scores`.
  uint32_t BestClass(const std::vector<double>& scores) const;

  GbtOptions options_;
  uint32_t num_classes_ = 0;
  std::vector<uint32_t> features_;       // Trained slot -> feature index.
  std::vector<uint32_t> cardinalities_;  // Per slot.
  std::vector<double> base_scores_;      // [y].
  std::vector<GbtTree> trees_;           // Round-major, class-minor.
};

/// Factory for wrappers, the pipeline, and the Monte Carlo study.
ClassifierFactory MakeGbtFactory(GbtOptions options = {});

}  // namespace hamlet

#endif  // HAMLET_ML_GBT_H_
