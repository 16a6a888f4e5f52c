#ifndef HAMLET_ML_DECISION_TREE_H_
#define HAMLET_ML_DECISION_TREE_H_

/// \file decision_tree.h
/// Histogram-based CART over categorical features — the repo's first
/// high-capacity classifier, built to re-ask the paper's join-avoidance
/// question for the model class the follow-up work ("Are Key-Foreign Key
/// Joins Safe to Avoid when Learning High-Capacity Classifiers?") studies.
///
/// Every split is scored from per-(feature, value, class) contingency
/// counts — the same integer histograms SuffStats holds — so a node's
/// candidate splits cost one table scan of its histogram, not a data
/// scan. The tree grows through the grower Gbt's regression trees also
/// use (ml/tree_grower.h); this file supplies only its Gini criterion:
/// K class counts per code, the Gini decrease, the pure-node stop, and
/// the smoothed class log-probabilities every node carries. The grower
/// builds a node's histograms with one pass over its rows (one feature
/// per work item, the BuildSuffStats sharding contract, sharded by the
/// grain rule NodeGrain below) and gets the sibling's by subtracting the
/// built child from the parent (the classic "subtraction trick"), which
/// is exact because the counts are integers. Train can take the root
/// histograms from its `stats` argument, the train split's SuffStats (the
/// counts are bit-identical, see ml/factorized.h), so feature-selection
/// searches that retrain hundreds of trees on one split pay for them once.
///
/// Train and Predict take either view (ml/data_view.h), and each has one
/// body. The views differ only in how a slot's codes are gathered
/// (DataView::GatherCodes: a column read on the joined table, an
/// S.FK -> R hop per row on the factorized view), and the preludes this
/// file shares with Gbt (GatherTreeTrainingSet, GatherTrainedCodes) do
/// that gather once, so everything after it is the same code on the same
/// codes.
///
/// Determinism contract (mirrors the rest of the library, and is the
/// grower's): histograms are integer counts built one-feature-per-work-
/// item, the best split is chosen by a serial reduction in ascending
/// feature-slot order with strictly-greater-gain wins (lowest slot, then
/// lowest code, wins exact ties), rows partition in ascending order, and
/// leaf scores use one pinned floating-point expression. Trees are
/// therefore bit-identical at any thread count AND between the
/// materialized and factorized training paths
/// (tests/factorized_tree_equivalence_test.cc, ctest label `factorized`;
/// docs/TREES.md has the full math).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "ml/classifier.h"

namespace hamlet {

/// Training knobs. `alpha` smooths the leaf class probabilities exactly
/// like the Naive Bayes prior (footnote 2's handling of values absent
/// from a sample). `candidate_max_depth` is the cheap-refit budget: the
/// forward and backward searches train each candidate with max_depth
/// capped there (fs/candidate_eval.h's WithRefitBudget), so the O(d^2)
/// wrapper retrains grow stumps while the final fit grows the full tree.
struct DecisionTreeOptions {
  double alpha = 1.0;             ///< Laplace pseudo-count for leaf probs.
  uint32_t max_depth = 6;         ///< Root is depth 0.
  uint64_t min_rows_split = 8;    ///< Nodes smaller than this become leaves.
  double min_gain = 1e-12;        ///< Minimum Gini decrease to split.
  uint32_t candidate_max_depth = 2;  ///< Depth cap of candidate retrains.
};

/// The complete trained state of a DecisionTree, as plain data — the
/// serialization surface (serve/serde.h), mirroring NaiveBayesParams.
/// Nodes are stored flat in pre-order: internal node i tests
/// `code(features[split_slot[i]]) == split_code[i]` and goes to left[i]
/// on equal, right[i] otherwise; split_slot[i] < 0 marks a leaf. Every
/// node carries its smoothed per-class log-probabilities (flat
/// [node * num_classes + y]), so partial trees score too and a round
/// trip is bit-exact.
struct DecisionTreeParams {
  double alpha = 1.0;
  uint32_t num_classes = 0;
  std::vector<uint32_t> features;       ///< Trained slot -> feature index.
  std::vector<uint32_t> cardinalities;  ///< Per slot, training-time |D_F|.
  std::vector<int32_t> split_slot;      ///< Per node; -1 marks a leaf.
  std::vector<uint32_t> split_code;     ///< Per node; 0 for leaves.
  std::vector<int32_t> left;            ///< Per node; -1 for leaves.
  std::vector<int32_t> right;           ///< Per node; -1 for leaves.
  std::vector<double> scores;           ///< Flat [node * num_classes + y].
};

/// Histogram CART classifier:
///   predict argmax_y leaf_scores[y]  (first strictly-greatest wins)
/// over binary one-vs-rest categorical splits chosen by Gini decrease.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeOptions options = {});

  static constexpr ModelTraits kTraits = {
      ModelKind::kDecisionTree, StatsUse::kRootHistograms,
      /*reads_factorized_view=*/true};
  ModelTraits traits() const override { return kTraits; }

  uint32_t PredictOne(const EncodedDataset& data, uint32_t row) const override;

  /// Gathers the tested columns at `rows` (GatherTrainedCodes), then
  /// walks each row to its leaf, sharded by NodeGrain over the tree's
  /// longest walk. Equal to PredictOne at every row, on either view.
  std::vector<uint32_t> Predict(
      const DataView& data,
      const std::vector<uint32_t>& rows) const override;

  /// Caps max_depth at candidate_max_depth.
  void CapToCandidateBudget() override;

  /// Per-class log-scores of `row`'s leaf, written into `*out` (resized
  /// to num_classes) — the serving layer's batched scoring hook, same
  /// contract as NaiveBayes::LogScoresInto.
  void LogScoresInto(const EncodedDataset& data, uint32_t row,
                     std::vector<double>* out) const;

  uint32_t num_classes() const { return num_classes_; }
  uint32_t num_nodes() const {
    return static_cast<uint32_t>(split_slot_.size());
  }

  uint32_t trained_cardinality(size_t jj) const override;
  const std::vector<uint32_t>& trained_features() const override {
    return features_;
  }

  /// Copies the trained state out as plain data.
  DecisionTreeParams ExportParams() const;

  /// Rebuilds a model from exported state; InvalidArgument on any
  /// inconsistency (size mismatch, dangling child, unreachable node,
  /// out-of-domain split code) — the deserialization entry point.
  static Result<DecisionTree> FromParams(DecisionTreeParams params);

 protected:
  /// Trains on either view: candidate columns are gathered through
  /// GatherTreeTrainingSet. When `stats` fit the trained features (same
  /// rows and classes, a table per slot of its cardinality), the root
  /// histograms are copied from them instead of built by a pass; the
  /// counts are integers, so the tree is the same bits either way.
  Status DoTrain(const DataView& data, const std::vector<uint32_t>& rows,
                 const std::vector<uint32_t>& features,
                 const SuffStats* stats) override;

 private:
  // The leaf's first strictly-greatest class score.
  uint32_t BestClass(int32_t node) const;

  DecisionTreeOptions options_;
  uint32_t num_classes_ = 0;
  std::vector<uint32_t> features_;       // Trained slot -> feature index.
  std::vector<uint32_t> cardinalities_;  // Per slot.
  std::vector<int32_t> split_slot_;      // Flat pre-order nodes.
  std::vector<uint32_t> split_code_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<double> scores_;           // [node * num_classes + y].
};

/// Factory for wrappers, the pipeline, and the Monte Carlo study.
ClassifierFactory MakeDecisionTreeFactory(DecisionTreeOptions options = {});

/// Validates one flat pre-order tree's structure — shared by the
/// DecisionTree and Gbt deserialization entry points. Checks: consistent
/// array sizes, leaves (split_slot < 0) have no children, internal nodes
/// index a valid slot with an in-domain split code and strictly-forward
/// distinct children, and every node is reachable from the root exactly
/// once. `context` prefixes error messages ("DecisionTree params", ...).
Status ValidateTreeStructure(const std::vector<int32_t>& split_slot,
                             const std::vector<uint32_t>& split_code,
                             const std::vector<int32_t>& left,
                             const std::vector<int32_t>& right,
                             size_t num_slots,
                             const std::vector<uint32_t>& cardinalities,
                             const char* context);

/// Fewest cells worth one shard of a tree learner's loops. A cell is one
/// row of one slot in a histogram pass, or one table entry in a
/// split scan or sibling subtraction; it costs 1-4 ns, while waking pool
/// workers for a region costs 10-20 us. Measured on a 4-CPU host (a
/// histogram pass over a node's rows x {2, 8, 16} slots, 40 codes, 5
/// classes, medians of 5 runs): passes of up to 8192 cells ran 1.3-15x
/// faster inline than on 2 or 4 shards; at 16384 cells 2 shards lost
/// 1.5x on 2 slots, tied on 16 and won 2x on 8; from 32768 cells the
/// best of 2 and 4 shards won by 1.1-3x. 8192 cells per shard keeps the
/// first inline and shards from 16384 cells on.
inline constexpr uint64_t kNodeCellGrain = 8192;

/// The grain, in items, of a tree learner's loop whose items cost
/// `cells_per_item` cells each: the fewest items that carry
/// kNodeCellGrain cells. The one grain rule of both learners' per-node
/// loops (histogram pass: the node's rows per slot; split scan and
/// subtraction: table entries per slot), GBT's gradient loop and
/// Predict's row loop (a row's cells are the node steps of its walks,
/// LongestWalk per tree), so a small node or a small batch never starts a
/// pool region.
inline uint32_t NodeGrain(uint64_t cells_per_item) {
  const uint64_t cells = cells_per_item == 0 ? 1 : cells_per_item;
  return static_cast<uint32_t>((kNodeCellGrain + cells - 1) / cells);
}

/// Fewest gathered codes per shard of the preludes' slot gather (one slot
/// of `rows` codes per work item). A code costs what a Column::Gather row
/// costs, 0.5-1.2 ns on either view. Measured on a 4-CPU host (sorted
/// random rows of MovieLens1M 0.05, 2, 8 or 27 slots of 64-50000 rows,
/// medians of 201 gathers, two runs): up to 16384 codes inline beat 2
/// and 4 shards by 1.3-5x in every case; at 32768 codes one run lost
/// 20-30% on shards and the other won 1.1-1.5x; from 65536 codes 4
/// shards won 1.3-3.5x in one run and tied or won on the factorized view
/// in the other. A grain of 16384 keeps every gather of fewer than 32768
/// codes inline (a 1,024-row Predict of up to 31 tested slots).
inline constexpr uint64_t kSlotGatherCodeGrain = 16384;

/// NodeGrain of the per-slot table loops (split scan, sibling
/// subtraction) over tables of `entries_per_code` entries per code of
/// each slot's cardinality: a slot's cost is the mean table size.
uint32_t TableGrain(const std::vector<uint32_t>& cardinalities,
                    uint32_t entries_per_code);

/// What a tree learner trains from, gathered from either view.
struct TreeTrainingSet {
  std::vector<uint32_t> labels;              ///< Per training row.
  std::vector<uint32_t> cardinalities;       ///< Per slot, |D_F| of the view.
  std::vector<std::vector<uint32_t>> codes;  ///< Per slot, per training row.
};

/// The training prelude DecisionTree and Gbt share, for either view.
/// InvalidArgument when the view has zero classes, or a feature or row
/// index is past it; otherwise the labels at `rows`, the cardinalities of
/// `features`, and each slot's codes at `rows`, gathered through
/// DataView::GatherCodes one slot per work item. The gather is the only
/// step where the views differ, so both training entries run one body on
/// the same codes.
Result<TreeTrainingSet> GatherTreeTrainingSet(
    const DataView& view, const std::vector<uint32_t>& rows,
    const std::vector<uint32_t>& features);

/// The prediction prelude of both learners' Predict, for either view:
/// the codes at `rows` of each trained slot `tested` marks (the slots some
/// split tests); the other slots stay empty. A checked failure
/// ("`model`::Predict before Train") unless `trained`, as PredictOne's,
/// and when a trained feature index is past the view.
std::vector<std::vector<uint32_t>> GatherTrainedCodes(
    const DataView& view, const char* model, bool trained,
    const std::vector<uint32_t>& features, const std::vector<bool>& tested,
    const std::vector<uint32_t>& rows);

/// Marks in `*tested` (one flag per trained slot) every slot a split of
/// one flat pre-order tree tests.
void MarkTestedSlots(const std::vector<int32_t>& split_slot,
                     std::vector<bool>* tested);

/// The leaf of one flat pre-order tree that a row reaches when
/// `code(slot)` yields its code per slot: the one tree walk of both
/// learners' PredictOne, Predict and log-score hooks.
template <typename CodeAt>
int32_t LeafOf(const std::vector<int32_t>& split_slot,
               const std::vector<uint32_t>& split_code,
               const std::vector<int32_t>& left,
               const std::vector<int32_t>& right, const CodeAt& code) {
  int32_t node = 0;
  while (split_slot[node] >= 0) {
    const uint32_t slot = static_cast<uint32_t>(split_slot[node]);
    node = code(slot) == split_code[node] ? left[node] : right[node];
  }
  return node;
}

/// Nodes a row visits on the longest root-to-leaf walk of one flat
/// pre-order tree (1 for a lone leaf): Predict's cells per row.
uint32_t LongestWalk(const std::vector<int32_t>& split_slot,
                     const std::vector<int32_t>& left,
                     const std::vector<int32_t>& right);

}  // namespace hamlet

#endif  // HAMLET_ML_DECISION_TREE_H_
