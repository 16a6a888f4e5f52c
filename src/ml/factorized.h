#ifndef HAMLET_ML_FACTORIZED_H_
#define HAMLET_ML_FACTORIZED_H_

/// \file factorized.h
/// Factorized learning over the normalized pair (S, R): train Naive Bayes
/// and score the MI/IGR filters without ever materializing the KFK join
/// T = π(R ⋈ S).
///
/// The observation (Abo Khamis et al.'s sparse-tensor factorization;
/// JoinBoost): every statistic Naive Bayes or a filter needs from a
/// foreign feature X_R is a contingency count, and the join only
/// *replicates* R rows along S's FK column. So one O(|S|) pass groups
/// class counts per FK code (GroupCountByCode on the entity side), and
/// one O(|R|) scatter per foreign feature pushes those group counts
/// through the FK -> R row index (BuildFkRowIndex — the same index
/// KfkJoin probes). Total work is O(|S| + |R| · d_R) instead of
/// O(|S| · d_R), and peak memory never includes the joined table's
/// gathered columns.
///
/// Determinism/equivalence contract: BuildFactorizedSuffStats reorders
/// only *integer additions* relative to BuildSuffStats on the
/// materialized join, so the resulting SuffStats is bit-identical — same
/// counts, same layout, same feature order — at any thread count. Every
/// double derived downstream (NaiveBayes::TrainFromStats, the
/// NbSubsetEvaluator tables, MI/IGR scores) therefore equals its
/// materialized twin bit-for-bit; tests/factorized_equivalence_test.cc
/// (ctest label `factorized`) enforces this for every bundled dataset,
/// selector, and thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "ml/suff_stats.h"
#include "relational/catalog.h"

namespace hamlet {

/// One factorized KFK relationship: everything needed to push entity-side
/// group counts through S.FK -> R without materializing the join.
struct FactorizedRelation {
  std::string fk_column;   ///< FK column name in S.
  std::string table_name;  ///< Referenced attribute table R.
  /// Feature index (in the factorized feature space) of the FK column
  /// itself, or -1 when the FK is open-domain and thus not a feature.
  int32_t fk_feature = -1;
  /// FK code -> R row holding that RID (kNoFkRow when unreferenced);
  /// length is the FK domain cardinality.
  std::vector<uint32_t> fk_to_rrow;
  /// S's FK codes, stored here only when the FK is not an entity feature
  /// (open domain); otherwise read via the entity dataset.
  std::vector<uint32_t> stored_fk_codes;
  /// R's usable feature columns as raw code vectors over R rows — the
  /// same columns, in the same order, KfkJoin would append and
  /// FromTableAuto would keep.
  std::vector<std::vector<uint32_t>> columns;
  std::vector<FeatureMeta> metas;  ///< Parallel to `columns`.
  /// Index of this relation's first feature in the factorized space.
  uint32_t first_feature = 0;
};

/// The factorized view of a NormalizedDataset: S's usable columns encoded
/// as an EncodedDataset plus, per factorized FK, the (small) R-side
/// feature columns and the FK -> R row index.
///
/// The feature space — names, order, cardinalities — is exactly that of
/// EncodedDataset::FromTableAuto(dataset.JoinSubset(fks)): S's features
/// and closed-domain FKs in schema order, then each factorized relation's
/// R features in the given FK order. Feature indices are therefore
/// interchangeable between the two paths, which is what lets the
/// selectors and the equivalence tests compare subsets index-for-index.
class FactorizedDataset {
 public:
  FactorizedDataset() = default;

  /// Builds the view over the KFK links named by `fks_to_factorize`
  /// (order significant — it fixes the foreign features' order, so pass
  /// the same order JoinSubset would receive). Validation matches
  /// KfkJoin: duplicate RIDs, referential-integrity violations (lowest
  /// offending S row named), and column-name collisions all fail with the
  /// same errors the materialized join would raise.
  static Result<FactorizedDataset> Make(
      const NormalizedDataset& dataset,
      const std::vector<std::string>& fks_to_factorize);

  /// Number of examples (= |S| = rows of the never-materialized join).
  uint32_t num_rows() const { return entity_.num_rows(); }

  /// Total features: entity-side + all factorized R features.
  uint32_t num_features() const {
    return static_cast<uint32_t>(metas_.size());
  }

  uint32_t num_classes() const { return entity_.num_classes(); }
  const std::vector<uint32_t>& labels() const { return entity_.labels(); }

  const FeatureMeta& meta(uint32_t j) const;
  const std::vector<FeatureMeta>& metas() const { return metas_; }

  /// Names of the features at `indices`, in order.
  std::vector<std::string> FeatureNames(
      const std::vector<uint32_t>& indices) const;

  /// All feature indices [0, num_features()).
  std::vector<uint32_t> AllFeatureIndices() const;

  /// True iff feature j lives in S (false: it is a foreign feature read
  /// through an FK hop).
  bool is_entity_feature(uint32_t j) const;

  /// Codes of feature j at the given S rows: a plain gather for entity
  /// features, one FK -> R hop per row for foreign ones. Either way the
  /// output equals the materialized join's column gathered at `rows`.
  void GatherCodes(uint32_t j, const std::vector<uint32_t>& rows,
                   std::vector<uint32_t>* out) const;

  /// The entity-side encoded dataset (S's usable columns).
  const EncodedDataset& entity() const { return entity_; }

  const std::vector<FactorizedRelation>& relations() const {
    return relations_;
  }

  /// S's FK codes for relation k (entity feature column or stored copy).
  const std::vector<uint32_t>& fk_codes(size_t k) const;

 private:
  /// Where feature j's codes live: relation < 0 -> entity_.feature(j);
  /// otherwise relations_[relation].columns[column].
  struct FeatureRef {
    int32_t relation = -1;
    uint32_t column = 0;
  };

  EncodedDataset entity_;
  std::vector<FactorizedRelation> relations_;
  std::vector<FeatureRef> refs_;   // Parallel to metas_.
  std::vector<FeatureMeta> metas_;
};

/// Sufficient statistics of (data, rows) computed without materializing
/// the join: class counts serially, one GroupCountByCode pass per
/// relation, then per-feature tables in parallel (one feature per work
/// item — the BuildSuffStats sharding contract). Foreign features scatter
/// the group counts through fk_to_rrow in ascending-FK-code order; all
/// reordering is over integer additions, so the result is bit-identical
/// to BuildSuffStats(FromTableAuto(JoinSubset(...)), rows) at any width.
/// Records the fs.factorized_builds counter and the
/// fs.factorized_group_ns / fs.factorized_scatter_ns histograms.
SuffStats BuildFactorizedSuffStats(const FactorizedDataset& data,
                                   const std::vector<uint32_t>& rows);

}  // namespace hamlet

#endif  // HAMLET_ML_FACTORIZED_H_
