#ifndef HAMLET_ML_TAN_H_
#define HAMLET_ML_TAN_H_

/// \file tan.h
/// Tree-Augmented Naive Bayes (Friedman, Geiger & Goldszmidt 1997), the
/// model of the paper's Appendix E. TAN learns a maximum spanning tree
/// over features weighted by conditional mutual information I(Xi;Xj|Y)
/// and augments NB with one parent per feature.
///
/// The appendix's point reproduces here: under the FD FK → X_R every
/// foreign feature is a deterministic function of FK, so
/// I(F;FK|Y) = H(F|Y) is (near-)maximal and the learned tree hangs all of
/// X_R off FK, where the features contribute only Kronecker-delta
/// conditionals P(F|FK) that carry no extra signal about Y.

#include <vector>

#include "ml/classifier.h"

namespace hamlet {

/// TAN classifier with Laplace-smoothed CPTs.
class TreeAugmentedNaiveBayes : public Classifier {
 public:
  explicit TreeAugmentedNaiveBayes(double alpha = 1.0);

  uint32_t PredictOne(const EncodedDataset& data, uint32_t row) const override;

  std::string name() const override { return "tan"; }

  uint32_t trained_cardinality(size_t jj) const override;
  const std::vector<uint32_t>& trained_features() const override {
    return features_;
  }

  /// parent(j) as a position into the trained feature list, or -1 for the
  /// root / featureless cases. Exposed so tests can verify the FD-induced
  /// tree shape (all X_R hanging off FK).
  const std::vector<int32_t>& parents() const { return parents_; }

  /// The conditional mutual information I(Xi;Xj|Y) used for edge (i,j)
  /// during training (positions into the trained feature list).
  double EdgeWeight(uint32_t i, uint32_t j) const;

 protected:
  /// Trains on the materialized view; InvalidArgument on the factorized
  /// one. `stats` is unused.
  Status DoTrain(const DataView& data, const std::vector<uint32_t>& rows,
                 const std::vector<uint32_t>& features,
                 const SuffStats* stats) override;

 private:
  double alpha_;
  uint32_t num_classes_ = 0;
  std::vector<uint32_t> features_;
  std::vector<uint32_t> cardinalities_;   // Training-time, per slot.
  std::vector<int32_t> parents_;          // Position of parent, -1 = root.
  std::vector<double> log_priors_;
  // Root/orphan features: flat [code * K + y]; child features: flat
  // [ (code * parent_card + parent_code) * K + y ].
  std::vector<std::vector<double>> log_cpts_;
  std::vector<double> edge_weights_;      // Dense d x d CMI matrix.
  uint32_t num_features_trained_ = 0;
};

/// Factory for the experiment drivers.
ClassifierFactory MakeTanFactory(double alpha = 1.0);

}  // namespace hamlet

#endif  // HAMLET_ML_TAN_H_
