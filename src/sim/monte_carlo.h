#ifndef HAMLET_SIM_MONTE_CARLO_H_
#define HAMLET_SIM_MONTE_CARLO_H_

/// \file monte_carlo.h
/// The Monte Carlo protocol of Section 4.1: for each parameter setting,
/// draw |S| training datasets from the true distribution, train each model
/// variant on every dataset, predict a shared test set, and decompose the
/// error into bias / net variance. The whole procedure repeats with
/// different seeds (fresh R, fresh test set) and the decompositions are
/// averaged.
///
/// The paper uses 100 training sets x 100 seed repeats (10,000 runs); the
/// defaults here are 100 x 10, which stabilizes every reported trend, and
/// both knobs are exposed for full-scale runs.

#include "common/result.h"
#include "core/ror.h"
#include "ml/classifier.h"
#include "sim/data_synthesis.h"
#include "theory/bias_variance.h"

namespace hamlet {

/// The three model variants Figure 3 compares.
enum class ModelVariant {
  kUseAll,  ///< X_S ∪ {FK} ∪ X_R (join performed, everything available).
  kNoJoin,  ///< X_S ∪ {FK}       (join avoided; FK represents X_R).
  kNoFK,    ///< X_S ∪ X_R        (FK dropped).
};

/// "UseAll" / "NoJoin" / "NoFK".
const char* ModelVariantToString(ModelVariant v);

/// Monte Carlo protocol knobs.
struct MonteCarloOptions {
  uint32_t num_training_sets = 100;  ///< |S| of the decomposition.
  uint32_t num_repeats = 10;         ///< Outer seed repeats.
  uint64_t seed = 42;
};

/// Decompositions per variant (averaged over repeats), plus the derived
/// quantities the decision-rule scatter plots need.
struct MonteCarloResult {
  BiasVarianceResult use_all;
  BiasVarianceResult no_join;
  BiasVarianceResult no_fk;

  /// Δ test error of avoiding the join (the Figure 4 y-axis; asymmetric:
  /// positive means NoJoin is worse).
  double DeltaTestError() const {
    return no_join.avg_test_error - use_all.avg_test_error;
  }

  const BiasVarianceResult& ForVariant(ModelVariant v) const;
};

/// Runs the full protocol for one configuration with the given classifier
/// (defaults to Naive Bayes when `factory` is null), at the caller's
/// parallel width (a ScopedWidth, common/thread_pool.h; every hardware
/// thread when none is open). The outer repeat loop parallelizes first
/// (each repeat forks its RNG from its index and writes only its own
/// slot); within a repeat the training-set loop parallelizes the model
/// trainings (draws stay serial to preserve the RNG stream, predictions
/// land in per-index slots, accumulation replays serially in index
/// order). Nested regions degrade to serial on the shared pool, so the
/// two levels compose without oversubscription — and results are
/// bit-for-bit identical at any width.
Result<MonteCarloResult> RunMonteCarlo(const SimConfig& config,
                                       const MonteCarloOptions& options,
                                       const ClassifierFactory* factory =
                                           nullptr);

/// The worst-case ROR evaluated at a simulation config (n = n_S,
/// |D_FK| = n_R, q*_R = 2 since X_R is boolean).
double RorForSimConfig(const SimConfig& config, double delta = 0.1);

/// TR = n_S / n_R for a simulation config.
double TupleRatioForSimConfig(const SimConfig& config);

}  // namespace hamlet

#endif  // HAMLET_SIM_MONTE_CARLO_H_
