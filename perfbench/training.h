#ifndef HAMLET_PERFBENCH_TRAINING_H_
#define HAMLET_PERFBENCH_TRAINING_H_

/// \file training.h
/// The training half of the benchmark: the three pipeline arms, run once
/// through RunPipeline (what the user calls, untraced) and once as the
/// same sequence of public layer calls in RunPipeline's order, each
/// wrapped in a benchmark-side span (the traced pass).

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/pipeline.h"
#include "common/result.h"
#include "relational/catalog.h"

namespace perfbench {

class SpanRecorder;

/// JoinAll, JoinOpt, and JoinAll answered by factorized learning over
/// every FK (avoid_materialization): on MovieLens JoinOpt avoids both
/// joins, so the third arm is where ml/factorized does real work.
enum class Arm { kJoinAll, kJoinOpt, kFactorized };
inline constexpr Arm kArms[] = {Arm::kJoinAll, Arm::kJoinOpt,
                                Arm::kFactorized};

/// "joinall" / "joinopt" / "factorized" — the per-layer metric prefix.
const char* ArmName(Arm arm);

/// The pipeline configuration of an arm (forward selection, the
/// dataset's RMSE metric, the default split seed). Tree classifiers get
/// the capacity-aware advisor (ModelCapacity::kHighCapacity).
hamlet::PipelineConfig ArmConfig(Arm arm, hamlet::ClassifierKind classifier);

/// The outputs an arm must reproduce bit for bit: the chosen features and
/// the holdout error.
struct ArmOutcome {
  std::vector<std::string> selected;
  double holdout_error = 0;
  uint64_t models_trained = 0;
  double search_s = 0;     ///< FsRunReport::runtime_seconds.
  double final_fit_s = 0;  ///< FsRunReport::fit_seconds.
};

/// Same selected features and bit-identical holdout error.
bool SameResult(const ArmOutcome& a, const ArmOutcome& b);

/// Renders the outcome for a failed-check message.
std::string Describe(const ArmOutcome& outcome);

/// One untraced RunPipeline call; `wall_s` is its wall time, `cpu_s`
/// the process CPU time it used.
hamlet::Result<ArmOutcome> RunArm(const hamlet::NormalizedDataset& dataset,
                                  const hamlet::PipelineConfig& config,
                                  double* wall_s, double* cpu_s);

/// Per-layer readings of one traced arm.
struct LayerTimes {
  double wall_s = 0;  ///< Root span: the whole replicated pipeline.
  double advise_s = 0;
  double join_s = 0;
  double join_rows = 0;
  double factorize_s = 0;
  double encode_s = 0;
  double encode_features = 0;
  double split_s = 0;
  double fs_s = 0;
  double pool_regions = 0;  ///< ThreadPool::Global() deltas.
  double pool_tasks = 0;
  /// Sum of the layer spans directly under the root.
  double layer_sum_s = 0;
  ArmOutcome outcome;
};

/// RunPipeline's layer calls, in its order, each in a span under a root
/// span named after the arm.
hamlet::Result<LayerTimes> RunArmTraced(
    const hamlet::NormalizedDataset& dataset,
    const hamlet::PipelineConfig& config, Arm arm, SpanRecorder* spans);

}  // namespace perfbench

#endif  // HAMLET_PERFBENCH_TRAINING_H_
