#include "training.h"

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/runner.h"
#include "ml/factorized.h"
#include "support.h"

namespace perfbench {

using hamlet::Result;

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kJoinAll:
      return "joinall";
    case Arm::kJoinOpt:
      return "joinopt";
    case Arm::kFactorized:
      return "factorized";
  }
  return "unknown";
}

hamlet::PipelineConfig ArmConfig(Arm arm, hamlet::ClassifierKind classifier) {
  hamlet::PipelineConfig config;
  config.enable_join_avoidance = arm == Arm::kJoinOpt;
  config.avoid_materialization = arm == Arm::kFactorized;
  config.classifier = classifier;
  config.method = hamlet::FsMethod::kForwardSelection;
  config.metric = hamlet::MetricForDataset("MovieLens1M").ValueOrDie();
  if (classifier == hamlet::ClassifierKind::kGradientBoostedTrees ||
      classifier == hamlet::ClassifierKind::kDecisionTree) {
    config.advisor.model_capacity = hamlet::ModelCapacity::kHighCapacity;
  }
  return config;
}

bool SameResult(const ArmOutcome& a, const ArmOutcome& b) {
  return a.selected == b.selected &&
         std::memcmp(&a.holdout_error, &b.holdout_error, sizeof(double)) == 0;
}

std::string Describe(const ArmOutcome& outcome) {
  std::string out = "{";
  out += hamlet::JoinStrings(outcome.selected, ", ");
  out += hamlet::StringFormat("} error %.17g", outcome.holdout_error);
  return out;
}

namespace {

ArmOutcome OutcomeOf(const hamlet::FsRunReport& report) {
  ArmOutcome outcome;
  outcome.selected = report.selected_names;
  outcome.holdout_error = report.holdout_test_error;
  outcome.models_trained = report.selection.models_trained;
  outcome.search_s = report.runtime_seconds;
  outcome.final_fit_s = report.fit_seconds;
  return outcome;
}

}  // namespace

Result<ArmOutcome> RunArm(const hamlet::NormalizedDataset& dataset,
                          const hamlet::PipelineConfig& config,
                          double* wall_s, double* cpu_s) {
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  HAMLET_ASSIGN_OR_RETURN(hamlet::PipelineReport report,
                          hamlet::RunPipeline(dataset, config));
  *wall_s = NowSeconds() - t0;
  *cpu_s = ProcessCpuSeconds() - cpu0;
  return OutcomeOf(report.selection);
}

Result<LayerTimes> RunArmTraced(const hamlet::NormalizedDataset& dataset,
                                const hamlet::PipelineConfig& config, Arm arm,
                                SpanRecorder* spans) {
  LayerTimes t;
  const hamlet::ThreadPoolStats pool0 = hamlet::ThreadPool::Global().GetStats();
  // A layer span's duration, closed by its Scope's destructor.
  auto timed = [&](int32_t id, double* out) {
    *out = spans->Seconds(id);
    t.layer_sum_s += *out;
  };

  const int32_t root = spans->Begin(ArmName(arm));
  hamlet::JoinPlan plan;
  int32_t id;
  {
    SpanRecorder::Scope s(spans, "advise");
    HAMLET_ASSIGN_OR_RETURN(plan,
                            hamlet::AdviseJoins(dataset, config.advisor));
    id = s.id();
  }
  timed(id, &t.advise_s);

  std::vector<std::string> to_join;
  if (config.enable_join_avoidance) {
    to_join = plan.fks_to_join;
  } else {
    for (const auto& fk : dataset.foreign_keys()) to_join.push_back(fk.fk_column);
  }
  // RunPipeline's rule for when the factorized view answers the joins.
  const bool use_factorized =
      config.avoid_materialization &&
      (config.classifier == hamlet::ClassifierKind::kDecisionTree ||
       config.classifier == hamlet::ClassifierKind::kGradientBoostedTrees ||
       (config.classifier == hamlet::ClassifierKind::kNaiveBayes &&
        !config.force_scan_eval));
  std::unique_ptr<hamlet::FeatureSelector> selector = hamlet::MakeSelector(
      config.method, config.num_threads, config.force_scan_eval);
  hamlet::ClassifierFactory factory =
      hamlet::MakeClassifierFactory(config.classifier);

  hamlet::HoldoutSplit split;
  hamlet::FsRunReport report;
  uint64_t fs_start = 0;
  int32_t fs_span = -1;
  if (use_factorized) {
    hamlet::FactorizedDataset data;
    {
      SpanRecorder::Scope s(spans, "factorize");
      HAMLET_ASSIGN_OR_RETURN(data,
                              hamlet::FactorizedDataset::Make(dataset, to_join));
      id = s.id();
    }
    timed(id, &t.factorize_s);
    {
      SpanRecorder::Scope s(spans, "split");
      hamlet::Rng rng(config.seed);
      split = hamlet::MakeHoldoutSplit(data.num_rows(), rng, config.split);
      id = s.id();
    }
    timed(id, &t.split_s);
    {
      SpanRecorder::Scope s(spans, "fs");
      fs_start = NowNs();
      HAMLET_ASSIGN_OR_RETURN(
          report, hamlet::RunFeatureSelectionFactorized(
                      *selector, data, split, factory, config.metric,
                      data.AllFeatureIndices()));
      fs_span = s.id();
    }
  } else {
    hamlet::Table table;
    {
      SpanRecorder::Scope s(spans, "join");
      hamlet::JoinOptions join_options;
      join_options.num_threads = config.num_threads;
      join_options.algorithm = config.join_algorithm;
      HAMLET_ASSIGN_OR_RETURN(table, dataset.JoinSubset(to_join, join_options));
      id = s.id();
    }
    timed(id, &t.join_s);
    t.join_rows = table.num_rows();
    std::unique_ptr<hamlet::EncodedDataset> data;
    {
      SpanRecorder::Scope s(spans, "encode");
      HAMLET_ASSIGN_OR_RETURN(hamlet::EncodedDataset encoded,
                              hamlet::EncodedDataset::FromTableAuto(table));
      data = std::make_unique<hamlet::EncodedDataset>(std::move(encoded));
      id = s.id();
    }
    timed(id, &t.encode_s);
    t.encode_features = data->num_features();
    {
      SpanRecorder::Scope s(spans, "split");
      hamlet::Rng rng(config.seed);
      split = hamlet::MakeHoldoutSplit(data->num_rows(), rng, config.split);
      id = s.id();
    }
    timed(id, &t.split_s);
    {
      SpanRecorder::Scope s(spans, "fs");
      fs_start = NowNs();
      HAMLET_ASSIGN_OR_RETURN(
          report, hamlet::RunFeatureSelection(*selector, *data, split, factory,
                                              config.metric,
                                              data->AllFeatureIndices()));
      fs_span = s.id();
    }
  }
  timed(fs_span, &t.fs_s);
  // The runner reports its own search / final-fit split; record both as
  // children of the fs span so the span tree carries them.
  const uint64_t search_end =
      fs_start + static_cast<uint64_t>(report.runtime_seconds * 1e9);
  spans->Add("fs.search", fs_start, search_end, fs_span);
  spans->Add("fs.final_fit", search_end,
             search_end + static_cast<uint64_t>(report.fit_seconds * 1e9),
             fs_span);
  spans->End(root);
  t.wall_s = spans->Seconds(root);

  const hamlet::ThreadPoolStats pool1 = hamlet::ThreadPool::Global().GetStats();
  t.pool_regions = static_cast<double>(pool1.regions - pool0.regions);
  t.pool_tasks = static_cast<double>(pool1.tasks_run - pool0.tasks_run);
  t.outcome = OutcomeOf(report);
  return t;
}

}  // namespace perfbench
