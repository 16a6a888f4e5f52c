#include "analytics/pipeline.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "fs/candidate_eval.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "ml/tan.h"
#include "obs/exporter.h"

namespace hamlet {

const char* ClassifierKindToString(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kNaiveBayes:
      return "naive_bayes";
    case ClassifierKind::kLogisticRegressionL1:
      return "logreg_l1";
    case ClassifierKind::kLogisticRegressionL2:
      return "logreg_l2";
    case ClassifierKind::kTan:
      return "tan";
    case ClassifierKind::kDecisionTree:
      return "decision_tree";
    case ClassifierKind::kGradientBoostedTrees:
      return "gbt";
  }
  return "unknown";
}

ClassifierFactory MakeClassifierFactory(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kNaiveBayes:
      return MakeNaiveBayesFactory();
    case ClassifierKind::kLogisticRegressionL1: {
      LogisticRegressionOptions options;
      options.regularizer = Regularizer::kL1;
      options.lambda = 1e-4;
      return MakeLogisticRegressionFactory(options);
    }
    case ClassifierKind::kLogisticRegressionL2: {
      LogisticRegressionOptions options;
      options.regularizer = Regularizer::kL2;
      options.lambda = 1e-2;
      return MakeLogisticRegressionFactory(options);
    }
    case ClassifierKind::kTan:
      return MakeTanFactory();
    case ClassifierKind::kDecisionTree:
      return MakeDecisionTreeFactory();
    case ClassifierKind::kGradientBoostedTrees:
      return MakeGbtFactory();
  }
  return MakeNaiveBayesFactory();
}

namespace {

/// Export destination resolution: an explicit config path wins, then the
/// named environment variable, then "" (export off).
std::string PathFromConfigOrEnv(const std::string& config_path,
                                const char* env_var) {
  if (!config_path.empty()) return config_path;
  const char* env = std::getenv(env_var);
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace

Result<PipelineReport> RunPipeline(const NormalizedDataset& dataset,
                                   const PipelineConfig& config) {
  // One collection window per traced run: metrics are on when the config
  // (or the HAMLET_TRACE environment variable) asks for it, and the
  // previous enabled state is restored on every exit path.
  obs::ScopedCollection collection(config.trace || obs::EnvRequested());
  // The run's width: every stage below (the join, the statistics, the
  // search, each model's training) reads it.
  const ScopedWidth width(config.num_threads);

  PipelineReport report;
  report.avoidance_applied = config.enable_join_avoidance;

  // The stage tree is recorded on every run, traced or not; it is the
  // run's only stopwatch.
  obs::RunTrace run("pipeline");
  run.root().AddAttr("mode", std::string(config.enable_join_avoidance
                                             ? "JoinOpt"
                                             : "JoinAll"));
  run.root().AddAttr("method", std::string(FsMethodToString(config.method)));

  // 1. Advise (always computed — even the JoinAll baseline reports what
  //    the optimizer *would* have done).
  {
    obs::TraceSpan span("pipeline.advise");
    HAMLET_ASSIGN_OR_RETURN(report.plan, AdviseJoins(dataset, config.advisor));
    span.AddAttr("fks_joined",
                 static_cast<uint64_t>(report.plan.fks_to_join.size()));
    span.AddAttr("fks_avoided",
                 static_cast<uint64_t>(report.plan.fks_avoided.size()));
  }

  // 2. The tables the plan keeps (or all of them). In factorized mode
  //    these are *not* materialized — the factorized view answers the
  //    join logically; otherwise JoinSubset builds the physical table.
  std::vector<std::string> to_join;
  if (config.enable_join_avoidance) {
    to_join = report.plan.fks_to_join;
  } else {
    for (const auto& fk : dataset.foreign_keys()) {
      to_join.push_back(fk.fk_column);
    }
  }
  std::unique_ptr<FeatureSelector> selector = MakeSelector(
      config.method, /*num_threads=*/0, config.force_scan_eval);
  ClassifierFactory factory = MakeClassifierFactory(config.classifier);
  // The factorized view answers the kept joins whenever a candidate
  // scorer exists for it (fs/candidate_eval.h): Naive Bayes off the scan
  // escape hatch, or a classifier that trains through the FK hops
  // (decision trees, GBT). Everything else falls back to materializing.
  const bool use_factorized =
      config.avoid_materialization &&
      ChooseScoringBackend(*factory(), /*factorized_view=*/true,
                           config.force_scan_eval)
          .ok();
  // Same row count and seed on both paths, so the split — and everything
  // downstream — is identical.
  auto make_split = [&](uint32_t num_rows) {
    obs::TraceSpan span("pipeline.split");
    Rng rng(config.seed);
    HoldoutSplit split = MakeHoldoutSplit(num_rows, rng, config.split);
    span.AddAttr("train", static_cast<uint64_t>(split.train.size()));
    span.AddAttr("validation", static_cast<uint64_t>(split.validation.size()));
    span.AddAttr("test", static_cast<uint64_t>(split.test.size()));
    return split;
  };

  // 3. Build the candidate features (factorize, or join and encode),
  //    split per the holdout protocol, then run feature selection and the
  //    final holdout fit (fs.run nests under `pipeline`).
  if (use_factorized) {
    report.factorized = true;
    report.tables_factorized = static_cast<uint32_t>(to_join.size());
    FactorizedDataset data;
    {
      obs::TraceSpan span("pipeline.factorize");
      span.AddAttr("tables", static_cast<uint64_t>(to_join.size()));
      HAMLET_ASSIGN_OR_RETURN(data, FactorizedDataset::Make(dataset, to_join));
      report.features_in = data.num_features();
      span.AddAttr("features", report.features_in);
      span.AddAttr("rows", data.num_rows());
    }
    const HoldoutSplit split = make_split(data.num_rows());
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        RunFeatureSelection(*selector, data, split, factory, config.metric,
                            data.AllFeatureIndices()));
  } else {
    report.tables_joined = static_cast<uint32_t>(to_join.size());
    Table table;
    {
      obs::TraceSpan span("pipeline.join");
      span.AddAttr("tables", static_cast<uint64_t>(to_join.size()));
      HAMLET_ASSIGN_OR_RETURN(table, dataset.JoinSubset(to_join));
    }
    std::unique_ptr<EncodedDataset> data;
    {
      obs::TraceSpan span("pipeline.encode");
      HAMLET_ASSIGN_OR_RETURN(EncodedDataset encoded,
                              EncodedDataset::FromTableAuto(table));
      data = std::make_unique<EncodedDataset>(std::move(encoded));
      report.features_in = data->num_features();
      span.AddAttr("features", report.features_in);
      span.AddAttr("rows", data->num_rows());
    }
    const HoldoutSplit split = make_split(data->num_rows());
    HAMLET_ASSIGN_OR_RETURN(
        report.selection,
        RunFeatureSelection(*selector, *data, split, factory, config.metric,
                            data->AllFeatureIndices()));
  }
  report.trace = run.Finish();

  if (!collection.enabled()) {
    report.trace_summary = obs::SummarizeTrace(report.trace);
    return report;
  }
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  report.trace_summary = obs::SummarizeTrace(report.trace, snapshot);

  // Structured export: each traced run appends one JSONL snapshot line.
  // The run is its own collection window, so its line is seq 0. Export
  // failures are reported, not fatal — a read-only artifacts/ directory
  // must not fail the analysis itself.
  const std::string jsonl_path =
      PathFromConfigOrEnv(config.metrics_jsonl_path, "HAMLET_METRICS_JSONL");
  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path, std::ios::out | std::ios::app);
    if (out.is_open()) {
      obs::WriteSnapshotJsonl(snapshot, &report.trace_summary, 0, out);
      out.flush();
    }
    if (!out.good()) {
      std::cerr << "hamlet: metrics export failed: cannot append to "
                << jsonl_path << "\n";
    }
  }
  return report;
}

std::string PipelineReport::Summary() const {
  std::ostringstream oss;
  oss << (avoidance_applied ? "JoinOpt" : "JoinAll") << ": ";
  if (factorized) {
    oss << "factorized " << tables_factorized
        << " table(s) (no join materialized)";
  } else {
    oss << "joined " << tables_joined << " table(s)";
  }
  if (!plan.fks_avoided.empty()) {
    oss << (avoidance_applied ? ", avoided " : ", could have avoided ")
        << JoinStrings(plan.fks_avoided, ", ");
  }
  oss << "; " << features_in << " candidate features -> "
      << selection.selected_names.size() << " selected {"
      << JoinStrings(selection.selected_names, ", ") << "}";
  oss << StringFormat(
      "; holdout error %.4f; FS ran %llu models in %.3fs (+%.3fs final "
      "fit); %.3fs end to end",
      selection.holdout_test_error,
      static_cast<unsigned long long>(selection.selection.models_trained),
      selection.runtime_seconds, selection.fit_seconds,
      trace_summary.StageSeconds("pipeline"));
  return oss.str();
}

std::string PipelineReport::ExplainTree() const {
  if (trace.empty()) return std::string();
  return obs::RenderExplainTree(trace);
}

}  // namespace hamlet
