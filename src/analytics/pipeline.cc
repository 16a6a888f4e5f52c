#include "analytics/pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/string_util.h"
#include "common/timer.h"
#include "data/encoded_dataset.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "ml/tan.h"
#include "obs/cost_profile.h"
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

/// Coarse per-stage rollup for untraced runs: the same stage names the
/// span tree would produce, built from the Timer readings RunPipeline
/// takes anyway, so PipelineReport.trace_summary is never empty.
obs::TraceSummary CoarseSummary(const PipelineReport& report,
                                double advise_seconds,
                                double encode_seconds,
                                double split_seconds) {
  obs::TraceSummary summary;
  const double child_seconds = advise_seconds + report.join_seconds +
                               report.factorize_seconds + encode_seconds +
                               split_seconds +
                               report.selection.total_seconds;
  const double self_seconds =
      std::max(0.0, report.total_seconds - child_seconds);
  summary.stages = {
      {"pipeline", 0, 1, report.total_seconds, self_seconds, {}},
      {"pipeline.advise", 1, 1, advise_seconds, advise_seconds, {}}};
  if (report.factorized) {
    summary.stages.push_back(
        {"pipeline.factorize",
         1,
         1,
         report.factorize_seconds,
         report.factorize_seconds,
         {{"tables", static_cast<int64_t>(report.tables_factorized)},
          {"features", static_cast<int64_t>(report.features_in)}}});
  } else {
    summary.stages.push_back(
        {"pipeline.join",
         1,
         1,
         report.join_seconds,
         report.join_seconds,
         {{"tables", static_cast<int64_t>(report.tables_joined)}}});
    summary.stages.push_back(
        {"pipeline.encode",
         1,
         1,
         encode_seconds,
         encode_seconds,
         {{"features", static_cast<int64_t>(report.features_in)}}});
  }
  const std::vector<obs::StageStat> tail = {
      {"pipeline.split", 1, 1, split_seconds, split_seconds, {}},
      {"fs.search",
       1,
       1,
       report.selection.runtime_seconds,
       report.selection.runtime_seconds,
       {{"models_trained",
         static_cast<int64_t>(report.selection.selection.models_trained)}}},
      {"fs.final_fit", 1, 1, report.selection.fit_seconds,
       report.selection.fit_seconds, {}}};
  summary.stages.insert(summary.stages.end(), tail.begin(), tail.end());
  summary.counters = {
      {"fs.models_trained", report.selection.selection.models_trained}};
  summary.total_seconds = report.total_seconds;
  return summary;
}

}  // namespace

Result<PipelineReport> RunPipeline(const NormalizedDataset& dataset,
                                   const PipelineConfig& config) {
  // One collection window per run: tracing is on when the config (or the
  // HAMLET_TRACE environment variable) asks for it, and the previous
  // enabled state is restored on every exit path.
  obs::ScopedCollection collection(config.trace || obs::EnvRequested());

  // While active, every sufficient-statistics lookup misses, so model
  // training and candidate scoring take the original scan paths.
  ScopedSuffStatsBypass scan_only(config.force_scan_eval);

  PipelineReport report;
  report.avoidance_applied = config.enable_join_avoidance;

  Timer total_timer;
  double advise_seconds = 0.0;
  double encode_seconds = 0.0;
  double split_seconds = 0.0;
  {
    obs::TraceSpan pipeline_span("pipeline");
    if (pipeline_span.active()) {
      pipeline_span.AddAttr(
          "mode", std::string(config.enable_join_avoidance ? "JoinOpt"
                                                           : "JoinAll"));
      pipeline_span.AddAttr("method",
                            std::string(FsMethodToString(config.method)));
    }

    // 1. Advise (always computed — even the JoinAll baseline reports what
    //    the optimizer *would* have done).
    {
      obs::TraceSpan span("pipeline.advise");
      Timer timer;
      HAMLET_ASSIGN_OR_RETURN(report.plan,
                              AdviseJoins(dataset, config.advisor));
      advise_seconds = timer.ElapsedSeconds();
      if (span.active()) {
        span.AddAttr("fks_joined",
                     static_cast<uint64_t>(report.plan.fks_to_join.size()));
        span.AddAttr("fks_avoided",
                     static_cast<uint64_t>(report.plan.fks_avoided.size()));
      }
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
    // Naive Bayes trains from factorized statistics and the tree
    // classifiers train through the FK hops (FactorizedTrainable); NB's
    // scan escape hatch inherently needs a table to scan, while the tree
    // "scan" path *is* factorized, so force_scan_eval only forces
    // materialization for NB. Everything else falls back to
    // materializing.
    const bool use_factorized =
        config.avoid_materialization &&
        (config.classifier == ClassifierKind::kDecisionTree ||
         config.classifier == ClassifierKind::kGradientBoostedTrees ||
         (config.classifier == ClassifierKind::kNaiveBayes &&
          !config.force_scan_eval));
    std::unique_ptr<FeatureSelector> selector = MakeSelector(
        config.method, config.num_threads, config.force_scan_eval);
    ClassifierFactory factory = MakeClassifierFactory(config.classifier);

    if (use_factorized) {
      report.factorized = true;
      report.tables_factorized = static_cast<uint32_t>(to_join.size());
      FactorizedDataset data;
      {
        obs::TraceSpan span("pipeline.factorize");
        span.AddAttr("tables", static_cast<uint64_t>(to_join.size()));
        Timer timer;
        HAMLET_ASSIGN_OR_RETURN(data,
                                FactorizedDataset::Make(dataset, to_join));
        report.factorize_seconds = timer.ElapsedSeconds();
        report.features_in = data.num_features();
        if (span.active()) {
          span.AddAttr("features", report.features_in);
          span.AddAttr("rows", data.num_rows());
        }
      }
      // Same row count and seed as the materialized path, so the split —
      // and everything downstream — is identical.
      HoldoutSplit split;
      {
        obs::TraceSpan span("pipeline.split");
        Timer timer;
        Rng rng(config.seed);
        split = MakeHoldoutSplit(data.num_rows(), rng, config.split);
        split_seconds = timer.ElapsedSeconds();
        if (span.active()) {
          span.AddAttr("train", static_cast<uint64_t>(split.train.size()));
          span.AddAttr("validation",
                       static_cast<uint64_t>(split.validation.size()));
          span.AddAttr("test", static_cast<uint64_t>(split.test.size()));
        }
      }
      HAMLET_ASSIGN_OR_RETURN(
          report.selection,
          RunFeatureSelectionFactorized(*selector, data, split, factory,
                                        config.metric,
                                        data.AllFeatureIndices()));
    } else {
      report.tables_joined = static_cast<uint32_t>(to_join.size());
      Table table;
      {
        obs::TraceSpan span("pipeline.join");
        span.AddAttr("tables", static_cast<uint64_t>(to_join.size()));
        Timer join_timer;
        JoinOptions join_options;
        join_options.num_threads = config.num_threads;
        HAMLET_ASSIGN_OR_RETURN(table,
                                dataset.JoinSubset(to_join, join_options));
        report.join_seconds = join_timer.ElapsedSeconds();
      }

      // 3. Encode usable features and split per the holdout protocol.
      HoldoutSplit split;
      std::unique_ptr<EncodedDataset> data;
      {
        obs::TraceSpan span("pipeline.encode");
        Timer timer;
        HAMLET_ASSIGN_OR_RETURN(EncodedDataset encoded,
                                EncodedDataset::FromTableAuto(table));
        data = std::make_unique<EncodedDataset>(std::move(encoded));
        encode_seconds = timer.ElapsedSeconds();
        report.features_in = data->num_features();
        if (span.active()) {
          span.AddAttr("features", report.features_in);
          span.AddAttr("rows", data->num_rows());
        }
      }
      {
        obs::TraceSpan span("pipeline.split");
        Timer timer;
        Rng rng(config.seed);
        split = MakeHoldoutSplit(data->num_rows(), rng, config.split);
        split_seconds = timer.ElapsedSeconds();
        if (span.active()) {
          span.AddAttr("train", static_cast<uint64_t>(split.train.size()));
          span.AddAttr("validation",
                       static_cast<uint64_t>(split.validation.size()));
          span.AddAttr("test", static_cast<uint64_t>(split.test.size()));
        }
      }

      // 4. Feature selection + final holdout evaluation (spans fs.search /
      //    fs.step / fs.final_fit open inside, nesting under `pipeline`).
      HAMLET_ASSIGN_OR_RETURN(
          report.selection,
          RunFeatureSelection(*selector, *data, split, factory, config.metric,
                              data->AllFeatureIndices()));
    }
  }
  report.total_seconds = total_timer.ElapsedSeconds();

  if (collection.enabled()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    report.trace = obs::Tracer::Global().Collect();
    report.trace_summary = obs::SummarizeTrace(report.trace, snapshot);

    // Structured export: one JSONL snapshot line per traced run, and the
    // run's operator cost observations merged into the persisted
    // profile. Export failures are reported, not fatal — a read-only
    // artifacts/ directory must not fail the analysis itself.
    const std::string jsonl_path = PathFromConfigOrEnv(
        config.metrics_jsonl_path, "HAMLET_METRICS_JSONL");
    if (!jsonl_path.empty()) {
      obs::JsonlExporter exporter;
      Status st = exporter.Open(jsonl_path);
      if (st.ok()) st = exporter.Flush(snapshot, &report.trace_summary);
      if (!st.ok()) {
        std::cerr << "hamlet: metrics export failed: " << st << "\n";
      }
    }
    const std::string profile_path = PathFromConfigOrEnv(
        config.cost_profile_path, "HAMLET_COST_PROFILE");
    if (!profile_path.empty()) {
      const Status st =
          obs::CostProfileStore::Global().MergeIntoFile(profile_path);
      if (!st.ok()) {
        std::cerr << "hamlet: cost-profile export failed: " << st << "\n";
      }
    }
  } else {
    report.trace_summary =
        CoarseSummary(report, advise_seconds, encode_seconds, split_seconds);
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
      selection.runtime_seconds, selection.fit_seconds, total_seconds);
  return oss.str();
}

std::string PipelineReport::ExplainTree() const {
  if (trace.empty()) return std::string();
  return obs::RenderExplainTree(trace);
}

}  // namespace hamlet
