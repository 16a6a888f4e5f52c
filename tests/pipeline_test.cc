#include "analytics/pipeline.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json_reader.h"
#include "datasets/registry.h"

namespace hamlet {
namespace {

PipelineConfig BaseConfig() {
  PipelineConfig config;
  config.method = FsMethod::kMiFilter;  // Cheapest of the four.
  config.metric = ErrorMetric::kRmse;
  config.seed = 7;
  return config;
}

TEST(PipelineTest, ClassifierKindNames) {
  EXPECT_STREQ(ClassifierKindToString(ClassifierKind::kNaiveBayes),
               "naive_bayes");
  EXPECT_STREQ(
      ClassifierKindToString(ClassifierKind::kLogisticRegressionL1),
      "logreg_l1");
  EXPECT_STREQ(
      ClassifierKindToString(ClassifierKind::kLogisticRegressionL2),
      "logreg_l2");
  EXPECT_STREQ(ClassifierKindToString(ClassifierKind::kTan), "tan");
}

TEST(PipelineTest, FactoriesProduceWorkingClassifiers) {
  EncodedDataset d({{0, 1, 0, 1}}, {{"F", 2}}, {0, 1, 0, 1}, 2);
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kLogisticRegressionL1,
        ClassifierKind::kLogisticRegressionL2, ClassifierKind::kTan}) {
    auto model = MakeClassifierFactory(kind)();
    ASSERT_NE(model, nullptr) << ClassifierKindToString(kind);
    EXPECT_TRUE(model->Train(d, {0, 1, 2, 3}, {0}).ok());
    EXPECT_EQ(model->PredictOne(d, 0), 0u);
    EXPECT_EQ(model->PredictOne(d, 1), 1u);
  }
}

TEST(PipelineTest, JoinOptAppliesAdvisorPlan) {
  auto ds = *MakeDataset("MovieLens1M", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto report = RunPipeline(ds, config);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->avoidance_applied);
  EXPECT_EQ(report->plan.fks_avoided.size(), 2u);
  EXPECT_EQ(report->tables_joined, 0u);  // Both joins avoided.
  EXPECT_EQ(report->features_in, 2u);    // Just the two FKs.
}

TEST(PipelineTest, JoinAllBaselineJoinsEverything) {
  auto ds = *MakeDataset("MovieLens1M", 0.02, 3);
  PipelineConfig config = BaseConfig();
  config.enable_join_avoidance = false;
  auto report = *RunPipeline(ds, config);
  EXPECT_FALSE(report.avoidance_applied);
  EXPECT_EQ(report.tables_joined, 2u);
  EXPECT_EQ(report.features_in, 27u);  // 21 + 4 foreign + 2 FKs.
  // The plan is still computed and reports the missed optimization.
  EXPECT_EQ(report.plan.fks_avoided.size(), 2u);
}

TEST(PipelineTest, OptimizerPreservesAccuracyAndCutsWork) {
  auto ds = *MakeDataset("MovieLens1M", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto opt = *RunPipeline(ds, config);
  config.enable_join_avoidance = false;
  auto all = *RunPipeline(ds, config);
  EXPECT_LE(opt.selection.holdout_test_error,
            all.selection.holdout_test_error + 0.05);
  EXPECT_LT(opt.selection.selection.models_trained,
            all.selection.selection.models_trained);
}

TEST(PipelineTest, OpenDomainTablesAlwaysJoined) {
  auto ds = *MakeDataset("Expedia", 0.02, 3);
  PipelineConfig config = BaseConfig();
  config.metric = ErrorMetric::kZeroOne;
  auto report = *RunPipeline(ds, config);
  // Hotels avoided; Searches (open-domain SearchID) must be joined.
  EXPECT_EQ(report.tables_joined, 1u);
  EXPECT_EQ(report.plan.fks_avoided,
            (std::vector<std::string>{"HotelID"}));
}

TEST(PipelineTest, SummaryMentionsTheEssentials) {
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto report = *RunPipeline(ds, config);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("JoinOpt"), std::string::npos);
  EXPECT_NE(summary.find("avoided"), std::string::npos);
  EXPECT_NE(summary.find("holdout error"), std::string::npos);
}

TEST(PipelineTest, WorksWithEveryClassifierKind) {
  auto ds = *MakeDataset("Walmart", 0.01, 3);
  for (ClassifierKind kind :
       {ClassifierKind::kNaiveBayes, ClassifierKind::kLogisticRegressionL1,
        ClassifierKind::kTan}) {
    PipelineConfig config = BaseConfig();
    config.classifier = kind;
    auto report = RunPipeline(ds, config);
    ASSERT_TRUE(report.ok()) << ClassifierKindToString(kind);
    EXPECT_GT(report->selection.selection.models_trained, 0u);
  }
}

TEST(PipelineTest, UntracedRunCarriesItsSpanTree) {
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto report = *RunPipeline(ds, config);
  EXPECT_FALSE(config.trace);
  // The stage tree is recorded on every run, rooted at `pipeline`.
  ASSERT_FALSE(report.trace.empty());
  EXPECT_NE(report.ExplainTree(), "");
  std::map<std::string, const obs::TraceEvent*> by_name;
  for (const auto& e : report.trace.events) by_name.emplace(e.name, &e);
  ASSERT_TRUE(by_name.count("pipeline"));
  EXPECT_EQ(report.trace.events[0].name, "pipeline");
  ASSERT_TRUE(by_name.count("fs.run"));
  ASSERT_TRUE(by_name.count("fs.search"));
  ASSERT_TRUE(by_name.count("fs.final_fit"));
  EXPECT_EQ(by_name["fs.run"]->parent_id, by_name["pipeline"]->id);
  EXPECT_EQ(by_name["fs.search"]->parent_id, by_name["fs.run"]->id);
  EXPECT_EQ(by_name["fs.final_fit"]->parent_id, by_name["fs.run"]->id);

  // Every duration is the tree's, bit for bit.
  const obs::TraceSummary& summary = report.trace_summary;
  EXPECT_EQ(report.selection.runtime_seconds,
            summary.StageSeconds("fs.search"));
  EXPECT_EQ(report.selection.fit_seconds,
            summary.StageSeconds("fs.final_fit"));
  EXPECT_EQ(report.selection.total_seconds, summary.StageSeconds("fs.run"));
  EXPECT_GT(summary.StageSeconds("pipeline"), 0.0);
  EXPECT_EQ(summary.total_seconds, summary.StageSeconds("pipeline"));
  // Counters are collected only when the run is traced.
  EXPECT_TRUE(summary.counters.empty());
}

TEST(PipelineTest, TracedRunProducesACoveringSpanTree) {
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  config.trace = true;
  auto report = *RunPipeline(ds, config);
  ASSERT_FALSE(report.trace.empty());
  ASSERT_FALSE(report.trace_summary.stages.empty());
  EXPECT_EQ(report.trace_summary.stages[0].name, "pipeline");

  // Every expected stage shows up, and the depth-1 stages account for
  // nearly all of the root span's time (the explain-tree contract).
  for (const char* stage :
       {"pipeline.advise", "pipeline.join", "pipeline.encode",
        "pipeline.split", "fs.search", "fs.final_fit"}) {
    EXPECT_GT(report.trace_summary.StageSeconds(stage), 0.0) << stage;
  }
  double child_seconds = 0.0;
  for (const auto& stage : report.trace_summary.stages) {
    if (stage.depth == 1) child_seconds += stage.total_seconds;
  }
  const double wall = report.trace_summary.StageSeconds("pipeline");
  EXPECT_GT(wall, 0.0);
  EXPECT_GE(child_seconds, 0.9 * wall);
  EXPECT_LE(child_seconds, wall * 1.001);

  // Tracing folds the run's counters into the summary.
  EXPECT_GT(report.trace_summary.counters.size(), 0u);
  uint64_t models = 0;
  for (const auto& c : report.trace_summary.counters) {
    if (c.name == "fs.models_trained") models = c.value;
  }
  EXPECT_EQ(models, report.selection.selection.models_trained);

  // The rendered tree and the trace survive the collection window.
  EXPECT_NE(report.ExplainTree().find("pipeline"), std::string::npos);
  EXPECT_FALSE(obs::Enabled());
}

TEST(PipelineTest, TracedRunsAppendOneJsonlLineEach) {
  const std::string path = ::testing::TempDir() + "/hamlet_pipeline_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  config.trace = true;
  config.metrics_jsonl_path = path;
  ASSERT_TRUE(RunPipeline(ds, config).ok());
  ASSERT_TRUE(RunPipeline(ds, config).ok());

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJson(line, &doc, &error)) << error;
    const JsonValue* seq = doc.Find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(seq->AsInt(), 0);  // Each run is its own window.
    const JsonValue* stages = doc.Find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_TRUE(stages->is_array());
    EXPECT_FALSE(stages->AsArray().empty());
  }
}

TEST(PipelineTest, TracingDoesNotChangeResults) {
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto plain = *RunPipeline(ds, config);
  config.trace = true;
  auto traced = *RunPipeline(ds, config);
  EXPECT_DOUBLE_EQ(plain.selection.holdout_test_error,
                   traced.selection.holdout_test_error);
  EXPECT_EQ(plain.selection.selected_names,
            traced.selection.selected_names);
}

TEST(PipelineTest, DeterministicInSeed) {
  auto ds = *MakeDataset("Walmart", 0.02, 3);
  PipelineConfig config = BaseConfig();
  auto a = *RunPipeline(ds, config);
  auto b = *RunPipeline(ds, config);
  EXPECT_DOUBLE_EQ(a.selection.holdout_test_error,
                   b.selection.holdout_test_error);
  EXPECT_EQ(a.selection.selected_names, b.selection.selected_names);
}

}  // namespace
}  // namespace hamlet
