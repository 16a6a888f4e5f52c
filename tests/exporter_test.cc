#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_reader.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

obs::HistogramSnapshot MakeHistogram(const std::string& name,
                                     const std::vector<uint64_t>& values) {
  obs::HistogramSnapshot h;
  h.name = name;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  for (const uint64_t v : values) {
    ++h.count;
    h.sum_nanos += v;
    ++h.buckets[obs::Histogram::BucketFor(v)];
  }
  return h;
}

obs::MetricsSnapshot MakeSnapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"fs.models_trained", 42});
  snap.counters.push_back({"join.rows_probed", 100000});
  snap.histograms.push_back(
      MakeHistogram("serve.score_ns", {4, 4, 100, 100, 100, 5000}));
  return snap;
}

TEST(JsonlExportTest, LineIsValidJsonWithTheDocumentedShape) {
  std::ostringstream os;
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 7, os);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "JSONL must be one line";

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("seq")->AsUInt(), 7u);
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("fs.models_trained")->AsUInt(), 42u);
  const JsonValue* hist = doc.Find("histograms")->Find("serve.score_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsUInt(), 6u);
  EXPECT_EQ(hist->Find("sum_ns")->AsUInt(), uint64_t{4 + 4 + 100 * 3 + 5000});
  EXPECT_NE(hist->Find("p50_ns"), nullptr);
  EXPECT_NE(hist->Find("p99_ns"), nullptr);
  // Sparse buckets: only the three non-empty buckets appear, as
  // [index, count] pairs.
  const JsonValue* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->AsArray().size(), 3u);
  const auto& first = buckets->AsArray()[0].AsArray();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].AsUInt(), obs::Histogram::BucketFor(4));
  EXPECT_EQ(first[1].AsUInt(), 2u);
}

TEST(JsonlExportTest, SummaryAddsAStagesArray) {
  obs::TraceSummary summary;
  obs::StageStat stage;
  stage.name = "pipeline";
  stage.depth = 0;
  stage.count = 1;
  stage.total_seconds = 1.5;
  stage.self_seconds = 0.25;
  stage.numeric_attrs.push_back({"candidates", 17});
  summary.stages.push_back(stage);

  std::ostringstream os;
  obs::WriteSnapshotJsonl(MakeSnapshot(), &summary, 0, os);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &doc, &error)) << error;
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->AsArray().size(), 1u);
  const JsonValue& s = stages->AsArray()[0];
  EXPECT_EQ(s.Find("name")->AsString(), "pipeline");
  EXPECT_EQ(s.Find("count")->AsUInt(), 1u);
  EXPECT_DOUBLE_EQ(s.Find("total_seconds")->AsDouble(), 1.5);
  EXPECT_EQ(s.Find("attrs")->Find("candidates")->AsInt(), 17);
}

TEST(JsonlExportTest, RenderingIsDeterministicForASnapshot) {
  std::ostringstream a, b;
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 3, a);
  obs::WriteSnapshotJsonl(MakeSnapshot(), nullptr, 3, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(PrometheusExportTest, RendersTypedFamiliesWithMangledNames) {
  std::ostringstream os;
  obs::DumpPrometheusText(MakeSnapshot(), os);
  const std::string text = os.str();
  // Counters: hamlet_ prefix, dots -> underscores, TYPE annotation.
  EXPECT_NE(text.find("# TYPE hamlet_fs_models_trained counter"),
            std::string::npos);
  EXPECT_NE(text.find("hamlet_fs_models_trained 42\n"), std::string::npos);
  EXPECT_NE(text.find("hamlet_join_rows_probed 100000\n"),
            std::string::npos);
  // Histograms: TYPE histogram plus _sum/_count and a mandatory +Inf.
  EXPECT_NE(text.find("# TYPE hamlet_serve_score_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hamlet_serve_score_ns_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("hamlet_serve_score_ns_count 6\n"), std::string::npos);
  const uint64_t sum = 4 + 4 + 100 * 3 + 5000;
  EXPECT_NE(text.find("hamlet_serve_score_ns_sum " + std::to_string(sum)),
            std::string::npos);
}

TEST(PrometheusExportTest, HistogramBucketsAreCumulativeAndOrdered) {
  std::ostringstream os;
  obs::DumpPrometheusText(MakeSnapshot(), os);
  std::istringstream lines(os.str());
  std::string line;
  uint64_t prev_count = 0;
  double prev_le = -1.0;
  uint32_t bucket_lines = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "hamlet_serve_score_ns_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    ++bucket_lines;
    const size_t close = line.find('"', prefix.size());
    ASSERT_NE(close, std::string::npos);
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const uint64_t count = std::stoull(line.substr(close + 2));
    EXPECT_GE(count, prev_count) << "cumulative counts must not drop";
    prev_count = count;
    if (le == "+Inf") {
      EXPECT_EQ(count, 6u) << "+Inf bucket must equal the total count";
    } else {
      const double v = std::stod(le);
      EXPECT_GT(v, prev_le) << "le thresholds must increase";
      prev_le = v;
    }
  }
  EXPECT_GE(bucket_lines, 4u);  // Three value buckets plus +Inf.
}

}  // namespace
}  // namespace hamlet
