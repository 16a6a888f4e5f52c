/// Determinism lockdown for the code-level ingest and join fast paths
/// (docs/PERFORMANCE.md "Ingest & join fast path"): the chunked parallel
/// CSV reader and the code-level KfkJoin must produce tables
/// byte-identical to the pre-optimization serial implementations, at any
/// thread count. The legacy implementations are frozen in test code as
/// the reference: the getline CSV reader here, the label-keyed hash join
/// in legacy_hash_join.h.
///
/// Suite names contain "Determinism" so scripts/check_determinism.sh's
/// TSAN run picks them up.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <vector>

#include "analytics/pipeline.h"
#include "common/thread_pool.h"
#include "datasets/registry.h"
#include "legacy_hash_join.h"
#include "relational/catalog.h"
#include "relational/column.h"
#include "relational/csv.h"
#include "relational/join.h"

namespace hamlet {
namespace {

void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (uint32_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().column(c).name, b.schema().column(c).name) << what;
    // Codes AND dictionary label order: bit-identical, not just equal
    // label sequences.
    ASSERT_EQ(a.column(c).codes(), b.column(c).codes())
        << what << " column " << a.schema().column(c).name;
    ASSERT_EQ(a.column(c).domain()->labels(), b.column(c).domain()->labels())
        << what << " column " << a.schema().column(c).name;
  }
}

// ---------------------------------------------------------------------------
// CSV ingest.

/// The pre-PR serial reader, frozen: getline framing + ParseCsvLine +
/// TableBuilder::AppendRowLabels. It cannot carry quoted newlines (that
/// is the bug the rewrite fixed) but on newline-free files it defines the
/// exact codes and dictionary order the parallel reader must reproduce.
Result<Table> LegacyReadCsv(const std::string& path, std::string table_name,
                            Schema schema,
                            std::vector<std::shared_ptr<Domain>> domains,
                            const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("'" + path + "' is empty");
  }
  std::vector<std::string> header = ParseCsvLine(line, options.delimiter);
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument("header column count mismatch");
  }
  if (domains.empty()) domains.assign(schema.num_columns(), nullptr);
  TableBuilder builder(std::move(table_name), schema, std::move(domains));
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line, options.delimiter);
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument("ragged row");
    }
    Status s = builder.AppendRowLabels(fields);
    if (!s.ok()) {
      if (!options.strict && s.code() == StatusCode::kInvalidArgument) {
        continue;  // Lenient: skip domain violations.
      }
      return s;
    }
  }
  return builder.Build();
}

class CsvDeterminismTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& contents) {
    // Per-test-name paths: parallel ctest processes each restart the
    // counter, so a bare index would collide across tests.
    std::string path =
        ::testing::TempDir() + "/hamlet_det_csv_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(counter_++) + ".csv";
    std::ofstream out(path);
    out << contents;
    return path;
  }
  static int counter_;
};
int CsvDeterminismTest::counter_ = 0;

TEST_F(CsvDeterminismTest, ParallelReadMatchesLegacySerialReader) {
  // A skewed, repetitive body: later chunks re-see labels first seen in
  // earlier chunks, exercising the cross-chunk dictionary merge order.
  std::string contents = "K,A,B\n";
  for (int i = 0; i < 500; ++i) {
    contents += "k" + std::to_string(i) + ",a" + std::to_string(i % 7) +
                ",b" + std::to_string((i * 13) % 29) + "\n";
  }
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::PrimaryKey("K"), ColumnSpec::Feature("A"),
                 ColumnSpec::Feature("B")});

  CsvOptions options;
  auto legacy = LegacyReadCsv(path, "T", schema, {}, options);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  ASSERT_EQ(legacy->num_rows(), 500u);

  for (uint32_t num_threads : {1u, 2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions par;
    par.min_chunk_bytes = 64;  // Force real chunking on this small file.
    auto t = ReadCsv(path, "T", schema, par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *legacy,
                          "threads=" + std::to_string(num_threads));
  }
}

TEST_F(CsvDeterminismTest, LenientModeMatchesLegacyAcrossThreadCounts) {
  std::string contents = "A,B\n";
  for (int i = 0; i < 300; ++i) {
    contents += std::string(i % 5 == 0 ? "stray" : "ok") + ",v" +
                std::to_string(i % 11) + "\n";
  }
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  auto closed = std::make_shared<Domain>(std::vector<std::string>{"ok"});

  CsvOptions options;
  options.strict = false;
  auto legacy = LegacyReadCsv(path, "T", schema, {closed, nullptr}, options);
  ASSERT_TRUE(legacy.ok()) << legacy.status();

  for (uint32_t num_threads : {1u, 2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions par;
    par.strict = false;
    par.min_chunk_bytes = 64;
    auto t = ReadCsvWithDomains(path, "T", schema, {closed, nullptr}, par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *legacy,
                          "threads=" + std::to_string(num_threads));
  }
}

/// Row `i` of the escaped-label corpus: a small column K and a column L
/// over ~2,000 distinct labels, each seen twice, in a scrambled order.
/// Every fourth label needs unescaping: a quoted embedded delimiter, a
/// quoted "" quote, an unquoted '\r' (dropped), or a quoted newline when
/// `newlines` is set (a plain quoted label otherwise — the frozen getline
/// reader cannot frame a newline).
struct EscapedRow {
  std::string raw;                  ///< The record as written, with '\n'.
  std::vector<std::string> labels;  ///< Its unescaped fields.
};

EscapedRow MakeEscapedRow(int i, bool newlines) {
  const int k = (i * 37) % 2000;
  const std::string id = std::to_string(k);
  EscapedRow row;
  row.labels.push_back("k" + std::to_string(i % 5));
  std::string field;
  if (k % 4 != 0) {
    field = "p" + id;
    row.labels.push_back(field);
  } else {
    switch ((k / 4) % 4) {
      case 0:
        field = "\"d" + id + ",x\"";
        row.labels.push_back("d" + id + ",x");
        break;
      case 1:
        field = "\"q" + id + "\"\"y\"";
        row.labels.push_back("q" + id + "\"y");
        break;
      case 2:
        field = "c" + id + "\rz";
        row.labels.push_back("c" + id + "z");
        break;
      default:
        field = newlines ? "\"n" + id + "\nm\"" : "\"n" + id + "m\"";
        row.labels.push_back(newlines ? "n" + id + "\nm" : "n" + id + "m");
        break;
    }
  }
  row.raw = row.labels[0] + "," + field + "\n";
  return row;
}

TEST_F(CsvDeterminismTest, EscapedLabelsMatchLegacyAcrossChunks) {
  // ~2,000 distinct fresh labels grow every chunk's label index many
  // times, and a quarter of them go through the owned store for
  // unescaped fields instead of viewing the file buffer.
  constexpr int kRows = 4000;
  Schema schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("L")});
  for (bool newlines : {false, true}) {
    std::string contents = "K,L\n";
    TableBuilder expected_builder("T", schema);
    for (int i = 0; i < kRows; ++i) {
      EscapedRow row = MakeEscapedRow(i, newlines);
      contents += row.raw;
      ASSERT_TRUE(expected_builder.AppendRowLabels(row.labels).ok());
    }
    std::string path = WriteTemp(contents);
    // The getline reader frames newline-free files only; with quoted
    // newlines the reference is its encoding step alone, fed the rows.
    Table expected = expected_builder.Build();
    if (!newlines) {
      auto legacy = LegacyReadCsv(path, "T", schema, {}, CsvOptions{});
      ASSERT_TRUE(legacy.ok()) << legacy.status();
      ExpectTablesIdentical(*legacy, expected, "legacy");
    }
    ASSERT_EQ(expected.column(1).domain()->size(), 2000u);

    for (uint32_t num_threads : {1u, 2u, 8u}) {
      const ScopedWidth width(num_threads);
      CsvOptions par;
      par.min_chunk_bytes = 64;
      auto t = ReadCsv(path, "T", schema, par);
      ASSERT_TRUE(t.ok()) << t.status();
      ExpectTablesIdentical(*t, expected,
                            "newlines=" + std::to_string(newlines) +
                                " threads=" + std::to_string(num_threads));
    }
  }
}

TEST_F(CsvDeterminismTest, BundledDatasetRoundTripIsThreadInvariant) {
  // Export a bundled dataset's joined table and re-ingest it at several
  // thread counts: everything must come back identical.
  auto ds = MakeDataset("Walmart", 0.02, 13);
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto joined = ds->JoinAll();
  ASSERT_TRUE(joined.ok()) << joined.status();

  std::string path =
      ::testing::TempDir() + "/hamlet_det_walmart_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(*joined, path).ok());

  auto base = [&] {
    const ScopedWidth width(1);
    return ReadCsv(path, joined->name(), joined->schema());
  }();
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->num_rows(), joined->num_rows());

  for (uint32_t num_threads : {2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions par;
    par.min_chunk_bytes = 1024;
    auto t = ReadCsv(path, joined->name(), joined->schema(), par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *base,
                          "threads=" + std::to_string(num_threads));
  }
}

// ---------------------------------------------------------------------------
// Joins.

class JoinDeterminismTest : public ::testing::Test {};

TEST_F(JoinDeterminismTest, KfkJoinIsThreadInvariantOnBundledDatasets) {
  for (const char* name : {"Walmart", "MovieLens1M"}) {
    auto ds = MakeDataset(name, 0.02, 7);
    ASSERT_TRUE(ds.ok()) << ds.status();
    const auto fks = ds->foreign_keys();
    ASSERT_FALSE(fks.empty());
    const Table* r = *ds->AttributeTableFor(fks[0].fk_column);

    JoinOptions serial;
    serial.num_threads = 1;
    auto base = KfkJoin(ds->entity(), *r, fks[0].fk_column, serial);
    ASSERT_TRUE(base.ok()) << base.status();

    for (uint32_t num_threads : {2u, 8u}) {
      JoinOptions par;
      par.num_threads = num_threads;
      auto t = KfkJoin(ds->entity(), *r, fks[0].fk_column, par);
      ASSERT_TRUE(t.ok()) << t.status();
      ExpectTablesIdentical(*t, *base,
                            std::string(name) + " threads=" +
                                std::to_string(num_threads));
    }
  }
}

TEST_F(JoinDeterminismTest, KfkJoinMatchesLegacyLabelKeyedJoin) {
  for (const char* name : {"Walmart", "Yelp"}) {
    auto ds = MakeDataset(name, 0.02, 11);
    ASSERT_TRUE(ds.ok()) << ds.status();
    const auto fks = ds->foreign_keys();
    ASSERT_FALSE(fks.empty());
    const Table* r = *ds->AttributeTableFor(fks[0].fk_column);
    auto rid_idx = r->schema().PrimaryKeyIndex();
    ASSERT_TRUE(rid_idx.ok()) << rid_idx.status();
    const std::string rid_name = r->schema().column(*rid_idx).name;

    auto legacy =
        LegacyHashJoin(ds->entity(), *r, fks[0].fk_column, rid_name);
    ASSERT_TRUE(legacy.ok()) << legacy.status();

    for (uint32_t num_threads : {1u, 2u, 8u}) {
      JoinOptions par;
      par.num_threads = num_threads;
      auto t = KfkJoin(ds->entity(), *r, fks[0].fk_column, par);
      ASSERT_TRUE(t.ok()) << t.status();
      ExpectTablesIdentical(*t, *legacy,
                            std::string(name) + " threads=" +
                                std::to_string(num_threads));
    }
  }
}

TEST_F(JoinDeterminismTest,
       ReferentialIntegrityErrorIsIdenticalAcrossThreadCounts) {
  // S references r5, which the shrunken R lacks. The error must name the
  // *lowest* offending S row's FK label and the attribute table, at every
  // thread count.
  Schema r_schema(
      {ColumnSpec::PrimaryKey("RID"), ColumnSpec::Feature("XR")});
  TableBuilder rb("R", r_schema);
  for (int i = 0; i < 5; ++i) {  // r0..r4 only.
    ASSERT_TRUE(rb.AppendRowLabels({"r" + std::to_string(i),
                                    "v" + std::to_string(i)})
                    .ok());
  }
  Table r = rb.Build();

  Schema s_schema(
      {ColumnSpec::Target("Y"), ColumnSpec::ForeignKey("FK", "R")});
  TableBuilder sb("S", s_schema);
  for (int i = 0; i < 100; ++i) {
    // Rows 40 and 70 dangle; row 40 must win the error report.
    std::string fk = i == 40 ? "r5" : (i == 70 ? "r6" : "r" +
                                       std::to_string(i % 5));
    ASSERT_TRUE(sb.AppendRowLabels({"0", fk}).ok());
  }
  Table s = sb.Build();

  std::string serial_message;
  for (uint32_t num_threads : {1u, 2u, 8u}) {
    JoinOptions options;
    options.num_threads = num_threads;
    auto t = KfkJoin(s, r, "FK", options);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(t.status().message().find("referential integrity"),
              std::string::npos)
        << t.status();
    EXPECT_NE(t.status().message().find("'r5'"), std::string::npos)
        << t.status();
    EXPECT_NE(t.status().message().find("'R'"), std::string::npos)
        << t.status();
    if (num_threads == 1) {
      serial_message = t.status().message();
    } else {
      EXPECT_EQ(t.status().message(), serial_message);
    }
  }
}

TEST_F(JoinDeterminismTest, DuplicateRidErrorNamesTheLabel) {
  Schema r_schema(
      {ColumnSpec::PrimaryKey("RID"), ColumnSpec::Feature("XR")});
  TableBuilder rb("R", r_schema);
  ASSERT_TRUE(rb.AppendRowLabels({"r0", "a"}).ok());
  ASSERT_TRUE(rb.AppendRowLabels({"r1", "b"}).ok());
  Table r = rb.Build();
  Table dup = r.GatherRows({0, 1, 0});  // r0 appears twice.

  Schema s_schema(
      {ColumnSpec::Target("Y"), ColumnSpec::ForeignKey("FK", "R")});
  TableBuilder sb("S", s_schema, {nullptr, r.column(0).domain()});
  ASSERT_TRUE(sb.AppendRowLabels({"0", "r1"}).ok());
  Table s = sb.Build();

  for (uint32_t num_threads : {1u, 8u}) {
    JoinOptions options;
    options.num_threads = num_threads;
    auto t = KfkJoin(s, dup, "FK", options);
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.status().message().find("duplicate RID 'r0'"),
              std::string::npos)
        << t.status();
  }
}

// ---------------------------------------------------------------------------
// Factorized learning (ml/factorized.h).

class FactorizedDeterminismTest : public ::testing::Test {};

TEST_F(FactorizedDeterminismTest, PipelineEndToEndIsThreadInvariant) {
  // The full avoid-materialization pipeline — factorize, split, search,
  // final fit, holdout — must be bit-identical at any thread count, and
  // identical to the materialized run. This is the e2e sweep the TSAN
  // build in scripts/check_determinism.sh races.
  auto ds = MakeDataset("Walmart", 0.02, 19);
  ASSERT_TRUE(ds.ok()) << ds.status();

  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.metric = *MetricForDataset("Walmart");
  config.enable_join_avoidance = false;  // Factorize every table.
  config.seed = 19;

  config.avoid_materialization = false;
  config.num_threads = 1;
  auto mat = RunPipeline(*ds, config);
  ASSERT_TRUE(mat.ok()) << mat.status();

  config.avoid_materialization = true;
  for (uint32_t num_threads : {1u, 2u, 8u, 0u}) {
    config.num_threads = num_threads;
    auto fac = RunPipeline(*ds, config);
    ASSERT_TRUE(fac.ok()) << fac.status();
    const std::string what = "threads=" + std::to_string(num_threads);
    EXPECT_TRUE(fac->factorized) << what;
    EXPECT_EQ(fac->tables_joined, 0u) << what;
    EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names)
        << what;
    EXPECT_EQ(fac->selection.selection.validation_error,
              mat->selection.selection.validation_error)
        << what;
    EXPECT_EQ(fac->selection.holdout_test_error,
              mat->selection.holdout_test_error)
        << what;
  }
}

TEST_F(FactorizedDeterminismTest, AvoidModePeaksBelowMaterializedRun) {
  // The memory win the factorized path exists for: over the same dataset
  // and search, the avoid-materialization run's peak live Column bytes
  // must stay strictly below the materialized run's, because T = R ⋈ S is
  // never built. (BM_FactorizedVsMaterialized measures the ratio at 1M+
  // rows; this asserts the direction on a size ctest can afford.)
  auto ds = MakeDataset("Walmart", 0.05, 21);
  ASSERT_TRUE(ds.ok()) << ds.status();

  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.metric = *MetricForDataset("Walmart");
  config.enable_join_avoidance = false;  // The join is the cost measured.
  config.seed = 21;

  config.avoid_materialization = false;
  ColumnMemory::ResetPeak();
  const int64_t mat_base = ColumnMemory::LiveBytes();
  auto mat = RunPipeline(*ds, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  const int64_t mat_peak = ColumnMemory::PeakBytes() - mat_base;

  config.avoid_materialization = true;
  ColumnMemory::ResetPeak();
  const int64_t fac_base = ColumnMemory::LiveBytes();
  auto fac = RunPipeline(*ds, config);
  ASSERT_TRUE(fac.ok()) << fac.status();
  const int64_t fac_peak = ColumnMemory::PeakBytes() - fac_base;

  EXPECT_EQ(fac->selection.selected_names, mat->selection.selected_names);
  EXPECT_LT(fac_peak, mat_peak)
      << "avoid-materialization peaked at " << fac_peak
      << " transient Column bytes vs " << mat_peak << " materialized";
}

}  // namespace
}  // namespace hamlet
