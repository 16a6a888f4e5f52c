/// Determinism lockdown for the code-level ingest and join fast paths
/// (docs/PERFORMANCE.md "Ingest & join fast path"): the chunked parallel
/// CSV reader and the code-level KfkJoin/HashJoin must produce tables
/// byte-identical to the pre-optimization serial implementations, at any
/// thread count. The legacy implementations are replicated here, inside
/// the test, as the frozen reference.
///
/// Suite names contain "Determinism" so scripts/check_determinism.sh's
/// TSAN run picks them up.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <unordered_map>
#include <vector>

#include "analytics/pipeline.h"
#include "datasets/registry.h"
#include "ml/suff_stats.h"
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
    CsvOptions par;
    par.num_threads = num_threads;
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
    CsvOptions par;
    par.strict = false;
    par.num_threads = num_threads;
    par.min_chunk_bytes = 64;
    auto t = ReadCsvWithDomains(path, "T", schema, {closed, nullptr}, par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *legacy,
                          "threads=" + std::to_string(num_threads));
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

  CsvOptions serial;
  serial.num_threads = 1;
  auto base = ReadCsv(path, joined->name(), joined->schema(), serial);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->num_rows(), joined->num_rows());

  for (uint32_t num_threads : {2u, 8u}) {
    CsvOptions par;
    par.num_threads = num_threads;
    par.min_chunk_bytes = 1024;
    auto t = ReadCsv(path, joined->name(), joined->schema(), par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *base,
                          "threads=" + std::to_string(num_threads));
  }
}

// ---------------------------------------------------------------------------
// Joins.

/// The pre-PR HashJoin, frozen: label-keyed build map, per-key row
/// vectors, serial probe in left-row order. Defines the exact output row
/// order the CSR/code-level implementation must reproduce.
Result<Table> LegacyHashJoin(const Table& left, const Table& right,
                             const std::string& left_column,
                             const std::string& right_column) {
  HAMLET_ASSIGN_OR_RETURN(uint32_t l_idx, left.schema().IndexOf(left_column));
  HAMLET_ASSIGN_OR_RETURN(uint32_t r_idx,
                          right.schema().IndexOf(right_column));
  const Column& lcol = left.column(l_idx);
  const Column& rcol = right.column(r_idx);

  std::unordered_map<std::string, std::vector<uint32_t>> build;
  for (uint32_t row = 0; row < right.num_rows(); ++row) {
    build[rcol.label(row)].push_back(row);
  }
  std::vector<uint32_t> l_rows, r_rows;
  for (uint32_t row = 0; row < left.num_rows(); ++row) {
    auto it = build.find(lcol.label(row));
    if (it == build.end()) continue;
    for (uint32_t r_row : it->second) {
      l_rows.push_back(row);
      r_rows.push_back(r_row);
    }
  }

  std::vector<ColumnSpec> out_specs = left.schema().columns();
  std::vector<Column> out_cols;
  for (uint32_t c = 0; c < left.num_columns(); ++c) {
    out_cols.push_back(left.column(c).Gather(l_rows));
  }
  for (uint32_t c = 0; c < right.num_columns(); ++c) {
    if (c == r_idx) continue;
    out_specs.push_back(right.schema().column(c));
    out_cols.push_back(right.column(c).Gather(r_rows));
  }
  return Table(left.name() + "_join_" + right.name(),
               Schema(std::move(out_specs)), std::move(out_cols));
}

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

TEST_F(JoinDeterminismTest, HashJoinMatchesLegacyLabelKeyedJoin) {
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
      auto t = HashJoin(ds->entity(), *r, fks[0].fk_column, rid_name, par);
      ASSERT_TRUE(t.ok()) << t.status();
      ExpectTablesIdentical(*t, *legacy,
                            std::string(name) + " threads=" +
                                std::to_string(num_threads));
    }
  }
}

TEST_F(JoinDeterminismTest, ManyToManyHashJoinMatchesLegacyOrder) {
  // Duplicate keys on both sides: output order (left-row-major, right
  // rows ascending within a key) must match the legacy implementation.
  Schema l_schema({ColumnSpec::Feature("K"), ColumnSpec::Feature("L")});
  TableBuilder lb("L", l_schema);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(lb.AppendRowLabels({"k" + std::to_string(i % 5),
                                    "l" + std::to_string(i)})
                    .ok());
  }
  Schema r_schema({ColumnSpec::Feature("K2"), ColumnSpec::Feature("R")});
  TableBuilder rb("R", r_schema);
  for (int i = 0; i < 40; ++i) {
    // Keys k0..k7: some match the left side, some do not.
    ASSERT_TRUE(rb.AppendRowLabels({"k" + std::to_string(i % 8),
                                    "r" + std::to_string(i)})
                    .ok());
  }
  Table left = lb.Build();
  Table right = rb.Build();

  auto legacy = LegacyHashJoin(left, right, "K", "K2");
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  for (uint32_t num_threads : {1u, 2u, 8u}) {
    JoinOptions par;
    par.num_threads = num_threads;
    auto t = HashJoin(left, right, "K", "K2", par);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *legacy,
                          "threads=" + std::to_string(num_threads));
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

TEST_F(JoinDeterminismTest, RadixHashJoinMatchesCsrAcrossThreadsAndBits) {
  // The radix path must reproduce the monolithic CSR join bit for bit at
  // every thread count and partition fanout — the partitioned layout is
  // allowed to change cache behaviour, never results. The Bloom
  // pre-filter must be invisible in the output too.
  for (const char* name : {"Walmart", "Yelp"}) {
    auto ds = MakeDataset(name, 0.02, 23);
    ASSERT_TRUE(ds.ok()) << ds.status();
    const auto fks = ds->foreign_keys();
    ASSERT_FALSE(fks.empty());
    const Table* r = *ds->AttributeTableFor(fks[0].fk_column);
    auto rid_idx = r->schema().PrimaryKeyIndex();
    ASSERT_TRUE(rid_idx.ok()) << rid_idx.status();
    const std::string rid_name = r->schema().column(*rid_idx).name;

    JoinOptions serial;
    serial.num_threads = 1;
    serial.algorithm = JoinAlgorithm::kCsr;
    auto base = HashJoin(ds->entity(), *r, fks[0].fk_column, rid_name,
                         serial);
    ASSERT_TRUE(base.ok()) << base.status();

    for (uint32_t radix_bits : {4u, 8u, 16u}) {
      for (uint32_t num_threads : {1u, 2u, 8u}) {
        JoinOptions par;
        par.num_threads = num_threads;
        par.algorithm = JoinAlgorithm::kRadix;
        par.radix_bits = radix_bits;
        auto t = HashJoin(ds->entity(), *r, fks[0].fk_column, rid_name,
                          par);
        ASSERT_TRUE(t.ok()) << t.status();
        ExpectTablesIdentical(
            *t, *base,
            std::string(name) + " bits=" + std::to_string(radix_bits) +
                " threads=" + std::to_string(num_threads));
      }
    }

    // Bloom on: FK-shaped input, so the filter drops nothing — but it
    // must also change nothing.
    JoinOptions bloom_on;
    bloom_on.num_threads = 8;
    bloom_on.algorithm = JoinAlgorithm::kRadix;
    bloom_on.bloom = BloomFilterMode::kOn;
    auto t = HashJoin(ds->entity(), *r, fks[0].fk_column, rid_name,
                      bloom_on);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectTablesIdentical(*t, *base, std::string(name) + " bloom=on");
  }
}

TEST_F(JoinDeterminismTest, KfkJoinIsIdenticalUnderEveryAlgorithm) {
  // KfkJoin has one physical path; no JoinAlgorithm choice, fanout or
  // thread count may change its table.
  for (const char* name : {"Walmart", "MovieLens1M"}) {
    auto ds = MakeDataset(name, 0.02, 29);
    ASSERT_TRUE(ds.ok()) << ds.status();
    const auto fks = ds->foreign_keys();
    ASSERT_FALSE(fks.empty());
    const Table* r = *ds->AttributeTableFor(fks[0].fk_column);

    JoinOptions serial;
    serial.num_threads = 1;
    serial.algorithm = JoinAlgorithm::kCsr;
    auto base = KfkJoin(ds->entity(), *r, fks[0].fk_column, serial);
    ASSERT_TRUE(base.ok()) << base.status();

    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kAuto, JoinAlgorithm::kCsr, JoinAlgorithm::kRadix}) {
      for (uint32_t num_threads : {1u, 2u, 8u}) {
        JoinOptions options;
        options.num_threads = num_threads;
        options.algorithm = algorithm;
        options.radix_bits = 4;
        auto t = KfkJoin(ds->entity(), *r, fks[0].fk_column, options);
        ASSERT_TRUE(t.ok()) << t.status();
        ExpectTablesIdentical(
            *t, *base,
            std::string(name) + " algorithm=" +
                std::to_string(static_cast<int>(algorithm)) +
                " threads=" + std::to_string(num_threads));
      }
    }
  }
}

TEST_F(JoinDeterminismTest,
       RadixReferentialIntegrityErrorMatchesCsrAcrossThreadsAndBits) {
  // Same dangling-FK construction as the CSR test above: every
  // algorithm choice must report the lowest offending S row's label,
  // byte-identically, at every thread count.
  Schema r_schema(
      {ColumnSpec::PrimaryKey("RID"), ColumnSpec::Feature("XR")});
  TableBuilder rb("R", r_schema);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rb.AppendRowLabels({"r" + std::to_string(i),
                                    "v" + std::to_string(i)})
                    .ok());
  }
  Table r = rb.Build();

  Schema s_schema(
      {ColumnSpec::Target("Y"), ColumnSpec::ForeignKey("FK", "R")});
  TableBuilder sb("S", s_schema);
  for (int i = 0; i < 100; ++i) {
    std::string fk = i == 40 ? "r5" : (i == 70 ? "r6" : "r" +
                                       std::to_string(i % 5));
    ASSERT_TRUE(sb.AppendRowLabels({"0", fk}).ok());
  }
  Table s = sb.Build();

  JoinOptions csr;
  csr.num_threads = 1;
  csr.algorithm = JoinAlgorithm::kCsr;
  auto base = KfkJoin(s, r, "FK", csr);
  ASSERT_FALSE(base.ok());

  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kAuto, JoinAlgorithm::kCsr, JoinAlgorithm::kRadix}) {
    for (uint32_t num_threads : {1u, 2u, 8u}) {
      JoinOptions options;
      options.num_threads = num_threads;
      options.algorithm = algorithm;
      options.radix_bits = 2;
      auto t = KfkJoin(s, r, "FK", options);
      ASSERT_FALSE(t.ok());
      EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(t.status().message(), base.status().message())
          << "algorithm=" << static_cast<int>(algorithm)
          << " threads=" << num_threads;
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

  SuffStatsCache::Global().Clear();
  config.avoid_materialization = false;
  config.num_threads = 1;
  auto mat = RunPipeline(*ds, config);
  ASSERT_TRUE(mat.ok()) << mat.status();

  config.avoid_materialization = true;
  for (uint32_t num_threads : {1u, 2u, 8u, 0u}) {
    SuffStatsCache::Global().Clear();
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

  SuffStatsCache::Global().Clear();
  config.avoid_materialization = false;
  ColumnMemory::ResetPeak();
  const int64_t mat_base = ColumnMemory::LiveBytes();
  auto mat = RunPipeline(*ds, config);
  ASSERT_TRUE(mat.ok()) << mat.status();
  const int64_t mat_peak = ColumnMemory::PeakBytes() - mat_base;

  SuffStatsCache::Global().Clear();
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
