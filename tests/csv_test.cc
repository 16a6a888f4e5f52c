#include "relational/csv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& contents) {
    // Keyed by test name: ctest runs each test in its own process (so a
    // static counter restarts at 0) and in parallel, so a bare counter
    // would collide across concurrently running tests.
    std::string path =
        ::testing::TempDir() + "/hamlet_csv_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(counter_++) + ".csv";
    std::ofstream out(path);
    out << contents;
    return path;
  }
  static int counter_;
};
int CsvTest::counter_ = 0;

TEST_F(CsvTest, ParseCsvLineBasic) {
  auto fields = ParseCsvLine("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST_F(CsvTest, ParseCsvLineQuoted) {
  auto fields = ParseCsvLine("\"a,b\",c", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
}

TEST_F(CsvTest, ParseCsvLineEscapedQuote) {
  auto fields = ParseCsvLine("\"say \"\"hi\"\"\",x", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST_F(CsvTest, ParseCsvLineStripsCarriageReturn) {
  auto fields = ParseCsvLine("a,b\r", ',');
  EXPECT_EQ(fields[1], "b");
}

TEST_F(CsvTest, ParseCsvLineEmptyFields) {
  auto fields = ParseCsvLine(",,", ',');
  EXPECT_EQ(fields.size(), 3u);
}

TEST_F(CsvTest, ReadsSimpleFile) {
  std::string path = WriteTemp("ID,Color\nr1,red\nr2,blue\n");
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Color")});
  auto t = ReadCsv(path, "T", schema);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ((*t->ColumnByName("Color"))->label(1), "blue");
}

TEST_F(CsvTest, ReadRecordsEachPhaseOnce) {
  // One traced read adds exactly one observation to each ingest phase
  // histogram, and its ingest.csv span carries the row count.
  std::string path = WriteTemp("ID,Color\nr1,red\nr2,blue\nr3,red\n");
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Color")});
  obs::Trace trace;
  {
    obs::ScopedCollection collection(true);
    auto t = ReadCsv(path, "T", schema);
    ASSERT_TRUE(t.ok()) << t.status();
    trace = obs::Tracer::Global().Collect();
  }

  for (const char* phase :
       {"ingest.read_ns", "ingest.parse_ns", "ingest.merge_ns"}) {
    EXPECT_EQ(
        obs::MetricsRegistry::Global().GetHistogram(phase).Snapshot().count,
        1u)
        << phase;
  }

  const auto ingest = std::find_if(
      trace.events.begin(), trace.events.end(),
      [](const obs::TraceEvent& e) { return e.name == "ingest.csv"; });
  ASSERT_NE(ingest, trace.events.end());
  const auto rows = std::find_if(
      ingest->attrs.begin(), ingest->attrs.end(),
      [](const obs::TraceAttr& a) { return a.key == "rows"; });
  ASSERT_NE(rows, ingest->attrs.end());
  EXPECT_TRUE(rows->is_number);
  EXPECT_EQ(rows->number, 3);
}

TEST_F(CsvTest, HeaderMismatchRejected) {
  std::string path = WriteTemp("Wrong,Header\nr1,red\n");
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Color")});
  EXPECT_FALSE(ReadCsv(path, "T", schema).ok());
}

TEST_F(CsvTest, ColumnCountMismatchRejected) {
  std::string path = WriteTemp("ID\nr1\n");
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Color")});
  EXPECT_FALSE(ReadCsv(path, "T", schema).ok());
}

TEST_F(CsvTest, MissingFileIsIOError) {
  Schema schema({ColumnSpec::Feature("A")});
  EXPECT_EQ(ReadCsv("/nonexistent/x.csv", "T", schema).status().code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, EmptyFileIsIOError) {
  std::string path = WriteTemp("");
  Schema schema({ColumnSpec::Feature("A")});
  EXPECT_EQ(ReadCsv(path, "T", schema).status().code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, StrictModeRejectsRaggedRows) {
  std::string path = WriteTemp("A,B\n1,2\nonly_one\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  EXPECT_FALSE(ReadCsv(path, "T", schema).ok());
}

// Field-count mismatches are framing errors and reject the file in BOTH
// modes — lenient mode used to skip such rows silently, biasing the data.
TEST_F(CsvTest, LenientModeStillRejectsRaggedRows) {
  std::string path = WriteTemp("A,B\n1,2\nonly_one\n3,4\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  CsvOptions options;
  options.strict = false;
  auto t = ReadCsv(path, "T", schema, options);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, RaggedRowErrorNamesTheLine) {
  // The short row is on line 3 of the file (header is line 1).
  std::string path = WriteTemp("A,B\n1,2\nonly_one\n3,4\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  CsvOptions options;
  options.strict = false;
  auto t = ReadCsv(path, "T", schema, options);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find(":3:"), std::string::npos)
      << t.status();
  EXPECT_NE(t.status().message().find("1 fields"), std::string::npos)
      << t.status();
}

TEST_F(CsvTest, TooManyFieldsRejectedWithLineNumber) {
  std::string path = WriteTemp("A,B\n1,2\n3,4,5\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  auto t = ReadCsv(path, "T", schema);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find(":3:"), std::string::npos)
      << t.status();
}

// What lenient mode still tolerates: rows violating a closed domain are
// skipped (the framing is fine, only the value is foreign).
TEST_F(CsvTest, LenientModeSkipsDomainViolations) {
  std::string path = WriteTemp("A\nyes\nmaybe\nno\n");
  Schema schema({ColumnSpec::Feature("A")});
  auto closed =
      std::make_shared<Domain>(std::vector<std::string>{"yes", "no"});
  CsvOptions options;
  options.strict = false;
  auto t = ReadCsvWithDomains(path, "T", schema, {closed}, options);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST_F(CsvTest, ClosedDomainEnforced) {
  std::string path = WriteTemp("A\nyes\nmaybe\n");
  Schema schema({ColumnSpec::Feature("A")});
  auto closed =
      std::make_shared<Domain>(std::vector<std::string>{"yes", "no"});
  auto t = ReadCsvWithDomains(path, "T", schema, {closed});
  EXPECT_FALSE(t.ok());  // "maybe" violates the closed domain.
}

TEST_F(CsvTest, RoundTripPreservesData) {
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Text")});
  TableBuilder builder("T", schema);
  ASSERT_TRUE(builder.AppendRowLabels({"a", "plain"}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"b", "has,comma"}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"c", "has\"quote"}).ok());
  Table original = builder.Build();

  std::string path = WriteTemp("");
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto reread = ReadCsv(path, "T", schema);
  ASSERT_TRUE(reread.ok()) << reread.status();
  ASSERT_EQ(reread->num_rows(), 3u);
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(reread->column(1).label(r), original.column(1).label(r));
  }
}

TEST_F(CsvTest, WriteToBadPathIsIOError) {
  Schema schema({ColumnSpec::Feature("A")});
  TableBuilder builder("T", schema);
  ASSERT_TRUE(builder.AppendRowLabels({"x"}).ok());
  EXPECT_EQ(WriteCsv(builder.Build(), "/nonexistent/dir/x.csv").code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// ParseCsvLine edge semantics, pinned. A '"' opens a quoted run only when
// the field is still empty; everything else about quotes is downstream of
// that rule.

TEST_F(CsvTest, ParseCsvLineMidFieldQuotesAreLiteral) {
  auto fields = ParseCsvLine("a\"b\"", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "a\"b\"");
}

TEST_F(CsvTest, ParseCsvLineEmptyQuotedField) {
  auto fields = ParseCsvLine("\"\"", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST_F(CsvTest, ParseCsvLineEscapedQuoteInsideQuotes) {
  auto fields = ParseCsvLine("\"a\"\"b\"", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "a\"b");
}

TEST_F(CsvTest, ParseCsvLineQuadQuoteIsOneQuote) {
  auto fields = ParseCsvLine("\"\"\"\"", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "\"");
}

TEST_F(CsvTest, ParseCsvLineTrailingDelimiterAddsEmptyField) {
  auto fields = ParseCsvLine("a,b,", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST_F(CsvTest, ParseCsvLineTextAfterClosingQuoteAppends) {
  auto fields = ParseCsvLine("\"a\"b", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "ab");
}

// The same edge cases must hold through the full reader, in both modes.
TEST_F(CsvTest, ReaderPreservesQuoteEdgeCases) {
  std::string path = WriteTemp(
      "A,B\n"
      "a\"b\",x\n"
      "\"\",y\n"
      "\"a\"\"b\",z\n"
      "w,\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  for (bool strict : {true, false}) {
    CsvOptions options;
    options.strict = strict;
    auto t = ReadCsv(path, "T", schema, options);
    ASSERT_TRUE(t.ok()) << t.status();
    ASSERT_EQ(t->num_rows(), 4u);
    EXPECT_EQ(t->column(0).label(0), "a\"b\"");
    EXPECT_EQ(t->column(0).label(1), "");
    EXPECT_EQ(t->column(0).label(2), "a\"b");
    EXPECT_EQ(t->column(1).label(3), "");
  }
}

// ---------------------------------------------------------------------------
// Quote-aware framing: quoted fields spanning line breaks.

TEST_F(CsvTest, QuotedFieldMaySpanLines) {
  std::string path = WriteTemp(
      "ID,Text\n"
      "r1,\"line1\nline2\"\n"
      "r2,plain\n");
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Text")});
  auto t = ReadCsv(path, "T", schema);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->column(1).label(0), "line1\nline2");
  EXPECT_EQ(t->column(1).label(1), "plain");
}

TEST_F(CsvTest, RoundTripPreservesDelimiterQuoteAndNewline) {
  Schema schema(
      {ColumnSpec::PrimaryKey("ID"), ColumnSpec::Feature("Text")});
  TableBuilder builder("T", schema);
  ASSERT_TRUE(builder.AppendRowLabels({"a", "has,comma"}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"b", "say \"hi\""}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"c", "line1\nline2"}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"d", "trail\r"}).ok());
  ASSERT_TRUE(builder.AppendRowLabels({"e", ""}).ok());
  Table original = builder.Build();

  std::string path = WriteTemp("");
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto reread = ReadCsv(path, "T", schema);
  ASSERT_TRUE(reread.ok()) << reread.status();
  ASSERT_EQ(reread->num_rows(), original.num_rows());
  for (uint32_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(reread->column(1).label(r), original.column(1).label(r)) << r;
  }
}

// Line numbers in errors count physical file lines, so a quoted newline
// above the bad row shifts the reported line.
TEST_F(CsvTest, ErrorLineNumberCountsQuotedNewlines) {
  std::string path = WriteTemp(
      "A,B\n"
      "\"line1\nline2\",x\n"
      "only_one\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  auto t = ReadCsv(path, "T", schema);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find(":4:"), std::string::npos)
      << t.status();
}

// The same error (message and line) surfaces regardless of thread count:
// the lowest-row failure wins deterministically.
TEST_F(CsvTest, ErrorsAreIdenticalAcrossThreadCounts) {
  std::string contents = "A,B\n";
  for (int i = 0; i < 50; ++i) {
    contents += "x" + std::to_string(i) + ",y\n";
  }
  contents += "ragged_row\n";  // Line 52.
  for (int i = 0; i < 50; ++i) contents += "z,w\n";
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});

  auto base = [&] {
    const ScopedWidth width(1);
    return ReadCsv(path, "T", schema);
  }();
  ASSERT_FALSE(base.ok());
  EXPECT_NE(base.status().message().find(":52:"), std::string::npos)
      << base.status();

  for (uint32_t num_threads : {2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions options;
    options.min_chunk_bytes = 1;  // Force one chunk per shard.
    auto t = ReadCsv(path, "T", schema, options);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().message(), base.status().message());
  }
}

TEST_F(CsvTest, StrictDomainErrorIsIdenticalAcrossThreadCounts) {
  std::string contents = "A\n";
  for (int i = 0; i < 40; ++i) contents += "yes\n";
  contents += "maybe\n";  // Line 42.
  for (int i = 0; i < 40; ++i) contents += "no\n";
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::Feature("A")});
  auto closed =
      std::make_shared<Domain>(std::vector<std::string>{"yes", "no"});

  auto base = [&] {
    const ScopedWidth width(1);
    return ReadCsvWithDomains(path, "T", schema, {closed});
  }();
  ASSERT_FALSE(base.ok());
  EXPECT_NE(base.status().message().find(":42:"), std::string::npos)
      << base.status();
  EXPECT_NE(base.status().message().find("'maybe'"), std::string::npos)
      << base.status();

  for (uint32_t num_threads : {2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions options;
    options.min_chunk_bytes = 1;
    auto t = ReadCsvWithDomains(path, "T", schema, {closed}, options);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().message(), base.status().message());
  }
}

// A quoted newline straddling a would-be chunk boundary must not split a
// record: framing follows the quoting state machine, not raw newlines.
TEST_F(CsvTest, QuotedNewlinesAcrossChunkBoundaries) {
  std::string contents = "A,B\n";
  for (int i = 0; i < 200; ++i) {
    contents += "\"multi\nline\nvalue" + std::to_string(i % 7) +
                "\",\"v\n" + std::to_string(i) + "\"\n";
  }
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});

  auto base = [&] {
    const ScopedWidth width(1);
    return ReadCsv(path, "T", schema);
  }();
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->num_rows(), 200u);

  for (uint32_t num_threads : {2u, 8u, 16u}) {
    const ScopedWidth width(num_threads);
    CsvOptions options;
    options.min_chunk_bytes = 1;
    auto t = ReadCsv(path, "T", schema, options);
    ASSERT_TRUE(t.ok()) << t.status();
    ASSERT_EQ(t->num_rows(), base->num_rows());
    for (uint32_t c = 0; c < 2; ++c) {
      // Codes AND label order must match bit-for-bit, not just labels.
      EXPECT_EQ(t->column(c).codes(), base->column(c).codes())
          << "threads " << num_threads;
      EXPECT_EQ(t->column(c).domain()->labels(), base->column(c).domain()->labels())
          << "threads " << num_threads;
    }
  }
}

// Lenient skips must not leak labels from skipped rows into fresh
// dictionaries, at any thread count.
TEST_F(CsvTest, LenientSkipsDoNotPolluteDictionaries) {
  std::string contents = "A,B\n";
  for (int i = 0; i < 30; ++i) {
    contents += (i % 3 == 0 ? "bad" : "yes");
    contents += ",lab" + std::to_string(i) + "\n";
  }
  std::string path = WriteTemp(contents);
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  auto closed =
      std::make_shared<Domain>(std::vector<std::string>{"yes", "no"});

  CsvOptions serial;
  serial.strict = false;
  auto base = [&] {
    const ScopedWidth width(1);
    return ReadCsvWithDomains(path, "T", schema, {closed, nullptr},
                              serial);
  }();
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_EQ(base->num_rows(), 20u);
  // Skipped rows contributed nothing to B's dictionary.
  EXPECT_EQ(base->column(1).domain()->size(), 20u);

  for (uint32_t num_threads : {2u, 8u}) {
    const ScopedWidth width(num_threads);
    CsvOptions options;
    options.min_chunk_bytes = 1;
    options.strict = false;
    auto t = ReadCsvWithDomains(path, "T", schema, {closed, nullptr}, options);
    ASSERT_TRUE(t.ok()) << t.status();
    EXPECT_EQ(t->column(1).codes(), base->column(1).codes());
    EXPECT_EQ(t->column(1).domain()->labels(),
              base->column(1).domain()->labels());
  }
}

TEST_F(CsvTest, CustomDelimiter) {
  std::string path = WriteTemp("A|B\n1|2\n");
  Schema schema({ColumnSpec::Feature("A"), ColumnSpec::Feature("B")});
  CsvOptions options;
  options.delimiter = '|';
  auto t = ReadCsv(path, "T", schema, options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(1).label(0), "2");
}

// Seeded mutation fuzz of the chunked reader: every mutant either fails
// with the same message at 1 and 8 threads or yields identical codes and
// labels, and never crashes (the ASan/UBSan passes of
// scripts/check_determinism.sh run this suite).
class CsvMutationTest : public CsvTest {
 protected:
  /// A closed-domain FK column, a high-cardinality fresh column (some
  /// labels quoted) and a small fresh column.
  static std::string BaseCsv() {
    std::string contents = "FK,Fresh,Small\n";
    for (int i = 0; i < 60; ++i) {
      contents += StringFormat(i % 5 == 0 ? "u%d,\"f%d,q\",s%d\n"
                                          : "u%d,f%d,s%d\n",
                               i % 6, i * 7, i % 3);
    }
    return contents;
  }

  /// Applies 1-3 seeded edits: a byte flip, an inserted '"', ',', '\n'
  /// or '\r', or a truncation.
  static std::string Mutate(std::string bytes, Rng& rng) {
    static constexpr char kInserts[] = {'"', ',', '\n', '\r'};
    const uint32_t edits = 1 + rng.Uniform(3);
    for (uint32_t e = 0; e < edits && !bytes.empty(); ++e) {
      const uint32_t pos =
          rng.Uniform(static_cast<uint32_t>(bytes.size()));
      switch (rng.Uniform(3)) {
        case 0:
          bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.Uniform(255)));
          break;
        case 1:
          bytes.insert(bytes.begin() + pos, kInserts[rng.Uniform(4)]);
          break;
        default:
          bytes.resize(pos);
          break;
      }
    }
    return bytes;
  }
};

TEST_F(CsvMutationTest, MutantsReadIdenticallyAtOneAndEightThreads) {
  Schema schema({ColumnSpec::Feature("FK"), ColumnSpec::Feature("Fresh"),
                 ColumnSpec::Feature("Small")});
  std::vector<std::string> users;
  for (int u = 0; u < 6; ++u) users.push_back(StringFormat("u%d", u));
  auto closed = std::make_shared<Domain>(users);
  const std::string base = BaseCsv();
  Rng rng(20161);
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < 400; ++m) {
    const std::string path = WriteTemp(Mutate(base, rng));
    const bool strict = m % 2 == 0;
    std::vector<Result<Table>> reads;
    for (uint32_t num_threads : {1u, 8u}) {
      const ScopedWidth width(num_threads);
      CsvOptions options;
      options.min_chunk_bytes = 64;
      options.strict = strict;
      reads.push_back(ReadCsvWithDomains(path, "T", schema,
                                         {closed, nullptr, nullptr},
                                         options));
    }
    std::remove(path.c_str());
    const Result<Table>& serial = reads[0];
    const Result<Table>& chunked = reads[1];
    ASSERT_EQ(serial.ok(), chunked.ok()) << "mutant " << m;
    if (!serial.ok()) {
      ASSERT_EQ(serial.status().message(), chunked.status().message())
          << "mutant " << m;
      ++rejected;
      continue;
    }
    ++parsed;
    ASSERT_EQ(serial->num_rows(), chunked->num_rows()) << "mutant " << m;
    for (uint32_t c = 0; c < schema.num_columns(); ++c) {
      ASSERT_EQ(serial->column(c).codes(), chunked->column(c).codes())
          << "mutant " << m << " column " << c;
      ASSERT_EQ(serial->column(c).domain()->labels(),
                chunked->column(c).domain()->labels())
          << "mutant " << m << " column " << c;
    }
  }
  // The edits must reach both outcomes, or the loop checks too little.
  EXPECT_GT(parsed, 40);
  EXPECT_GT(rejected, 40);
}

}  // namespace
}  // namespace hamlet
