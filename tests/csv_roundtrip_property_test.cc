/// Randomized CSV round-trip property: any table the library can build —
/// including labels with delimiters, quotes, and empty strings — must
/// survive WriteCsv -> ReadCsv bit-for-bit.

#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "relational/csv.h"

namespace hamlet {
namespace {

std::string RandomLabel(Rng& rng) {
  static const char* kAlphabet =
      "abcXYZ019 _-.,\"'\t;|\n\r"
      "\xC3\xA9";  // CSV specials (incl. newlines) and a UTF-8 byte pair.
  uint32_t len = rng.Uniform(10);
  std::string s;
  for (uint32_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.Uniform(22)]);
  }
  return s;
}

class CsvRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripTest, RandomTablesSurvive) {
  Rng rng(GetParam());
  const uint32_t n_cols = 1 + rng.Uniform(5);
  const uint32_t n_rows = rng.Uniform(60);

  std::vector<ColumnSpec> specs;
  for (uint32_t c = 0; c < n_cols; ++c) {
    specs.push_back(ColumnSpec::Feature("col" + std::to_string(c)));
  }
  Schema schema(specs);
  TableBuilder builder("T", schema);
  for (uint32_t r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    for (uint32_t c = 0; c < n_cols; ++c) {
      // Everything round-trips via quoting, including embedded newlines:
      // the reader frames on the quoting state machine, not on lines.
      row.push_back(RandomLabel(rng));
    }
    ASSERT_TRUE(builder.AppendRowLabels(row).ok());
  }
  Table original = builder.Build();

  std::string path = ::testing::TempDir() + "/roundtrip_" +
                     std::to_string(GetParam()) + ".csv";
  ASSERT_TRUE(WriteCsv(original, path).ok());
  for (uint32_t num_threads : {1u, 4u}) {
    const ScopedWidth width(num_threads);
    auto reread = ReadCsv(path, "T", schema);
    ASSERT_TRUE(reread.ok()) << reread.status();

    ASSERT_EQ(reread->num_rows(), original.num_rows());
    for (uint32_t c = 0; c < n_cols; ++c) {
      for (uint32_t r = 0; r < n_rows; ++r) {
        ASSERT_EQ(reread->column(c).label(r), original.column(c).label(r))
            << "cell (" << r << "," << c << ") seed " << GetParam()
            << " threads " << num_threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace hamlet
