#include "relational/column.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace hamlet {
namespace {

Column MakeColorColumn() {
  auto domain = std::make_shared<Domain>(
      std::vector<std::string>{"red", "green", "blue"});
  return Column({0, 2, 1, 0, 2}, domain);
}

TEST(ColumnTest, SizeAndCodes) {
  Column c = MakeColorColumn();
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.code(1), 2u);
  EXPECT_EQ(c.codes().size(), 5u);
}

TEST(ColumnTest, LabelLookup) {
  Column c = MakeColorColumn();
  EXPECT_EQ(c.label(0), "red");
  EXPECT_EQ(c.label(1), "blue");
}

TEST(ColumnTest, DomainSize) {
  EXPECT_EQ(MakeColorColumn().domain_size(), 3u);
}

TEST(ColumnTest, AppendGrows) {
  Column c = MakeColorColumn();
  c.Append(1);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.label(5), "green");
}

TEST(ColumnTest, GatherSelectsAndRepeats) {
  Column c = MakeColorColumn();
  Column g = c.Gather({4, 4, 0});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.code(0), 2u);
  EXPECT_EQ(g.code(1), 2u);
  EXPECT_EQ(g.code(2), 0u);
  // The dictionary is shared, not copied.
  EXPECT_EQ(g.domain(), c.domain());
}

TEST(ColumnTest, GatherEmpty) {
  EXPECT_EQ(MakeColorColumn().Gather({}).size(), 0u);
}

TEST(ColumnTest, GatherIsIdenticalAtAnyThreadCount) {
  auto domain = std::make_shared<Domain>(
      std::vector<std::string>{"a", "b", "c", "d"});
  std::vector<uint32_t> codes(5000);
  std::vector<uint32_t> rows(40000);
  for (uint32_t i = 0; i < codes.size(); ++i) codes[i] = (i * 7) % 4;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    rows[i] = (i * 31) % static_cast<uint32_t>(codes.size());
  }
  Column c(codes, domain);
  auto gather_at = [&](const std::vector<uint32_t>& picked, uint32_t width) {
    const ScopedWidth scope(width);
    return c.Gather(picked);
  };
  // A long gather that shards, and a 3-row one under two row grains,
  // which must stay on the calling thread at every width.
  for (const std::vector<uint32_t>& picked :
       {rows, std::vector<uint32_t>{4, 4, 0}}) {
    const Column serial = gather_at(picked, 1);
    for (uint32_t num_threads : {0u, 2u, 8u}) {
      const uint64_t regions = ThreadPool::Global().GetStats().regions;
      const Column parallel = gather_at(picked, num_threads);
      EXPECT_EQ(parallel.codes(), serial.codes()) << num_threads;
      EXPECT_EQ(parallel.domain(), c.domain());
      if (picked.size() < 2 * kGatherRowGrain) {
        EXPECT_EQ(ThreadPool::Global().GetStats().regions, regions)
            << num_threads;
      }
    }
  }
}

TEST(ColumnTest, CountDistinct) {
  Column c = MakeColorColumn();
  EXPECT_EQ(c.CountDistinct(), 3u);
  Column sub = c.Gather({0, 3});  // Both "red".
  EXPECT_EQ(sub.CountDistinct(), 1u);
}

TEST(ColumnTest, CountDistinctEmptyColumn) {
  Column c({}, std::make_shared<Domain>(std::vector<std::string>{"x"}));
  EXPECT_EQ(c.CountDistinct(), 0u);
}

TEST(ColumnTest, ValidateAcceptsInDomainCodes) {
  EXPECT_TRUE(MakeColorColumn().Validate());
}

TEST(ColumnTest, ValidateRejectsOutOfDomainCodes) {
  auto domain =
      std::make_shared<Domain>(std::vector<std::string>{"only"});
  Column c({0, 7}, domain);
  EXPECT_FALSE(c.Validate());
}

}  // namespace
}  // namespace hamlet
