#include "datasets/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/advisor.h"

namespace hamlet {
namespace {

TEST(RegistryTest, SevenDatasetsInPaperOrder) {
  auto names = AllDatasetNames();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "Walmart");
  EXPECT_EQ(names[6], "BookCrossing");
}

TEST(RegistryTest, SpecLookup) {
  for (const auto& name : AllDatasetNames()) {
    auto spec = DatasetSpecByName(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->name, name);
  }
  EXPECT_FALSE(DatasetSpecByName("Nope").ok());
}

TEST(RegistryTest, MetricsMatchPaper) {
  EXPECT_EQ(*MetricForDataset("Expedia"), ErrorMetric::kZeroOne);
  EXPECT_EQ(*MetricForDataset("Flights"), ErrorMetric::kZeroOne);
  for (const char* rmse :
       {"Walmart", "Yelp", "MovieLens1M", "LastFM", "BookCrossing"}) {
    EXPECT_EQ(*MetricForDataset(rmse), ErrorMetric::kRmse) << rmse;
  }
}

// Figure 6 schema statistics, parameterized over datasets.
struct Fig6Row {
  const char* name;
  uint32_t num_classes;
  uint32_t n_s, d_s;
  uint32_t k, k_closed;
  std::vector<std::pair<uint32_t, uint32_t>> tables;  // (n_Ri, d_Ri).
};

// gtest names each case after its printed parameter. Without a printer it
// dumps the row's raw bytes, whose name pointer moves with every
// address-space layout, so the case names would differ from run to run.
void PrintTo(const Fig6Row& row, std::ostream* os) { *os << row.name; }

class Figure6Test : public ::testing::TestWithParam<Fig6Row> {};

TEST_P(Figure6Test, SpecMatchesPaperStatistics) {
  const Fig6Row& row = GetParam();
  auto spec = *DatasetSpecByName(row.name);
  EXPECT_EQ(spec.num_classes, row.num_classes);
  EXPECT_EQ(spec.n_s, row.n_s);
  EXPECT_EQ(spec.s_features.size(), row.d_s);
  ASSERT_EQ(spec.tables.size(), row.k);
  uint32_t closed = 0;
  for (size_t i = 0; i < spec.tables.size(); ++i) {
    EXPECT_EQ(spec.tables[i].num_rows, row.tables[i].first)
        << row.name << " table " << i;
    EXPECT_EQ(spec.tables[i].features.size(), row.tables[i].second)
        << row.name << " table " << i;
    closed += spec.tables[i].closed_domain;
  }
  EXPECT_EQ(closed, row.k_closed);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFigure6, Figure6Test,
    ::testing::Values(
        Fig6Row{"Walmart", 7, 421570, 1, 2, 2, {{2340, 9}, {45, 2}}},
        Fig6Row{"Expedia", 2, 942142, 6, 2, 1,
                {{11939, 8}, {37021, 14}}},
        Fig6Row{"Flights", 2, 66548, 20, 3, 3,
                {{540, 5}, {3182, 6}, {3182, 6}}},
        Fig6Row{"Yelp", 5, 215879, 0, 2, 2, {{11537, 32}, {43873, 6}}},
        Fig6Row{"MovieLens1M", 5, 1000209, 0, 2, 2,
                {{3706, 21}, {6040, 4}}},
        Fig6Row{"LastFM", 5, 343747, 0, 2, 2, {{4999, 7}, {50000, 4}}},
        Fig6Row{"BookCrossing", 5, 253120, 0, 2, 2,
                {{27876, 2}, {49972, 4}}}),
    [](const ::testing::TestParamInfo<Fig6Row>& info) {
      return info.param.name;
    });

// The advisor's per-dataset decisions must reproduce the paper's
// (Figures 7/8): which joins JoinOpt avoided on each dataset.
struct DecisionRow {
  const char* name;
  std::vector<const char*> avoided;
};

void PrintTo(const DecisionRow& row, std::ostream* os) { *os << row.name; }

class PaperDecisionTest : public ::testing::TestWithParam<DecisionRow> {};

TEST_P(PaperDecisionTest, AdvisorReproducesPaperPlan) {
  const DecisionRow& row = GetParam();
  auto ds = MakeDataset(row.name, /*scale=*/0.05, /*seed=*/42);
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto plan = AdviseJoins(*ds);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<std::string> avoided = plan->fks_avoided;
  std::sort(avoided.begin(), avoided.end());
  std::vector<std::string> expected(row.avoided.begin(),
                                    row.avoided.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(avoided, expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSection5, PaperDecisionTest,
    ::testing::Values(
        DecisionRow{"Walmart", {"IndicatorID", "StoreID"}},
        DecisionRow{"Expedia", {"HotelID"}},  // SearchID is open-domain.
        DecisionRow{"Flights", {"AirlineID"}},
        DecisionRow{"Yelp", {}},
        DecisionRow{"MovieLens1M", {"MovieID", "UserID"}},
        DecisionRow{"LastFM", {"ArtistID"}},
        DecisionRow{"BookCrossing", {}}),
    [](const ::testing::TestParamInfo<DecisionRow>& info) {
      return info.param.name;
    });

TEST(RegistryTest, GeneratedDatasetsValidate) {
  for (const auto& name : AllDatasetNames()) {
    auto ds = MakeDataset(name, 0.02, 1);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status();
    EXPECT_TRUE(ds->entity().Validate().ok()) << name;
    for (const auto& r : ds->attribute_tables()) {
      EXPECT_TRUE(r.Validate().ok()) << name << "/" << r.name();
    }
    EXPECT_TRUE(ds->JoinAll().ok()) << name;
  }
}

TEST(RegistryTest, LabelEntropyPassesSkewGuardEverywhere) {
  // The decisions above only follow the TR rule if H(Y) >= 0.5 bits.
  for (const auto& name : AllDatasetNames()) {
    auto ds = *MakeDataset(name, 0.02, 1);
    auto plan = *AdviseJoins(ds);
    EXPECT_TRUE(plan.skew_guard.passes) << name;
  }
}

}  // namespace
}  // namespace hamlet
