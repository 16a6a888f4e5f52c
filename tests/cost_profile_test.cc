#include "obs/cost_profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hamlet {
namespace {

obs::OperatorFeatures JoinFeatures(uint64_t rows_in) {
  obs::OperatorFeatures f;
  f.op = "join.kfk";
  f.rows_in = rows_in;
  f.rows_out = rows_in;
  f.build_rows = 1000;
  f.distinct_keys = 1000;
  f.num_threads = 4;
  return f;
}

obs::CostObservation Cost(uint64_t total_ns) {
  obs::CostObservation c;
  c.total_ns = total_ns;
  c.build_ns = total_ns / 4;
  c.probe_ns = total_ns / 2;
  c.materialize_ns = total_ns / 4;
  return c;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CostProfileFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/hamlet_cost_profile_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    std::remove(path_.c_str());
  }

  std::string path_;
};

TEST(CostProfileTest, SameFeaturesAggregateIntoOneRecord) {
  obs::CostProfile profile;
  profile.Add(JoinFeatures(50000), Cost(2000));
  profile.Add(JoinFeatures(50000), Cost(1000));
  profile.Add(JoinFeatures(50000), Cost(3000));
  ASSERT_EQ(profile.size(), 1u);
  const obs::CostRecord& r = profile.records().begin()->second;
  EXPECT_EQ(r.observations, 3u);
  EXPECT_EQ(r.total_ns_sum, 6000u);
  EXPECT_EQ(r.total_ns_min, 1000u);
  EXPECT_EQ(r.total_ns_max, 3000u);
  EXPECT_EQ(r.MeanTotalNs(), 2000u);
  // Different feature vectors open distinct records.
  profile.Add(JoinFeatures(90000), Cost(4000));
  EXPECT_EQ(profile.size(), 2u);
}

TEST(CostProfileTest, KeyIsCanonicalAndSortsByOperator) {
  EXPECT_EQ(JoinFeatures(50000).Key(), "join.kfk|50000|50000|1000|1000|4|0");
  obs::CostProfile profile;
  obs::OperatorFeatures ingest;
  ingest.op = "ingest.csv";
  profile.Add(JoinFeatures(1), Cost(1));
  profile.Add(ingest, Cost(1));
  // std::map ordering: ingest.csv before join.kfk.
  EXPECT_EQ(profile.records().begin()->second.features.op, "ingest.csv");
}

TEST_F(CostProfileFileTest, MergeIntoFileAccumulatesAcrossRuns) {
  // The ISSUE acceptance case: two consecutive runs merging into the
  // same file leave a growing record count — run N+1 folds its window
  // into what run N persisted instead of overwriting it.
  {
    obs::CostProfile run1;
    run1.Add(JoinFeatures(50000), Cost(2000));
    ASSERT_TRUE(run1.SaveToFile(path_).ok());
  }
  obs::CostProfile run2;
  run2.Add(JoinFeatures(50000), Cost(4000));   // Same features: merges.
  run2.Add(JoinFeatures(250000), Cost(9000));  // New features: appends.

  obs::CostProfile on_disk;
  ASSERT_TRUE(on_disk.LoadFromFile(path_).ok());
  EXPECT_EQ(on_disk.size(), 1u);
  on_disk.Merge(run2);
  ASSERT_TRUE(on_disk.SaveToFile(path_).ok());

  obs::CostProfile merged;
  ASSERT_TRUE(merged.LoadFromFile(path_).ok());
  EXPECT_EQ(merged.size(), 2u);
  const obs::CostRecord& r =
      merged.records().at(JoinFeatures(50000).Key());
  EXPECT_EQ(r.observations, 2u);
  EXPECT_EQ(r.total_ns_sum, 6000u);
  EXPECT_EQ(r.total_ns_min, 2000u);
  EXPECT_EQ(r.total_ns_max, 4000u);
}

TEST_F(CostProfileFileTest, LoadMergeSaveRoundTripsBitIdentically) {
  obs::CostProfile profile;
  profile.Add(JoinFeatures(50000), Cost(2000));
  profile.Add(JoinFeatures(250000), Cost(9000));
  obs::OperatorFeatures ingest;
  ingest.op = "ingest.csv";
  ingest.rows_in = 123456;
  ingest.rows_out = 123456;
  ingest.distinct_keys = 27;
  ingest.num_threads = 8;
  profile.Add(ingest, Cost(777777));
  ASSERT_TRUE(profile.SaveToFile(path_).ok());
  const std::string original = ReadWholeFile(path_);
  ASSERT_FALSE(original.empty());

  // load -> merge(empty) -> save must reproduce the file byte for byte:
  // sorted map keys, all-integer fields, deterministic writer.
  obs::CostProfile reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path_).ok());
  reloaded.Merge(obs::CostProfile());
  ASSERT_TRUE(reloaded.SaveToFile(path_).ok());
  EXPECT_EQ(ReadWholeFile(path_), original);
}

TEST_F(CostProfileFileTest, MissingFileIsNotFoundNotAnError) {
  obs::CostProfile profile;
  const Status s = profile.LoadFromFile(path_);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(CostProfileTest, LoaderRejectsNewerSchemaVersions) {
  obs::CostProfile profile;
  profile.Add(JoinFeatures(1), Cost(1));
  std::ostringstream os;
  profile.WriteJson(os);
  std::string text = os.str();
  const std::string version_field = "\"hamlet_cost_profile_version\":1";
  const size_t pos = text.find(version_field);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, version_field.size(),
               "\"hamlet_cost_profile_version\":99");
  obs::CostProfile reloaded;
  const Status s = reloaded.ParseJsonText(text);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(CostProfileTest, ParseRederivesKeysFromFeatures) {
  // Keys in the file are presentation; the loader trusts the parsed
  // feature fields and rebuilds the map key from them, so a hand-edited
  // key cannot desynchronize the map from its records.
  obs::CostProfile profile;
  profile.Add(JoinFeatures(50000), Cost(2000));
  std::ostringstream os;
  profile.WriteJson(os);
  std::string text = os.str();
  const std::string key = JoinFeatures(50000).Key();
  const size_t pos = text.find("\"" + key + "\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, key.size() + 2, "\"bogus-key\"");
  obs::CostProfile reloaded;
  ASSERT_TRUE(reloaded.ParseJsonText(text).ok());
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.records().begin()->first, key);
}

TEST(CostProfileStoreTest, ScopedCollectionClearsTheStore) {
  obs::CostProfileStore::Global().Clear();
  {
    obs::ScopedCollection collection(true);
    obs::CostProfileStore::Global().Record(JoinFeatures(50000), Cost(2000));
    EXPECT_EQ(obs::CostProfileStore::Global().Snapshot().size(), 1u);
  }
  // A new window starts clean: leftover records would pollute the next
  // run's merge.
  obs::ScopedCollection collection(true);
  EXPECT_TRUE(obs::CostProfileStore::Global().Snapshot().empty());
}

TEST_F(CostProfileFileTest, StoreMergeIntoFileKeepsItsRecords) {
  obs::CostProfileStore::Global().Clear();
  obs::CostProfileStore::Global().Record(JoinFeatures(50000), Cost(2000));
  ASSERT_TRUE(obs::CostProfileStore::Global().MergeIntoFile(path_).ok());
  // The store still holds the window (callers may merge into several
  // files), and the file holds the record.
  EXPECT_EQ(obs::CostProfileStore::Global().Snapshot().size(), 1u);
  obs::CostProfile on_disk;
  ASSERT_TRUE(on_disk.LoadFromFile(path_).ok());
  EXPECT_EQ(on_disk.size(), 1u);
  obs::CostProfileStore::Global().Clear();
}

TEST_F(CostProfileFileTest, RadixPhaseTimingsRoundTripThroughJson) {
  // The radix join's extra phases (partition scatter, Bloom build) must
  // survive save -> load -> merge -> save with every integer intact —
  // they are the training data the kAuto algorithm choice reads back.
  obs::OperatorFeatures features;
  features.op = "join.radix";
  features.rows_in = 1u << 20;
  features.rows_out = 9953;
  features.build_rows = 10240;
  features.distinct_keys = 1u << 20;
  features.num_threads = 1;

  obs::CostObservation cost;
  cost.total_ns = 12'600'000;
  cost.build_ns = 3'800'000;
  cost.probe_ns = 800'000;
  cost.materialize_ns = 200'000;
  cost.partition_ns = 7'500'000;
  cost.bloom_build_ns = 60'000;

  obs::CostProfile profile;
  profile.Add(features, cost);
  profile.Add(features, cost);
  ASSERT_TRUE(profile.SaveToFile(path_).ok());

  obs::CostProfile reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path_).ok());
  ASSERT_EQ(reloaded.size(), 1u);
  const obs::CostRecord& r = reloaded.records().at(features.Key());
  EXPECT_EQ(r.observations, 2u);
  EXPECT_EQ(r.partition_ns_sum, 15'000'000u);
  EXPECT_EQ(r.bloom_build_ns_sum, 120'000u);

  // And the loaded profile's writer reproduces the file byte for byte.
  const std::string original = ReadWholeFile(path_);
  ASSERT_TRUE(reloaded.SaveToFile(path_).ok());
  EXPECT_EQ(ReadWholeFile(path_), original);
}

TEST(CostProfileTest, MeanNsPerProbeRowUsesLogScaleNeighborhood) {
  obs::CostProfile profile;
  obs::OperatorFeatures features;
  features.op = "join.radix";
  features.rows_in = 1'000'000;
  features.build_rows = 1'000'000;
  features.num_threads = 1;
  obs::CostObservation cost;
  cost.total_ns = 20'000'000;  // 20ns per probe row.
  profile.Add(features, cost);

  // Within a factor of 4 of the recorded build size: comparable.
  EXPECT_DOUBLE_EQ(profile.MeanNsPerProbeRow("join.radix", 1'000'000, 1),
                   20.0);
  EXPECT_GT(profile.MeanNsPerProbeRow("join.radix", 3'000'000, 1), 0.0);
  EXPECT_GT(profile.MeanNsPerProbeRow("join.radix", 300'000, 1), 0.0);
  // Outside the neighborhood, the wrong operator or another thread
  // count: no estimate.
  EXPECT_EQ(profile.MeanNsPerProbeRow("join.radix", 10'000'000, 1), 0.0);
  EXPECT_EQ(profile.MeanNsPerProbeRow("join.radix", 1'000, 1), 0.0);
  EXPECT_EQ(profile.MeanNsPerProbeRow("join.hash", 1'000'000, 1), 0.0);
  EXPECT_EQ(profile.MeanNsPerProbeRow("join.radix", 1'000'000, 8), 0.0);
}

TEST_F(CostProfileFileTest, CalibrationSeedBacksTheLiveWindow) {
  // Persist a profile, seed it as calibration, and confirm the store
  // answers MeanNsPerProbeRow from it when the live window is empty —
  // the cross-run feedback loop behind JoinAlgorithm::kAuto. A live
  // record for the same operator then takes precedence, and
  // ClearCalibration() forgets the seed (while Clear() does not).
  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  store.ClearCalibration();

  obs::OperatorFeatures features;
  features.op = "join.radix";
  features.rows_in = 1'000'000;
  features.build_rows = 1'000'000;
  features.num_threads = 1;
  obs::CostObservation seeded;
  seeded.total_ns = 40'000'000;  // 40ns per probe row.
  {
    obs::CostProfile profile;
    profile.Add(features, seeded);
    ASSERT_TRUE(profile.SaveToFile(path_).ok());
  }
  ASSERT_TRUE(store.SeedCalibrationFromFile(path_).ok());
  EXPECT_DOUBLE_EQ(store.MeanNsPerProbeRow("join.radix", 1'000'000, 1),
                   40.0);

  // Clear() resets the live window only; the calibration seed survives.
  store.Clear();
  EXPECT_DOUBLE_EQ(store.MeanNsPerProbeRow("join.radix", 1'000'000, 1),
                   40.0);

  // A live measurement shadows the seed.
  obs::CostObservation live;
  live.total_ns = 10'000'000;  // 10ns per probe row.
  store.Record(features, live);
  EXPECT_DOUBLE_EQ(store.MeanNsPerProbeRow("join.radix", 1'000'000, 1),
                   10.0);

  store.Clear();
  store.ClearCalibration();
  EXPECT_EQ(store.MeanNsPerProbeRow("join.radix", 1'000'000, 1), 0.0);

  // Seeding from a missing file reports NotFound and leaves no seed.
  std::remove(path_.c_str());
  EXPECT_EQ(store.SeedCalibrationFromFile(path_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.MeanNsPerProbeRow("join.radix", 1'000'000, 1), 0.0);
}

}  // namespace
}  // namespace hamlet
