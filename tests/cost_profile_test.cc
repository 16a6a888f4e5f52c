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

TEST_F(CostProfileFileTest, FileWithRetiredRadixFieldsStillLoadsAndMerges) {
  // A v1 profile as the writer emitted it while the radix join existed:
  // a join.radix record carrying partition_ns_sum and bloom_build_ns_sum,
  // fields this reader no longer knows. It must load, keep every field
  // it does know, and survive MergeIntoFile.
  const std::string kfk_key = JoinFeatures(50000).Key();
  {
    std::ofstream out(path_);
    out << R"({"hamlet_cost_profile_version":1,"operators":{)"
        << R"("join.radix|1048576|9953|10240|1048576|1|0":{)"
        << R"("op":"join.radix","rows_in":1048576,"rows_out":9953,)"
        << R"("build_rows":10240,"distinct_keys":1048576,"num_threads":1,)"
        << R"("shards":0,"observations":2,"total_ns_sum":25200000,)"
        << R"("total_ns_min":12600000,"total_ns_max":12600000,)"
        << R"("build_ns_sum":7600000,"probe_ns_sum":1600000,)"
        << R"("materialize_ns_sum":400000,"partition_ns_sum":15000000,)"
        << R"("bloom_build_ns_sum":120000}}})" << '\n';
  }
  const std::string radix_key = "join.radix|1048576|9953|10240|1048576|1|0";

  obs::CostProfile loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path_).ok());
  ASSERT_EQ(loaded.size(), 1u);
  const auto check_radix = [&](const obs::CostProfile& profile) {
    ASSERT_EQ(profile.records().count(radix_key), 1u);
    const obs::CostRecord& r = profile.records().at(radix_key);
    EXPECT_EQ(r.features.op, "join.radix");
    EXPECT_EQ(r.features.rows_in, 1048576u);
    EXPECT_EQ(r.features.rows_out, 9953u);
    EXPECT_EQ(r.features.build_rows, 10240u);
    EXPECT_EQ(r.features.distinct_keys, 1048576u);
    EXPECT_EQ(r.features.num_threads, 1u);
    EXPECT_EQ(r.observations, 2u);
    EXPECT_EQ(r.total_ns_sum, 25'200'000u);
    EXPECT_EQ(r.total_ns_min, 12'600'000u);
    EXPECT_EQ(r.total_ns_max, 12'600'000u);
    EXPECT_EQ(r.build_ns_sum, 7'600'000u);
    EXPECT_EQ(r.probe_ns_sum, 1'600'000u);
    EXPECT_EQ(r.materialize_ns_sum, 400'000u);
  };
  check_radix(loaded);

  auto& store = obs::CostProfileStore::Global();
  store.Clear();
  store.Record(JoinFeatures(50000), Cost(2000));
  ASSERT_TRUE(store.MergeIntoFile(path_).ok());
  store.Clear();

  obs::CostProfile merged;
  ASSERT_TRUE(merged.LoadFromFile(path_).ok());
  EXPECT_EQ(merged.size(), 2u);
  check_radix(merged);
  EXPECT_EQ(merged.records().at(kfk_key).observations, 1u);
  // The merged file is written by the current writer.
  EXPECT_EQ(ReadWholeFile(path_).find("partition_ns_sum"), std::string::npos);
}

}  // namespace
}  // namespace hamlet
