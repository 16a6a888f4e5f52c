#include "serve/artifact_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"

namespace hamlet::serve {
namespace {

EncodedDataset MakeData(uint64_t seed, uint32_t n = 100) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(3);
    y[i] = rng.Bernoulli(0.8) ? (f[i] % 2) : 1 - (f[i] % 2);
  }
  return EncodedDataset({f}, {{"F", 3}}, y, 2);
}

NaiveBayes TrainNb(const EncodedDataset& data, double alpha = 1.0) {
  NaiveBayes model(alpha);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0}).ok());
  return model;
}

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/hamlet_store_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string root_;
};

TEST_F(ArtifactStoreTest, PutAllocatesGrowingVersions) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(1);
  NaiveBayes model = TrainNb(data);
  auto v1 = store.PutModel("m", model);
  auto v2 = store.PutModel("m", model);
  auto v3 = store.PutModel("m", model);
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  EXPECT_EQ(*v1, 1u);
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(*v3, 3u);
  auto latest = store.LatestVersion("m");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 3u);
}

TEST_F(ArtifactStoreTest, GetLatestResolvesHighestVersion) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(2);
  NaiveBayes a = TrainNb(data, 1.0);
  NaiveBayes b = TrainNb(data, 2.0);  // Distinguishable by alpha.
  ASSERT_TRUE(store.PutModel("m", a).ok());
  ASSERT_TRUE(store.PutModel("m", b).ok());
  auto latest = store.GetModelAs<NaiveBayes>("m");
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ((*latest)->alpha(), 2.0);
  auto pinned = store.GetModelAs<NaiveBayes>("m", 1);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ((*pinned)->alpha(), 1.0);
}

TEST_F(ArtifactStoreTest, MissingArtifactsAreNotFound) {
  ArtifactStore store(root_);
  EXPECT_EQ(store.GetModelAs<NaiveBayes>("absent").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.LatestVersion("absent").status().code(),
            StatusCode::kNotFound);
  // Present name, absent version.
  ASSERT_TRUE(store.PutDataset("d", MakeData(3)).ok());
  EXPECT_EQ(store.GetDataset("d", 9).status().code(), StatusCode::kNotFound);
}

TEST_F(ArtifactStoreTest, BadNamesRejected) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(4);
  for (const char* name : {"", "../escape", "a/b", ".hidden", "sp ace"}) {
    EXPECT_EQ(store.PutDataset(name, data).status().code(),
              StatusCode::kInvalidArgument)
        << "name '" << name << "'";
  }
  EXPECT_TRUE(store.PutDataset("ok_name-1.2", data).ok());
}

TEST_F(ArtifactStoreTest, KindMismatchIsTypedError) {
  ArtifactStore store(root_);
  ASSERT_TRUE(store.PutDataset("d", MakeData(5)).ok());
  auto as_model = store.GetModelAs<NaiveBayes>("d");
  ASSERT_FALSE(as_model.ok());
  EXPECT_EQ(SerdeErrorOf(as_model.status()), SerdeError::kKindMismatch);
}

TEST_F(ArtifactStoreTest, CorruptFileIsTypedErrorNotCrash) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(6);
  ASSERT_TRUE(store.PutDataset("d", data).ok());
  // Flip one payload byte in place on disk.
  const std::string path = root_ + "/d/v1.hamlet";
  std::string bytes = *ReadFileBytes(path);
  bytes[kHeaderSize + 3] =
      static_cast<char>(~static_cast<uint8_t>(bytes[kHeaderSize + 3]));
  ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  auto back = store.GetDataset("d");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kCrcMismatch);
}

TEST_F(ArtifactStoreTest, CacheHitsAfterFirstLoad) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(7);
  ASSERT_TRUE(store.PutModel("m", TrainNb(data)).ok());
  auto first = store.GetModelAs<NaiveBayes>("m", 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(store.cache_hits(), 0u);
  EXPECT_EQ(store.cache_misses(), 1u);
  auto second = store.GetModelAs<NaiveBayes>("m", 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store.cache_hits(), 1u);
  // Cache hits hand back the same deserialized instance.
  EXPECT_EQ(first->get(), second->get());

  store.ClearCache();
  auto third = store.GetModelAs<NaiveBayes>("m", 1);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(store.cache_hits(), 1u);
  EXPECT_EQ(store.cache_misses(), 2u);
}

TEST_F(ArtifactStoreTest, LruEvictsLeastRecentlyUsed) {
  ArtifactStore store(root_, /*cache_capacity=*/2);
  EncodedDataset data = MakeData(8);
  NaiveBayes model = TrainNb(data);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(store.PutModel(name, model).ok());
  }
  ASSERT_TRUE(store.GetModel("a").ok());  // miss → {a}
  ASSERT_TRUE(store.GetModel("b").ok());  // miss → {a, b}
  ASSERT_TRUE(store.GetModel("a").ok());  // hit, a now most recent
  ASSERT_TRUE(store.GetModel("c").ok());  // miss, evicts b → {a, c}
  uint64_t misses_before = store.cache_misses();
  ASSERT_TRUE(store.GetModel("a").ok());  // still cached
  EXPECT_EQ(store.cache_misses(), misses_before);
  ASSERT_TRUE(store.GetModel("b").ok());  // evicted → miss again
  EXPECT_EQ(store.cache_misses(), misses_before + 1);
}

TEST_F(ArtifactStoreTest, ListReportsEverythingSorted) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(9);
  ASSERT_TRUE(store.PutDataset("data", data).ok());
  ASSERT_TRUE(store.PutModel("model", TrainNb(data)).ok());
  ASSERT_TRUE(store.PutModel("model", TrainNb(data)).ok());
  auto list = store.List();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].name, "data");
  EXPECT_EQ((*list)[0].kind, ArtifactKind::kEncodedDataset);
  EXPECT_EQ((*list)[1].name, "model");
  EXPECT_EQ((*list)[1].version, 1u);
  EXPECT_EQ((*list)[2].version, 2u);
  EXPECT_GT((*list)[0].size_bytes, 0u);
}

TEST_F(ArtifactStoreTest, ListSkipsForeignFiles) {
  ArtifactStore store(root_);
  ASSERT_TRUE(store.PutDataset("d", MakeData(10)).ok());
  std::ofstream(root_ + "/d/README.txt") << "not an artifact";
  std::ofstream(root_ + "/d/v2.hamlet") << "garbage bytes";
  auto list = store.List();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);  // Foreign + corrupt files skipped.
  EXPECT_EQ((*list)[0].version, 1u);
}

TEST_F(ArtifactStoreTest, NoTmpFilesLeftBehindAfterPut) {
  ArtifactStore store(root_);
  ASSERT_TRUE(store.PutDataset("d", MakeData(11)).ok());
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root_)) {
    if (entry.is_directory()) continue;
    EXPECT_EQ(entry.path().extension(), ".hamlet") << entry.path();
  }
}

TEST_F(ArtifactStoreTest, KindOfProbesWithoutFullLoad) {
  ArtifactStore store(root_);
  ASSERT_TRUE(store.PutDataset("d", MakeData(12)).ok());
  auto kind = store.KindOf("d");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kEncodedDataset);
}

TEST_F(ArtifactStoreTest, DatasetRoundTripThroughStore) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(13);
  ASSERT_TRUE(store.PutDataset("d", data).ok());
  auto back = store.GetDataset("d");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ((*back)->labels(), data.labels());
  EXPECT_EQ((*back)->feature(0), data.feature(0));
}

TEST_F(ArtifactStoreTest, TreeModelsRoundTripThroughStore) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(14, 300);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;

  DecisionTree tree;
  ASSERT_TRUE(tree.Train(data, rows, {0}).ok());
  GbtOptions gbt_options;
  gbt_options.num_rounds = 3;
  Gbt gbt(gbt_options);
  ASSERT_TRUE(gbt.Train(data, rows, {0}).ok());

  auto tree_version = store.PutModel("tree", tree);
  ASSERT_TRUE(tree_version.ok()) << tree_version.status();
  EXPECT_EQ(*tree_version, 1u);
  auto gbt_version = store.PutModel("gbt", gbt);
  ASSERT_TRUE(gbt_version.ok()) << gbt_version.status();

  auto tree_kind = store.KindOf("tree");
  ASSERT_TRUE(tree_kind.ok());
  EXPECT_EQ(*tree_kind, ArtifactKind::kDecisionTree);
  auto gbt_kind = store.KindOf("gbt");
  ASSERT_TRUE(gbt_kind.ok());
  EXPECT_EQ(*gbt_kind, ArtifactKind::kGradientBoostedTrees);

  auto tree_back = store.GetModelAs<DecisionTree>("tree");
  ASSERT_TRUE(tree_back.ok()) << tree_back.status();
  EXPECT_EQ((*tree_back)->Predict(data, rows), tree.Predict(data, rows));
  auto gbt_back = store.GetModelAs<Gbt>("gbt");
  ASSERT_TRUE(gbt_back.ok()) << gbt_back.status();
  EXPECT_EQ((*gbt_back)->Predict(data, rows), gbt.Predict(data, rows));

  // Cache hits hand back the same deserialized instance.
  auto tree_again = store.GetModel("tree");
  ASSERT_TRUE(tree_again.ok());
  EXPECT_EQ(static_cast<const Classifier*>(tree_back->get()),
            tree_again->get());
}

TEST_F(ArtifactStoreTest, TreeKindMismatchIsTypedError) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(15);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  DecisionTree tree;
  ASSERT_TRUE(tree.Train(data, rows, {0}).ok());
  ASSERT_TRUE(store.PutModel("tree", tree).ok());
  // The named getters are GetModelAs of one kind.
  auto as_gbt = store.GetGbt("tree");
  ASSERT_FALSE(as_gbt.ok());
  EXPECT_EQ(SerdeErrorOf(as_gbt.status()), SerdeError::kKindMismatch);
  EXPECT_NE(as_gbt.status().message().find(
                "holds a decision_tree artifact, caller asked for gbt"),
            std::string::npos)
      << as_gbt.status();
  auto as_nb = store.GetNaiveBayes("tree");
  ASSERT_FALSE(as_nb.ok());
  EXPECT_EQ(SerdeErrorOf(as_nb.status()), SerdeError::kKindMismatch);
  auto as_lr = store.GetModelAs<LogisticRegression>("tree");
  ASSERT_FALSE(as_lr.ok());
  EXPECT_EQ(SerdeErrorOf(as_lr.status()), SerdeError::kKindMismatch);
  EXPECT_EQ(store.GetModel("absent").status().code(),
            StatusCode::kNotFound);
}

// GetModel is the one read-through path: a version file holds one
// kind, so the LRU is keyed by (name, version) alone and a typed getter
// shares the entry GetModel filled. Non-model artifacts are typed
// kind mismatches, and so is a model read as a dataset.
TEST_F(ArtifactStoreTest, GetModelReadsEachVersionOnce) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(16, 300);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  GbtOptions gbt_options;
  gbt_options.num_rounds = 3;
  Gbt gbt(gbt_options);
  ASSERT_TRUE(gbt.Train(data, rows, {0}).ok());
  auto version = store.PutModel("gbt", gbt);
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*store.KindOf("gbt"), ArtifactKind::kGradientBoostedTrees);

  auto model = store.GetModel("gbt");
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ((*model)->name(), "gbt");
  EXPECT_EQ((*model)->Predict(data, rows), gbt.Predict(data, rows));
  EXPECT_EQ(store.cache_misses(), 1u);
  auto typed = store.GetModelAs<Gbt>("gbt");
  ASSERT_TRUE(typed.ok()) << typed.status();
  EXPECT_EQ(static_cast<const Classifier*>(typed->get()), model->get());
  auto wrong_type = store.GetModelAs<NaiveBayes>("gbt");
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(SerdeErrorOf(wrong_type.status()), SerdeError::kKindMismatch);
  auto as_dataset = store.GetDataset("gbt");
  ASSERT_FALSE(as_dataset.ok());
  EXPECT_EQ(SerdeErrorOf(as_dataset.status()), SerdeError::kKindMismatch);
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(store.cache_hits(), 3u);

  ASSERT_TRUE(store.PutDataset("d", data).ok());
  ASSERT_TRUE(store.PutFsRunReport("r", FsRunReport{}).ok());
  for (const char* name : {"d", "r"}) {
    auto not_a_model = store.GetModel(name);
    ASSERT_FALSE(not_a_model.ok()) << name;
    EXPECT_EQ(SerdeErrorOf(not_a_model.status()), SerdeError::kKindMismatch)
        << name;
  }
  // A cached dataset read as a model is still a typed mismatch.
  ASSERT_TRUE(store.GetDataset("d").ok());
  EXPECT_EQ(SerdeErrorOf(store.GetModel("d").status()),
            SerdeError::kKindMismatch);
  EXPECT_EQ(store.GetModel("absent").status().code(), StatusCode::kNotFound);
}

TEST_F(ArtifactStoreTest, FsRunReportRoundTripThroughStore) {
  ArtifactStore store(root_);
  FsRunReport report;
  report.method = "MI Filter";
  report.selection.selected = {1};
  report.holdout_test_error = 0.5;
  ASSERT_TRUE(store.PutFsRunReport("run.fs_report", report).ok());
  auto back = store.GetFsRunReport("run.fs_report");
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->method, "MI Filter");
  EXPECT_EQ(back->selection.selected, std::vector<uint32_t>{1});
}

// Every successful publish bumps the generation counter exactly once —
// the warm-model-cache's kLatest revalidation signal — and a failed
// publish (bad name) leaves it untouched.
TEST_F(ArtifactStoreTest, GenerationCountsSuccessfulPublishes) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(20);
  EXPECT_EQ(store.generation(), 0u);
  ASSERT_TRUE(store.PutModel("m", TrainNb(data)).ok());
  EXPECT_EQ(store.generation(), 1u);
  ASSERT_TRUE(store.PutModel("m", TrainNb(data)).ok());
  ASSERT_TRUE(store.PutDataset("d", data).ok());
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_FALSE(store.PutModel("bad/name", TrainNb(data)).ok());
  EXPECT_EQ(store.generation(), 3u);
}

// Concurrent cache hits take the shared-lock path while the handed-out
// shared_ptrs pin the artifact: readers racing a publish (which evicts
// nothing, but bumps generation) and each other must always see a
// structurally-valid model. Primarily a TSAN target for
// scripts/check_determinism.sh.
TEST_F(ArtifactStoreTest, ConcurrentHitsSharePinnedModels) {
  ArtifactStore store(root_);
  EncodedDataset data = MakeData(21);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store.PutModel("m", model).ok());
  ASSERT_TRUE(store.GetModelAs<NaiveBayes>("m", 1).ok());  // Warm the cache.
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  const std::vector<uint32_t> expected = model.Predict(data, rows);

  constexpr int kReaders = 8;
  constexpr int kGetsPerReader = 50;
  std::vector<int> failures(kReaders, 0);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerReader; ++i) {
        auto hit = store.GetModelAs<NaiveBayes>("m", 1);  // Concrete: pure hit.
        if (!hit.ok() || (*hit)->Predict(data, rows) != expected) {
          ++failures[t];
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      if (!store.PutModel("other", model).ok()) return;
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(failures[t], 0) << "reader " << t;
  }
  EXPECT_GE(store.cache_hits(), static_cast<uint64_t>(kReaders));
}

}  // namespace
}  // namespace hamlet::serve
