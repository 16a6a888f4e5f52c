#include "serve/serde.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "data/splits.h"
#include "ml/tan.h"

namespace hamlet::serve {
namespace {

/// Bit-exact double comparison (== would conflate -0.0/0.0 and choke on
/// any NaN; the format's contract is the bit pattern).
bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Small synthetic dataset with a predictive feature and a noise feature.
EncodedDataset MakeData(uint64_t seed, uint32_t n = 400) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(5);
    y[i] = rng.Bernoulli(0.85) ? f[i] : 1 - f[i];
  }
  return EncodedDataset({f, g}, {{"F", 2}, {"G", 5}}, y, 2);
}

NaiveBayes TrainNb(const EncodedDataset& data) {
  NaiveBayes model(0.5);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

LogisticRegression TrainLr(const EncodedDataset& data) {
  LogisticRegressionOptions options;
  options.regularizer = Regularizer::kL1;
  options.lambda = 1e-3;
  options.max_epochs = 5;
  LogisticRegression model(options);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

/// Rewrites the CRC footer so a deliberate header edit is the ONLY
/// inconsistency under test.
void PatchCrc(std::string* bytes) {
  uint32_t crc = Crc32(bytes->data(), bytes->size() - kFooterSize);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - kFooterSize + i] =
        static_cast<char>(crc >> (8 * i));
  }
}

TEST(SerdeTest, DatasetRoundTripIsExact) {
  EncodedDataset data = MakeData(1);
  std::string bytes = SerializeDataset(data);
  auto back = DeserializeDataset(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), data.num_rows());
  ASSERT_EQ(back->num_features(), data.num_features());
  EXPECT_EQ(back->num_classes(), data.num_classes());
  EXPECT_EQ(back->labels(), data.labels());
  for (uint32_t j = 0; j < data.num_features(); ++j) {
    EXPECT_EQ(back->feature(j), data.feature(j)) << "feature " << j;
    EXPECT_EQ(back->meta(j).name, data.meta(j).name);
    EXPECT_EQ(back->meta(j).cardinality, data.meta(j).cardinality);
  }
}

TEST(SerdeTest, NaiveBayesRoundTripIsBitExact) {
  EncodedDataset data = MakeData(2);
  NaiveBayes model = TrainNb(data);
  std::string bytes = SerializeNaiveBayes(model);
  auto back = DeserializeNaiveBayes(bytes);
  ASSERT_TRUE(back.ok()) << back.status();

  NaiveBayesParams a = model.ExportParams();
  NaiveBayesParams b = back->ExportParams();
  EXPECT_EQ(std::bit_cast<uint64_t>(a.alpha), std::bit_cast<uint64_t>(b.alpha));
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.features, b.features);
  EXPECT_TRUE(BitsEqual(a.log_priors, b.log_priors));
  ASSERT_EQ(a.log_likelihoods.size(), b.log_likelihoods.size());
  for (size_t j = 0; j < a.log_likelihoods.size(); ++j) {
    EXPECT_TRUE(BitsEqual(a.log_likelihoods[j], b.log_likelihoods[j]));
  }

  // Bit-exact parameters imply identical predictions everywhere.
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_EQ(model.Predict(data, rows), back->Predict(data, rows));
}

TEST(SerdeTest, LogisticRegressionRoundTripIsBitExact) {
  EncodedDataset data = MakeData(3);
  LogisticRegression model = TrainLr(data);
  std::string bytes = SerializeLogisticRegression(model);
  auto back = DeserializeLogisticRegression(bytes);
  ASSERT_TRUE(back.ok()) << back.status();

  LogisticRegressionParams a = model.ExportParams();
  LogisticRegressionParams b = back->ExportParams();
  EXPECT_EQ(a.options.regularizer, b.options.regularizer);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.options.lambda),
            std::bit_cast<uint64_t>(b.options.lambda));
  EXPECT_EQ(a.options.max_epochs, b.options.max_epochs);
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.num_dims, b.num_dims);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_TRUE(BitsEqual(a.weights, b.weights));

  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_EQ(model.Predict(data, rows), back->Predict(data, rows));
}

TEST(SerdeTest, FsRunReportRoundTrip) {
  FsRunReport report;
  report.method = "Forward Selection";
  report.selection.selected = {2, 0, 5};
  report.selection.validation_error = 0.125;
  report.selection.models_trained = 42;
  report.selected_names = {"C", "A", "F"};
  report.holdout_test_error = 0.0625;
  report.runtime_seconds = 1.5;
  report.fit_seconds = 0.25;
  report.total_seconds = 1.75;

  std::string bytes = SerializeFsRunReport(report);
  auto back = DeserializeFsRunReport(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->method, report.method);
  EXPECT_EQ(back->selection.selected, report.selection.selected);
  EXPECT_EQ(std::bit_cast<uint64_t>(back->selection.validation_error),
            std::bit_cast<uint64_t>(report.selection.validation_error));
  EXPECT_EQ(back->selection.models_trained, report.selection.models_trained);
  EXPECT_EQ(back->selected_names, report.selected_names);
  EXPECT_EQ(std::bit_cast<uint64_t>(back->holdout_test_error),
            std::bit_cast<uint64_t>(report.holdout_test_error));
  EXPECT_EQ(std::bit_cast<uint64_t>(back->runtime_seconds),
            std::bit_cast<uint64_t>(report.runtime_seconds));
}

TEST(SerdeTest, SerializationIsDeterministic) {
  EncodedDataset data = MakeData(4);
  NaiveBayes model = TrainNb(data);
  EXPECT_EQ(SerializeNaiveBayes(model), SerializeNaiveBayes(model));
  EXPECT_EQ(SerializeDataset(data), SerializeDataset(data));
}

TEST(SerdeTest, HeaderLayoutIsAsDocumented) {
  std::string bytes = SerializeDataset(MakeData(5, 10));
  ASSERT_GE(bytes.size(), kHeaderSize + kFooterSize);
  EXPECT_EQ(bytes.substr(0, 4), "HMLT");
  uint16_t version = static_cast<uint8_t>(bytes[4]) |
                     (static_cast<uint16_t>(static_cast<uint8_t>(bytes[5]))
                      << 8);
  EXPECT_EQ(version, kFormatVersion);
  uint16_t kind = static_cast<uint8_t>(bytes[6]) |
                  (static_cast<uint16_t>(static_cast<uint8_t>(bytes[7])) << 8);
  EXPECT_EQ(kind, static_cast<uint16_t>(ArtifactKind::kEncodedDataset));
}

TEST(SerdeTest, KindOfSerializedAndMismatch) {
  EncodedDataset data = MakeData(6, 50);
  std::string dataset_bytes = SerializeDataset(data);
  auto kind = KindOfSerialized(dataset_bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kEncodedDataset);

  auto as_model = DeserializeNaiveBayes(dataset_bytes);
  ASSERT_FALSE(as_model.ok());
  EXPECT_EQ(SerdeErrorOf(as_model.status()), SerdeError::kKindMismatch);
  EXPECT_EQ(as_model.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SerdeTest, WrongFormatVersionRejected) {
  std::string bytes = SerializeNaiveBayes(TrainNb(MakeData(7, 60)));
  bytes[4] = 2;  // Pretend a future format version...
  PatchCrc(&bytes);  // ...with an otherwise-valid file.
  auto back = DeserializeNaiveBayes(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kBadVersion);
  EXPECT_EQ(back.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SerdeTest, EveryTruncationIsATypedError) {
  std::string bytes = SerializeNaiveBayes(TrainNb(MakeData(8, 30)));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto back = DeserializeNaiveBayes(bytes.substr(0, len));
    ASSERT_FALSE(back.ok()) << "prefix length " << len;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "prefix length " << len << ": " << back.status();
  }
}

TEST(SerdeTest, TrailingBytesRejected) {
  std::string bytes = SerializeNaiveBayes(TrainNb(MakeData(9, 30)));
  bytes.push_back('\0');
  auto back = DeserializeNaiveBayes(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kTrailingBytes);
}

// The fuzz contract of ISSUE 4: flipping ANY single byte of a saved
// artifact — header, payload, or CRC footer — yields a typed error,
// never a crash and never a silently wrong artifact.
TEST(SerdeTest, FlippingAnyByteIsATypedError) {
  std::string bytes = SerializeNaiveBayes(TrainNb(MakeData(10, 25)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(~static_cast<uint8_t>(corrupt[i]));
    auto back = DeserializeNaiveBayes(corrupt);
    ASSERT_FALSE(back.ok()) << "byte " << i;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "byte " << i << ": " << back.status();
  }
}

TEST(SerdeTest, FlippingFooterBytesIsCrcMismatch) {
  std::string bytes = SerializeDataset(MakeData(11, 20));
  for (size_t i = bytes.size() - kFooterSize; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(~static_cast<uint8_t>(corrupt[i]));
    auto back = DeserializeDataset(corrupt);
    ASSERT_FALSE(back.ok()) << "byte " << i;
    EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kCrcMismatch);
    EXPECT_EQ(back.status().code(), StatusCode::kIOError);
  }
}

TEST(SerdeTest, GarbageInputsAreTypedErrors) {
  EXPECT_EQ(SerdeErrorOf(DeserializeDataset("").status()),
            SerdeError::kTruncated);
  EXPECT_EQ(SerdeErrorOf(DeserializeDataset("not a hamlet artifact").status()),
            SerdeError::kBadMagic);
  std::string zeros(64, '\0');
  EXPECT_NE(SerdeErrorOf(DeserializeDataset(zeros).status()),
            SerdeError::kNone);
}

TEST(SerdeTest, SerdeErrorOfIgnoresForeignStatuses) {
  EXPECT_EQ(SerdeErrorOf(Status::OK()), SerdeError::kNone);
  EXPECT_EQ(SerdeErrorOf(Status::IOError("disk on fire")), SerdeError::kNone);
}

TEST(SerdeTest, FileRoundTripAndMissingFile) {
  EncodedDataset data = MakeData(12, 40);
  NaiveBayes model = TrainNb(data);
  std::string path = ::testing::TempDir() + "/serde_nb_roundtrip.hamlet";
  ASSERT_TRUE(WriteFileBytes(path, SerializeNaiveBayes(model)).ok());

  auto kind = PeekKind(path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kNaiveBayes);

  auto back = DeserializeNaiveBayes(*ReadFileBytes(path));
  ASSERT_TRUE(back.ok()) << back.status();
  NaiveBayesParams a = model.ExportParams();
  NaiveBayesParams b = back->ExportParams();
  EXPECT_TRUE(BitsEqual(a.log_priors, b.log_priors));

  EXPECT_EQ(ReadFileBytes("/nonexistent/model.hamlet").status().code(),
            StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(SerdeTest, TruncatedFileOnDiskIsTypedError) {
  EncodedDataset data = MakeData(13, 40);
  std::string path = ::testing::TempDir() + "/serde_truncated.hamlet";
  ASSERT_TRUE(WriteFileBytes(path, SerializeDataset(data)).ok());
  std::string bytes = *ReadFileBytes(path);
  ASSERT_TRUE(
      WriteFileBytes(path, std::string_view(bytes).substr(0, bytes.size() / 2))
          .ok());
  auto back = DeserializeDataset(*ReadFileBytes(path));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kTruncated);
  std::remove(path.c_str());
}

// Models produced by the parallel search serialize to the same bytes at
// any thread count — serde composes with the pool's determinism
// contract, so artifacts are reproducible across machines.
TEST(SerdeTest, SerializedBytesIdenticalAcrossNumThreads) {
  EncodedDataset data = MakeData(14, 600);
  Rng rng(99);
  HoldoutSplit split = MakeHoldoutSplit(data.num_rows(), rng);

  std::string bytes_by_threads[2];
  const uint32_t thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    auto selector = MakeSelector(FsMethod::kForwardSelection,
                                 thread_counts[t]);
    auto report = RunFeatureSelection(*selector, data, split,
                                      MakeNaiveBayesFactory(0.5),
                                      ErrorMetric::kZeroOne,
                                      data.AllFeatureIndices());
    ASSERT_TRUE(report.ok()) << report.status();
    NaiveBayes model(0.5);
    ASSERT_TRUE(
        model.Train(data, split.train, report->selection.selected).ok());
    bytes_by_threads[t] = SerializeNaiveBayes(model);
  }
  EXPECT_EQ(bytes_by_threads[0], bytes_by_threads[1]);
}

TEST(SerdeTest, ArtifactKindNames) {
  EXPECT_STREQ(ArtifactKindToString(ArtifactKind::kEncodedDataset),
               "dataset");
  EXPECT_STREQ(ArtifactKindToString(ArtifactKind::kNaiveBayes),
               "naive_bayes");
  EXPECT_STREQ(ArtifactKindToString(ArtifactKind::kDecisionTree),
               "decision_tree");
  EXPECT_STREQ(ArtifactKindToString(ArtifactKind::kGradientBoostedTrees),
               "gbt");
  EXPECT_TRUE(IsKnownArtifactKind(2));
  EXPECT_TRUE(IsKnownArtifactKind(5));
  EXPECT_TRUE(IsKnownArtifactKind(6));
  EXPECT_FALSE(IsKnownArtifactKind(0));
  EXPECT_FALSE(IsKnownArtifactKind(7));
  EXPECT_FALSE(IsKnownArtifactKind(99));
}

// --- Tree artifacts (ArtifactKind::kDecisionTree / kGradientBoostedTrees).

DecisionTree TrainTree(const EncodedDataset& data) {
  DecisionTree model;
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

Gbt TrainGbt(const EncodedDataset& data) {
  GbtOptions options;
  options.num_rounds = 3;  // Small ensemble keeps the fuzz loops fast.
  Gbt model(options);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

TEST(SerdeTest, DecisionTreeRoundTripIsBitExact) {
  EncodedDataset data = MakeData(15);
  DecisionTree model = TrainTree(data);
  std::string bytes = SerializeDecisionTree(model);
  auto kind = KindOfSerialized(bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kDecisionTree);
  auto back = DeserializeDecisionTree(bytes);
  ASSERT_TRUE(back.ok()) << back.status();

  DecisionTreeParams a = model.ExportParams();
  DecisionTreeParams b = back->ExportParams();
  EXPECT_EQ(std::bit_cast<uint64_t>(a.alpha), std::bit_cast<uint64_t>(b.alpha));
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.cardinalities, b.cardinalities);
  EXPECT_EQ(a.split_slot, b.split_slot);
  EXPECT_EQ(a.split_code, b.split_code);
  EXPECT_EQ(a.left, b.left);
  EXPECT_EQ(a.right, b.right);
  EXPECT_TRUE(BitsEqual(a.scores, b.scores));

  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_EQ(model.Predict(data, rows), back->Predict(data, rows));
}

TEST(SerdeTest, GbtRoundTripIsBitExact) {
  EncodedDataset data = MakeData(16);
  Gbt model = TrainGbt(data);
  std::string bytes = SerializeGbt(model);
  auto kind = KindOfSerialized(bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kGradientBoostedTrees);
  auto back = DeserializeGbt(bytes);
  ASSERT_TRUE(back.ok()) << back.status();

  GbtParams a = model.ExportParams();
  GbtParams b = back->ExportParams();
  EXPECT_EQ(std::bit_cast<uint64_t>(a.learning_rate),
            std::bit_cast<uint64_t>(b.learning_rate));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.lambda),
            std::bit_cast<uint64_t>(b.lambda));
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.cardinalities, b.cardinalities);
  EXPECT_TRUE(BitsEqual(a.base_scores, b.base_scores));
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (size_t m = 0; m < a.trees.size(); ++m) {
    EXPECT_EQ(a.trees[m].split_slot, b.trees[m].split_slot) << m;
    EXPECT_EQ(a.trees[m].split_code, b.trees[m].split_code) << m;
    EXPECT_EQ(a.trees[m].left, b.trees[m].left) << m;
    EXPECT_EQ(a.trees[m].right, b.trees[m].right) << m;
    EXPECT_TRUE(BitsEqual(a.trees[m].value, b.trees[m].value)) << m;
  }

  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_EQ(model.Predict(data, rows), back->Predict(data, rows));
}

TEST(SerdeTest, TreeKindMismatchesArePinned) {
  EncodedDataset data = MakeData(17, 60);
  std::string tree_bytes = SerializeDecisionTree(TrainTree(data));
  std::string gbt_bytes = SerializeGbt(TrainGbt(data));
  std::string nb_bytes = SerializeNaiveBayes(TrainNb(data));

  // Every cross-reading of the three model kinds is a typed mismatch.
  for (const std::string* bytes : {&gbt_bytes, &nb_bytes}) {
    auto as_tree = DeserializeDecisionTree(*bytes);
    ASSERT_FALSE(as_tree.ok());
    EXPECT_EQ(SerdeErrorOf(as_tree.status()), SerdeError::kKindMismatch);
    EXPECT_EQ(as_tree.status().code(), StatusCode::kFailedPrecondition);
  }
  for (const std::string* bytes : {&tree_bytes, &nb_bytes}) {
    auto as_gbt = DeserializeGbt(*bytes);
    ASSERT_FALSE(as_gbt.ok());
    EXPECT_EQ(SerdeErrorOf(as_gbt.status()), SerdeError::kKindMismatch);
  }
  auto as_nb = DeserializeNaiveBayes(tree_bytes);
  ASSERT_FALSE(as_nb.ok());
  EXPECT_EQ(SerdeErrorOf(as_nb.status()), SerdeError::kKindMismatch);
}

TEST(SerdeTest, EveryTreeTruncationIsATypedError) {
  std::string bytes = SerializeDecisionTree(TrainTree(MakeData(18, 30)));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto back = DeserializeDecisionTree(bytes.substr(0, len));
    ASSERT_FALSE(back.ok()) << "prefix length " << len;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "prefix length " << len << ": " << back.status();
  }
}

TEST(SerdeTest, EveryGbtTruncationIsATypedError) {
  std::string bytes = SerializeGbt(TrainGbt(MakeData(19, 30)));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto back = DeserializeGbt(bytes.substr(0, len));
    ASSERT_FALSE(back.ok()) << "prefix length " << len;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "prefix length " << len << ": " << back.status();
  }
}

TEST(SerdeTest, FlippingAnyTreeByteIsATypedError) {
  std::string bytes = SerializeDecisionTree(TrainTree(MakeData(20, 25)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(~static_cast<uint8_t>(corrupt[i]));
    auto back = DeserializeDecisionTree(corrupt);
    ASSERT_FALSE(back.ok()) << "byte " << i;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "byte " << i << ": " << back.status();
  }
}

TEST(SerdeTest, FlippingAnyGbtByteIsATypedError) {
  std::string bytes = SerializeGbt(TrainGbt(MakeData(21, 25)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(~static_cast<uint8_t>(corrupt[i]));
    auto back = DeserializeGbt(corrupt);
    ASSERT_FALSE(back.ok()) << "byte " << i;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "byte " << i << ": " << back.status();
  }
}

// A CRC-consistent file whose payload violates the tree schema must be
// kMalformed: deserialization re-runs ValidateTreeStructure, so a valid
// envelope cannot smuggle in an inconsistent tree. The edit below sets
// split_slot[0] to 99 at its documented payload offset — header (16) +
// alpha (8) + num_classes (4) + two length-prefixed u32 vectors of two
// features (16 each) + the split_slot length word (8) = byte 68.
TEST(SerdeTest, ValidCrcWithInconsistentTreeIsMalformed) {
  DecisionTree model = TrainTree(MakeData(22, 40));
  ASSERT_EQ(model.trained_features().size(), 2u);
  std::string bytes = SerializeDecisionTree(model);
  const size_t offset = 68;
  ASSERT_GE(bytes.size(), offset + 4 + kFooterSize);
  bytes[offset] = 99;
  bytes[offset + 1] = 0;
  bytes[offset + 2] = 0;
  bytes[offset + 3] = 0;
  PatchCrc(&bytes);
  auto back = DeserializeDecisionTree(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kMalformed);
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, TreeFileRoundTrip) {
  EncodedDataset data = MakeData(23, 40);
  DecisionTree tree = TrainTree(data);
  Gbt gbt = TrainGbt(data);
  std::string tree_path = ::testing::TempDir() + "/serde_tree.hamlet";
  std::string gbt_path = ::testing::TempDir() + "/serde_gbt.hamlet";
  ASSERT_TRUE(WriteFileBytes(tree_path, SerializeDecisionTree(tree)).ok());
  ASSERT_TRUE(WriteFileBytes(gbt_path, SerializeGbt(gbt)).ok());

  auto tree_kind = PeekKind(tree_path);
  ASSERT_TRUE(tree_kind.ok());
  EXPECT_EQ(*tree_kind, ArtifactKind::kDecisionTree);
  auto gbt_kind = PeekKind(gbt_path);
  ASSERT_TRUE(gbt_kind.ok());
  EXPECT_EQ(*gbt_kind, ArtifactKind::kGradientBoostedTrees);

  auto tree_back = DeserializeDecisionTree(*ReadFileBytes(tree_path));
  ASSERT_TRUE(tree_back.ok()) << tree_back.status();
  EXPECT_TRUE(BitsEqual(tree.ExportParams().scores,
                        tree_back->ExportParams().scores));
  auto gbt_back = DeserializeGbt(*ReadFileBytes(gbt_path));
  ASSERT_TRUE(gbt_back.ok()) << gbt_back.status();
  EXPECT_TRUE(BitsEqual(gbt.ExportParams().base_scores,
                        gbt_back->ExportParams().base_scores));

  EXPECT_EQ(ReadFileBytes("/nonexistent/tree.hamlet").status().code(),
            StatusCode::kIOError);
  std::remove(tree_path.c_str());
  std::remove(gbt_path.c_str());
}

// Format pin: CRC-32 over the serialized bytes (header + payload) of
// fixed-seed models of every servable kind, recorded before the scoring
// path was unified. A change here means .hamlet files written by
// earlier builds may no longer load byte-for-byte.
TEST(SerdeTest, SerializedModelBytesArePinned) {
  EncodedDataset data = MakeData(31, 300);
  const auto crc = [](const std::string& bytes) {
    return Crc32(bytes.data(), bytes.size() - kFooterSize);
  };
  EXPECT_EQ(crc(SerializeNaiveBayes(TrainNb(data))), 0x15be7c82u);
  EXPECT_EQ(crc(SerializeLogisticRegression(TrainLr(data))), 0x4298b277u);
  EXPECT_EQ(crc(SerializeDecisionTree(TrainTree(data))), 0x3ab4ec9eu);
  EXPECT_EQ(crc(SerializeGbt(TrainGbt(data))), 0x62f03748u);
}

// DeserializeModel reads the kind once and decodes any servable model;
// SerializeModel is its inverse over the same kinds.
TEST(SerdeTest, DeserializeModelCoversEveryModelKind) {
  EncodedDataset data = MakeData(32, 200);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  const NaiveBayes nb = TrainNb(data);
  const LogisticRegression lr = TrainLr(data);
  const DecisionTree tree = TrainTree(data);
  const Gbt gbt = TrainGbt(data);
  for (const Classifier* model :
       std::vector<const Classifier*>{&nb, &lr, &tree, &gbt}) {
    Result<std::string> bytes = SerializeModel(*model);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto kind = KindOfSerialized(*bytes);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(model->name(), ArtifactKindToString(*kind));
    auto back = DeserializeModel(*bytes);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ((*back)->name(), model->name());
    EXPECT_EQ((*back)->Predict(data, rows), model->Predict(data, rows));
  }
  EXPECT_EQ(*SerializeModel(nb), SerializeNaiveBayes(nb));
  EXPECT_EQ(*SerializeModel(gbt), SerializeGbt(gbt));

  TreeAugmentedNaiveBayes tan;
  ASSERT_TRUE(tan.Train(data, rows, {0, 1}).ok());
  EXPECT_EQ(SerializeModel(tan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerdeTest, DeserializeModelRejectsNonModelsTyped) {
  FsRunReport report;
  report.method = "Forward Selection";
  const std::string dataset_bytes = SerializeDataset(MakeData(33, 50));
  for (const std::string& bytes :
       {dataset_bytes, SerializeFsRunReport(report)}) {
    auto back = DeserializeModel(bytes);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kKindMismatch);
    EXPECT_EQ(back.status().code(), StatusCode::kFailedPrecondition);
  }
  // Header → size → CRC → kind: a corrupt dataset is a CRC failure, not
  // a kind mismatch.
  std::string corrupt = dataset_bytes;
  corrupt[kHeaderSize + 1] ^= 0x5a;
  EXPECT_EQ(SerdeErrorOf(DeserializeModel(corrupt).status()),
            SerdeError::kCrcMismatch);
  // Every truncation and byte flip of a model is a typed error.
  const std::string gbt_bytes = SerializeGbt(TrainGbt(MakeData(34, 25)));
  for (size_t i = 0; i < gbt_bytes.size(); ++i) {
    EXPECT_NE(SerdeErrorOf(
                  DeserializeModel(gbt_bytes.substr(0, i)).status()),
              SerdeError::kNone)
        << "prefix length " << i;
    std::string flipped = gbt_bytes;
    flipped[i] = static_cast<char>(~static_cast<uint8_t>(flipped[i]));
    EXPECT_NE(SerdeErrorOf(DeserializeModel(flipped).status()),
              SerdeError::kNone)
        << "byte " << i;
  }
}

}  // namespace
}  // namespace hamlet::serve
