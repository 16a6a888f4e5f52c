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
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
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

/// SerializeModel's bytes of a model every artifact kind covers.
std::string Bytes(const Classifier& model) {
  Result<std::string> bytes = SerializeModel(model);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// DeserializeModel of `bytes` as the concrete `Model` (nullptr when the
/// bytes hold another kind); the status when decoding fails.
template <typename Model>
Result<std::shared_ptr<const Model>> DeserializeAs(std::string_view bytes) {
  HAMLET_ASSIGN_OR_RETURN(std::shared_ptr<const Classifier> model,
                          DeserializeModel(bytes));
  const Model* typed = ModelAs<Model>(*model);
  return std::shared_ptr<const Model>(std::move(model), typed);
}

/// Every proper prefix of `bytes` must decode to a typed error.
void ExpectEveryTruncationIsTyped(const std::string& bytes) {
  SCOPED_TRACE(ArtifactKindToString(*KindOfSerialized(bytes)));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto back = DeserializeModel(bytes.substr(0, len));
    ASSERT_FALSE(back.ok()) << "prefix length " << len;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "prefix length " << len << ": " << back.status();
  }
}

/// Flipping any single byte of `bytes` must decode to a typed error.
void ExpectEveryByteFlipIsTyped(const std::string& bytes) {
  SCOPED_TRACE(ArtifactKindToString(*KindOfSerialized(bytes)));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(~static_cast<uint8_t>(corrupt[i]));
    auto back = DeserializeModel(corrupt);
    ASSERT_FALSE(back.ok()) << "byte " << i;
    EXPECT_NE(SerdeErrorOf(back.status()), SerdeError::kNone)
        << "byte " << i << ": " << back.status();
  }
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
  auto back = DeserializeAs<NaiveBayes>(Bytes(model));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(*back, nullptr);

  NaiveBayesParams a = model.ExportParams();
  NaiveBayesParams b = (*back)->ExportParams();
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
  EXPECT_EQ(model.Predict(data, rows), (*back)->Predict(data, rows));
}

TEST(SerdeTest, LogisticRegressionRoundTripIsBitExact) {
  EncodedDataset data = MakeData(3);
  LogisticRegression model = TrainLr(data);
  auto back = DeserializeAs<LogisticRegression>(Bytes(model));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(*back, nullptr);

  LogisticRegressionParams a = model.ExportParams();
  LogisticRegressionParams b = (*back)->ExportParams();
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
  EXPECT_EQ(model.Predict(data, rows), (*back)->Predict(data, rows));
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
  EXPECT_EQ(Bytes(model), Bytes(model));
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

  auto as_model = DeserializeModel(dataset_bytes);
  ASSERT_FALSE(as_model.ok());
  EXPECT_EQ(SerdeErrorOf(as_model.status()), SerdeError::kKindMismatch);
  EXPECT_EQ(as_model.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SerdeTest, WrongFormatVersionRejected) {
  std::string bytes = Bytes(TrainNb(MakeData(7, 60)));
  bytes[4] = 2;  // Pretend a future format version...
  PatchCrc(&bytes);  // ...with an otherwise-valid file.
  auto back = DeserializeModel(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kBadVersion);
  EXPECT_EQ(back.status().code(), StatusCode::kFailedPrecondition);
}

// Every proper prefix of a saved model is a typed error (NB and LR
// here; the tree and GBT sweeps follow their round trips below).
TEST(SerdeTest, EveryTruncationIsATypedError) {
  const EncodedDataset data = MakeData(8, 30);
  ExpectEveryTruncationIsTyped(Bytes(TrainNb(data)));
  ExpectEveryTruncationIsTyped(Bytes(TrainLr(data)));
}

TEST(SerdeTest, TrailingBytesRejected) {
  std::string bytes = Bytes(TrainNb(MakeData(9, 30)));
  bytes.push_back('\0');
  auto back = DeserializeModel(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(SerdeErrorOf(back.status()), SerdeError::kTrailingBytes);
}

// The fuzz contract: flipping ANY single byte of a saved model —
// header, payload, or CRC footer — yields a typed error, never a crash
// and never a silently wrong artifact (NB and LR here; the tree and GBT
// sweeps follow their round trips below).
TEST(SerdeTest, FlippingAnyByteIsATypedError) {
  const EncodedDataset data = MakeData(10, 25);
  ExpectEveryByteFlipIsTyped(Bytes(TrainNb(data)));
  ExpectEveryByteFlipIsTyped(Bytes(TrainLr(data)));
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
  ASSERT_TRUE(WriteFileBytes(path, Bytes(model)).ok());

  auto kind = PeekKind(path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kNaiveBayes);

  auto back = DeserializeAs<NaiveBayes>(*ReadFileBytes(path));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(*back, nullptr);
  NaiveBayesParams a = model.ExportParams();
  NaiveBayesParams b = (*back)->ExportParams();
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
    bytes_by_threads[t] = Bytes(model);
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

TEST(SerdeTest, DecisionTreeRoundTripIsBitExact) {
  EncodedDataset data = MakeData(15);
  DecisionTree model = TrainTree(data);
  std::string bytes = Bytes(model);
  auto kind = KindOfSerialized(bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kDecisionTree);
  auto back = DeserializeAs<DecisionTree>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(*back, nullptr);

  DecisionTreeParams a = model.ExportParams();
  DecisionTreeParams b = (*back)->ExportParams();
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
  EXPECT_EQ(model.Predict(data, rows), (*back)->Predict(data, rows));
}

TEST(SerdeTest, GbtRoundTripIsBitExact) {
  EncodedDataset data = MakeData(16);
  Gbt model = TrainGbt(data);
  std::string bytes = Bytes(model);
  auto kind = KindOfSerialized(bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ArtifactKind::kGradientBoostedTrees);
  auto back = DeserializeAs<Gbt>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(*back, nullptr);

  GbtParams a = model.ExportParams();
  GbtParams b = (*back)->ExportParams();
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
  EXPECT_EQ(model.Predict(data, rows), (*back)->Predict(data, rows));
}

// ModelAs, the checked downcast behind the store's typed getters,
// refuses every cross-reading of the servable model kinds.
TEST(SerdeTest, TreeKindMismatchesArePinned) {
  EncodedDataset data = MakeData(17, 60);
  const NaiveBayes nb = TrainNb(data);
  const LogisticRegression lr = TrainLr(data);
  const DecisionTree tree = TrainTree(data);
  const Gbt gbt = TrainGbt(data);
  for (const Classifier* model :
       std::vector<const Classifier*>{&nb, &lr, &tree, &gbt}) {
    SCOPED_TRACE(model->name());
    EXPECT_EQ(ModelAs<NaiveBayes>(*model) != nullptr, model == &nb);
    EXPECT_EQ(ModelAs<LogisticRegression>(*model) != nullptr, model == &lr);
    EXPECT_EQ(ModelAs<DecisionTree>(*model) != nullptr, model == &tree);
    EXPECT_EQ(ModelAs<Gbt>(*model) != nullptr, model == &gbt);
  }
  auto tree_back = DeserializeAs<Gbt>(Bytes(tree));
  ASSERT_TRUE(tree_back.ok()) << tree_back.status();
  EXPECT_EQ(*tree_back, nullptr);
}

TEST(SerdeTest, EveryTreeTruncationIsATypedError) {
  ExpectEveryTruncationIsTyped(Bytes(TrainTree(MakeData(18, 30))));
}

TEST(SerdeTest, EveryGbtTruncationIsATypedError) {
  ExpectEveryTruncationIsTyped(Bytes(TrainGbt(MakeData(19, 30))));
}

TEST(SerdeTest, FlippingAnyTreeByteIsATypedError) {
  ExpectEveryByteFlipIsTyped(Bytes(TrainTree(MakeData(20, 25))));
}

TEST(SerdeTest, FlippingAnyGbtByteIsATypedError) {
  ExpectEveryByteFlipIsTyped(Bytes(TrainGbt(MakeData(21, 25))));
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
  std::string bytes = Bytes(model);
  const size_t offset = 68;
  ASSERT_GE(bytes.size(), offset + 4 + kFooterSize);
  bytes[offset] = 99;
  bytes[offset + 1] = 0;
  bytes[offset + 2] = 0;
  bytes[offset + 3] = 0;
  PatchCrc(&bytes);
  auto back = DeserializeModel(bytes);
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
  ASSERT_TRUE(WriteFileBytes(tree_path, Bytes(tree)).ok());
  ASSERT_TRUE(WriteFileBytes(gbt_path, Bytes(gbt)).ok());

  auto tree_kind = PeekKind(tree_path);
  ASSERT_TRUE(tree_kind.ok());
  EXPECT_EQ(*tree_kind, ArtifactKind::kDecisionTree);
  auto gbt_kind = PeekKind(gbt_path);
  ASSERT_TRUE(gbt_kind.ok());
  EXPECT_EQ(*gbt_kind, ArtifactKind::kGradientBoostedTrees);

  auto tree_back = DeserializeAs<DecisionTree>(*ReadFileBytes(tree_path));
  ASSERT_TRUE(tree_back.ok()) << tree_back.status();
  ASSERT_NE(*tree_back, nullptr);
  EXPECT_TRUE(BitsEqual(tree.ExportParams().scores,
                        (*tree_back)->ExportParams().scores));
  auto gbt_back = DeserializeAs<Gbt>(*ReadFileBytes(gbt_path));
  ASSERT_TRUE(gbt_back.ok()) << gbt_back.status();
  ASSERT_NE(*gbt_back, nullptr);
  EXPECT_TRUE(BitsEqual(gbt.ExportParams().base_scores,
                        (*gbt_back)->ExportParams().base_scores));

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
  EXPECT_EQ(crc(Bytes(TrainNb(data))), 0x15be7c82u);
  EXPECT_EQ(crc(Bytes(TrainLr(data))), 0x4298b277u);
  EXPECT_EQ(crc(Bytes(TrainTree(data))), 0x3ab4ec9eu);
  EXPECT_EQ(crc(Bytes(TrainGbt(data))), 0x62f03748u);
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
}

}  // namespace
}  // namespace hamlet::serve
