#ifndef HAMLET_SERVE_SERDE_H_
#define HAMLET_SERVE_SERDE_H_

/// \file serde.h
/// Versioned binary serialization for Hamlet artifacts: encoded datasets,
/// trained Naive Bayes / logistic regression / decision tree / GBT
/// models, and feature selection run reports. This is the bottom layer of src/serve/ — the
/// artifact store (artifact_store.h) persists these bytes, and the
/// service (service.h) scores against models loaded from them.
///
/// Format (see docs/SERVING.md for the full layout):
///
///   [0..3]   magic "HMLT"
///   [4..5]   format version, little-endian u16 (kFormatVersion)
///   [6..7]   artifact kind, little-endian u16 (ArtifactKind)
///   [8..15]  payload size in bytes, little-endian u64
///   [16..]   kind-specific payload (all integers little-endian, all
///            doubles as their IEEE-754 bit pattern in a little-endian
///            u64 — round trips are bit-exact)
///   [last 4] CRC-32 (common/crc32.h), little-endian u32, over every
///            byte before the footer (header + payload)
///
/// A model's payload is its exported params (NaiveBayesParams, ...), and
/// one codec table keyed by the model's kind (Classifier::traits) serves
/// every model kind through SerializeModel and DeserializeModel. Tree
/// payloads store the flat pre-order node arrays, and deserialization
/// re-validates the structure (ValidateTreeStructure), so a CRC-passing
/// but inconsistent tree is kMalformed, never a wild pointer walk.
///
/// Every Deserialize failure is a typed error: the Status carries a
/// distinct code per failure class plus a "serde/<tag>:" message prefix
/// that SerdeErrorOf() parses back into a SerdeError. Corrupt, truncated,
/// or wrong-version files never crash and never produce a silently wrong
/// artifact (the CRC is verified before any payload parsing).

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "data/encoded_dataset.h"
#include "fs/runner.h"
#include "ml/classifier.h"

namespace hamlet::serve {

/// What a serialized artifact holds. Values are part of the on-disk
/// format — never renumber.
enum class ArtifactKind : uint16_t {
  kEncodedDataset = 1,
  kNaiveBayes = 2,
  kLogisticRegression = 3,
  kFsRunReport = 4,
  kDecisionTree = 5,
  kGradientBoostedTrees = 6,
};

/// Display name ("dataset", "naive_bayes", ...); "unknown" otherwise.
const char* ArtifactKindToString(ArtifactKind kind);

/// True for a kind value this build can deserialize.
bool IsKnownArtifactKind(uint16_t kind);

/// The format version this build writes and reads. Readers reject any
/// other version with kBadVersion (strict versioning; see
/// docs/SERVING.md "Versioning policy").
inline constexpr uint16_t kFormatVersion = 1;

/// Envelope sizes (fixed; the payload length lives in the header).
inline constexpr size_t kHeaderSize = 16;
inline constexpr size_t kFooterSize = 4;

/// The distinct ways deserialization can fail.
enum class SerdeError {
  kNone = 0,       ///< Status was OK or not a serde error.
  kBadMagic,       ///< Not a Hamlet artifact file.
  kBadVersion,     ///< Format version this build does not read.
  kBadKind,        ///< Kind field holds an unknown value.
  kKindMismatch,   ///< Valid artifact, but not the requested kind.
  kTruncated,      ///< Fewer bytes than the header promises.
  kTrailingBytes,  ///< More bytes than the header promises.
  kCrcMismatch,    ///< Checksum failure: payload corrupt.
  kMalformed,      ///< CRC passed but the payload violates its schema.
};

/// Parses the "serde/<tag>:" prefix of a Status message back into the
/// typed error; kNone for OK statuses and non-serde failures.
SerdeError SerdeErrorOf(const Status& status);

/// --- In-memory encode/decode. Files are WriteFileBytes(path,
/// Serialize*(x)) and Deserialize*(*ReadFileBytes(path)). ---

std::string SerializeDataset(const EncodedDataset& data);
Result<EncodedDataset> DeserializeDataset(std::string_view bytes);

/// FsRunReport serialization persists the selection and every scalar.
std::string SerializeFsRunReport(const FsRunReport& report);
Result<FsRunReport> DeserializeFsRunReport(std::string_view bytes);

/// Any servable model: reads the kind once (KindOfSerialized) and
/// decodes the payload of that kind. Dataset and fs_report bytes are
/// kKindMismatch. Adding a model kind means its params' payload codec
/// and one codec-table entry; the store and the service need no change.
Result<std::shared_ptr<const Classifier>> DeserializeModel(
    std::string_view bytes);

/// The artifact of `model`, by the codec its traits().kind keys;
/// InvalidArgument for a classifier no artifact kind covers (TAN).
Result<std::string> SerializeModel(const Classifier& model);

/// `model` as its concrete class `Model` when its traits say it is one,
/// else nullptr: the serving layer's one downcast, checked against
/// Classifier::traits().
template <typename Model>
const Model* ModelAs(const Classifier& model) {
  return model.traits().kind == Model::kTraits.kind
             ? static_cast<const Model*>(&model)
             : nullptr;
}

/// Validates the envelope (magic, version, kind, size, CRC) and returns
/// the artifact kind without parsing the payload.
Result<ArtifactKind> KindOfSerialized(std::string_view bytes);

/// The typed kKindMismatch failure: a valid artifact of kind `holds`
/// read as `wanted` (display names, e.g. "dataset" and "model").
Status KindMismatchError(std::string_view holds, std::string_view wanted);

/// Reads only the header and reports the artifact kind (no CRC check —
/// this is the cheap "what is this file?" probe the store's List uses).
Result<ArtifactKind> PeekKind(const std::string& path);

/// Whole-file byte IO (binary, IOError on failure); exposed for the
/// store and tests.
Result<std::string> ReadFileBytes(const std::string& path);
Status WriteFileBytes(const std::string& path, std::string_view bytes);

}  // namespace hamlet::serve

#endif  // HAMLET_SERVE_SERDE_H_
