#include "serve/serde.h"

#include <bit>
#include <cstring>
#include <fstream>

#include "common/crc32.h"
#include "common/string_util.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace hamlet::serve {

namespace {

constexpr char kMagic[4] = {'H', 'M', 'L', 'T'};

/// Tag strings, indexed by SerdeError (kNone unused).
const char* SerdeErrorTag(SerdeError error) {
  switch (error) {
    case SerdeError::kNone:
      return "none";
    case SerdeError::kBadMagic:
      return "bad_magic";
    case SerdeError::kBadVersion:
      return "bad_version";
    case SerdeError::kBadKind:
      return "bad_kind";
    case SerdeError::kKindMismatch:
      return "kind_mismatch";
    case SerdeError::kTruncated:
      return "truncated";
    case SerdeError::kTrailingBytes:
      return "trailing_bytes";
    case SerdeError::kCrcMismatch:
      return "crc_mismatch";
    case SerdeError::kMalformed:
      return "malformed";
  }
  return "none";
}

/// Builds the typed Status for a serde failure: a per-class StatusCode
/// plus the "serde/<tag>:" prefix SerdeErrorOf() parses back.
Status SerdeStatus(SerdeError error, std::string detail) {
  std::string msg = StringFormat("serde/%s: %s", SerdeErrorTag(error),
                                 detail.c_str());
  switch (error) {
    case SerdeError::kBadVersion:
    case SerdeError::kKindMismatch:
      return Status::FailedPrecondition(std::move(msg));
    case SerdeError::kTruncated:
      return Status::OutOfRange(std::move(msg));
    case SerdeError::kCrcMismatch:
      return Status::IOError(std::move(msg));
    default:
      return Status::InvalidArgument(std::move(msg));
  }
}

/// Little-endian byte-level writer for payloads and the envelope.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) {
    PutU8(static_cast<uint8_t>(v));
    PutU8(static_cast<uint8_t>(v >> 8));
  }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutVecU32(const std::vector<uint32_t>& v) {
    PutU64(v.size());
    for (uint32_t x : v) PutU32(x);
  }
  void PutVecI32(const std::vector<int32_t>& v) {
    PutU64(v.size());
    for (int32_t x : v) PutU32(static_cast<uint32_t>(x));
  }
  void PutVecF64(const std::vector<double>& v) {
    PutU64(v.size());
    for (double x : v) PutF64(x);
  }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Little-endian reader over a validated payload. Reads past the end
/// return kMalformed (the envelope's size and CRC already passed, so a
/// short payload means schema violation, not truncation in transit).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  Status GetU8(uint8_t* out) {
    if (pos_ + 1 > bytes_.size()) return Short("u8");
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }
  Status GetU16(uint16_t* out) {
    if (pos_ + 2 > bytes_.size()) return Short("u16");
    *out = 0;
    for (int i = 0; i < 2; ++i) {
      *out |= static_cast<uint16_t>(static_cast<uint8_t>(bytes_[pos_++]))
              << (8 * i);
    }
    return Status::OK();
  }
  Status GetU32(uint32_t* out) {
    if (pos_ + 4 > bytes_.size()) return Short("u32");
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
              << (8 * i);
    }
    return Status::OK();
  }
  Status GetU64(uint64_t* out) {
    if (pos_ + 8 > bytes_.size()) return Short("u64");
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
              << (8 * i);
    }
    return Status::OK();
  }
  Status GetF64(double* out) {
    uint64_t bits = 0;
    HAMLET_RETURN_NOT_OK(GetU64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  }
  Status GetString(std::string* out) {
    uint32_t len = 0;
    HAMLET_RETURN_NOT_OK(GetU32(&len));
    if (pos_ + len > bytes_.size()) return Short("string body");
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  Status GetVecU32(std::vector<uint32_t>* out) {
    uint64_t len = 0;
    HAMLET_RETURN_NOT_OK(GetU64(&len));
    if (len > Remaining() / 4) return Short("u32 vector body");
    out->resize(len);
    for (uint64_t i = 0; i < len; ++i) {
      HAMLET_RETURN_NOT_OK(GetU32(&(*out)[i]));
    }
    return Status::OK();
  }
  Status GetVecI32(std::vector<int32_t>* out) {
    uint64_t len = 0;
    HAMLET_RETURN_NOT_OK(GetU64(&len));
    if (len > Remaining() / 4) return Short("i32 vector body");
    out->resize(len);
    for (uint64_t i = 0; i < len; ++i) {
      uint32_t bits = 0;
      HAMLET_RETURN_NOT_OK(GetU32(&bits));
      (*out)[i] = static_cast<int32_t>(bits);
    }
    return Status::OK();
  }
  Status GetVecF64(std::vector<double>* out) {
    uint64_t len = 0;
    HAMLET_RETURN_NOT_OK(GetU64(&len));
    if (len > Remaining() / 8) return Short("f64 vector body");
    out->resize(len);
    for (uint64_t i = 0; i < len; ++i) {
      HAMLET_RETURN_NOT_OK(GetF64(&(*out)[i]));
    }
    return Status::OK();
  }

  size_t Remaining() const { return bytes_.size() - pos_; }

  Status ExpectEnd() const {
    if (pos_ != bytes_.size()) {
      return SerdeStatus(
          SerdeError::kMalformed,
          StringFormat("%zu unparsed payload bytes", Remaining()));
    }
    return Status::OK();
  }

 private:
  Status Short(const char* what) const {
    return SerdeStatus(SerdeError::kMalformed,
                       StringFormat("payload ends inside a %s", what));
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Wraps a payload in the header/footer envelope.
std::string WrapEnvelope(ArtifactKind kind, std::string payload) {
  ByteWriter header;
  header.PutU8(static_cast<uint8_t>(kMagic[0]));
  header.PutU8(static_cast<uint8_t>(kMagic[1]));
  header.PutU8(static_cast<uint8_t>(kMagic[2]));
  header.PutU8(static_cast<uint8_t>(kMagic[3]));
  header.PutU16(kFormatVersion);
  header.PutU16(static_cast<uint16_t>(kind));
  header.PutU64(payload.size());
  std::string bytes = header.Take();
  bytes += payload;
  uint32_t crc = Crc32(bytes.data(), bytes.size());
  ByteWriter footer;
  footer.PutU32(crc);
  bytes += footer.Take();
  return bytes;
}

/// Validates magic/version/kind/size from the 16-byte header. Does not
/// verify the CRC (PeekKind and the store's List use it on a prefix).
Status ParseHeader(std::string_view bytes, ArtifactKind* kind,
                   uint64_t* payload_size) {
  if (bytes.size() < kHeaderSize) {
    return SerdeStatus(SerdeError::kTruncated,
                       StringFormat("%zu bytes is smaller than the %zu-byte "
                                    "header",
                                    bytes.size(), kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return SerdeStatus(SerdeError::kBadMagic,
                       "file does not start with the HMLT magic");
  }
  ByteReader reader(bytes.substr(4, 12));
  uint16_t version = 0;
  uint16_t raw_kind = 0;
  HAMLET_RETURN_NOT_OK(reader.GetU16(&version));
  HAMLET_RETURN_NOT_OK(reader.GetU16(&raw_kind));
  HAMLET_RETURN_NOT_OK(reader.GetU64(payload_size));
  if (version != kFormatVersion) {
    return SerdeStatus(
        SerdeError::kBadVersion,
        StringFormat("file has format version %u, this build reads %u",
                     version, kFormatVersion));
  }
  if (!IsKnownArtifactKind(raw_kind)) {
    return SerdeStatus(SerdeError::kBadKind,
                       StringFormat("unknown artifact kind %u", raw_kind));
  }
  *kind = static_cast<ArtifactKind>(raw_kind);
  return Status::OK();
}

/// The payload view of bytes whose envelope KindOfSerialized accepted.
std::string_view PayloadOf(std::string_view bytes) {
  return bytes.substr(kHeaderSize, bytes.size() - kHeaderSize - kFooterSize);
}

/// Full envelope validation: KindOfSerialized's header → size → CRC
/// checks, then the kind; on success returns the payload view.
Result<std::string_view> UnwrapEnvelope(std::string_view bytes,
                                        ArtifactKind expected) {
  HAMLET_ASSIGN_OR_RETURN(ArtifactKind kind, KindOfSerialized(bytes));
  if (kind != expected) {
    return KindMismatchError(ArtifactKindToString(kind),
                             ArtifactKindToString(expected));
  }
  return PayloadOf(bytes);
}

Status Malformed(std::string detail) {
  return SerdeStatus(SerdeError::kMalformed, std::move(detail));
}

}  // namespace

const char* ArtifactKindToString(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kEncodedDataset:
      return "dataset";
    case ArtifactKind::kNaiveBayes:
      return "naive_bayes";
    case ArtifactKind::kLogisticRegression:
      return "logistic_regression";
    case ArtifactKind::kFsRunReport:
      return "fs_report";
    case ArtifactKind::kDecisionTree:
      return "decision_tree";
    case ArtifactKind::kGradientBoostedTrees:
      return "gbt";
  }
  return "unknown";
}

bool IsKnownArtifactKind(uint16_t kind) {
  return kind >= static_cast<uint16_t>(ArtifactKind::kEncodedDataset) &&
         kind <= static_cast<uint16_t>(ArtifactKind::kGradientBoostedTrees);
}

SerdeError SerdeErrorOf(const Status& status) {
  if (status.ok()) return SerdeError::kNone;
  const std::string& msg = status.message();
  constexpr std::string_view kPrefix = "serde/";
  if (msg.rfind(kPrefix, 0) != 0) return SerdeError::kNone;
  const size_t colon = msg.find(':', kPrefix.size());
  if (colon == std::string::npos) return SerdeError::kNone;
  std::string_view tag(msg.data() + kPrefix.size(),
                       colon - kPrefix.size());
  for (SerdeError e :
       {SerdeError::kBadMagic, SerdeError::kBadVersion, SerdeError::kBadKind,
        SerdeError::kKindMismatch, SerdeError::kTruncated,
        SerdeError::kTrailingBytes, SerdeError::kCrcMismatch,
        SerdeError::kMalformed}) {
    if (tag == SerdeErrorTag(e)) return e;
  }
  return SerdeError::kNone;
}

Status KindMismatchError(std::string_view holds, std::string_view wanted) {
  return SerdeStatus(
      SerdeError::kKindMismatch,
      StringFormat("file holds a %.*s artifact, caller asked for %.*s",
                   static_cast<int>(holds.size()), holds.data(),
                   static_cast<int>(wanted.size()), wanted.data()));
}

// --- EncodedDataset ---

std::string SerializeDataset(const EncodedDataset& data) {
  ByteWriter w;
  w.PutU32(data.num_classes());
  w.PutU32(data.num_features());
  w.PutU64(data.num_rows());
  for (uint32_t j = 0; j < data.num_features(); ++j) {
    w.PutString(data.meta(j).name);
    w.PutU32(data.meta(j).cardinality);
  }
  for (uint32_t label : data.labels()) w.PutU32(label);
  for (uint32_t j = 0; j < data.num_features(); ++j) {
    for (uint32_t code : data.feature(j)) w.PutU32(code);
  }
  return WrapEnvelope(ArtifactKind::kEncodedDataset, w.Take());
}

Result<EncodedDataset> DeserializeDataset(std::string_view bytes) {
  HAMLET_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapEnvelope(bytes, ArtifactKind::kEncodedDataset));
  ByteReader r(payload);
  uint32_t num_classes = 0;
  uint32_t num_features = 0;
  uint64_t num_rows = 0;
  HAMLET_RETURN_NOT_OK(r.GetU32(&num_classes));
  HAMLET_RETURN_NOT_OK(r.GetU32(&num_features));
  HAMLET_RETURN_NOT_OK(r.GetU64(&num_rows));
  if (num_classes == 0) {
    return Malformed("dataset has zero classes");
  }
  // Bound every count by the bytes actually present before allocating
  // (a flipped length field must produce a typed error, not an OOM).
  if (num_features > r.Remaining() / 8) {
    return Malformed("feature count exceeds the payload size");
  }
  std::vector<FeatureMeta> meta(num_features);
  for (uint32_t j = 0; j < num_features; ++j) {
    HAMLET_RETURN_NOT_OK(r.GetString(&meta[j].name));
    HAMLET_RETURN_NOT_OK(r.GetU32(&meta[j].cardinality));
  }
  if (num_rows > r.Remaining() / 4 ||
      (num_features > 0 &&
       num_rows > r.Remaining() / 4 / (1 + static_cast<uint64_t>(
                                               num_features)))) {
    return Malformed("dataset columns exceed the payload size");
  }
  std::vector<uint32_t> labels(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    HAMLET_RETURN_NOT_OK(r.GetU32(&labels[i]));
    if (labels[i] >= num_classes) {
      return Malformed(StringFormat("label %u at row %llu out of %u classes",
                                    labels[i],
                                    static_cast<unsigned long long>(i),
                                    num_classes));
    }
  }
  std::vector<std::vector<uint32_t>> features(num_features);
  for (uint32_t j = 0; j < num_features; ++j) {
    features[j].resize(num_rows);
    for (uint64_t i = 0; i < num_rows; ++i) {
      HAMLET_RETURN_NOT_OK(r.GetU32(&features[j][i]));
      if (features[j][i] >= meta[j].cardinality) {
        return Malformed(StringFormat(
            "code %u in feature '%s' out of its domain of %u",
            features[j][i], meta[j].name.c_str(), meta[j].cardinality));
      }
    }
  }
  HAMLET_RETURN_NOT_OK(r.ExpectEnd());
  return EncodedDataset(std::move(features), std::move(meta),
                        std::move(labels), num_classes);
}

// --- Model payloads: one Put/Get pair per exported params type ---

namespace {

void PutParams(const NaiveBayesParams& params, ByteWriter* w) {
  w->PutF64(params.alpha);
  w->PutU32(params.num_classes);
  w->PutVecU32(params.features);
  w->PutVecF64(params.log_priors);
  for (const std::vector<double>& ll : params.log_likelihoods) {
    w->PutVecF64(ll);
  }
}

Status GetParams(ByteReader* r, NaiveBayesParams* params) {
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->alpha));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->num_classes));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->features));
  HAMLET_RETURN_NOT_OK(r->GetVecF64(&params->log_priors));
  params->log_likelihoods.resize(params->features.size());
  for (std::vector<double>& ll : params->log_likelihoods) {
    HAMLET_RETURN_NOT_OK(r->GetVecF64(&ll));
  }
  return Status::OK();
}

void PutParams(const LogisticRegressionParams& params, ByteWriter* w) {
  w->PutU8(params.options.regularizer == Regularizer::kL1 ? 0 : 1);
  w->PutF64(params.options.lambda);
  w->PutU32(params.options.max_epochs);
  w->PutF64(params.options.learning_rate);
  w->PutF64(params.options.tolerance);
  w->PutU32(params.num_classes);
  w->PutU32(params.num_dims);
  w->PutVecU32(params.features);
  w->PutVecU32(params.offsets);
  w->PutVecF64(params.weights);
}

Status GetParams(ByteReader* r, LogisticRegressionParams* params) {
  uint8_t regularizer = 0;
  HAMLET_RETURN_NOT_OK(r->GetU8(&regularizer));
  if (regularizer > 1) {
    return Malformed(
        StringFormat("unknown regularizer code %u", regularizer));
  }
  params->options.regularizer =
      regularizer == 0 ? Regularizer::kL1 : Regularizer::kL2;
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->options.lambda));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->options.max_epochs));
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->options.learning_rate));
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->options.tolerance));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->num_classes));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->num_dims));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->features));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->offsets));
  return r->GetVecF64(&params->weights);
}

void PutParams(const DecisionTreeParams& params, ByteWriter* w) {
  w->PutF64(params.alpha);
  w->PutU32(params.num_classes);
  w->PutVecU32(params.features);
  w->PutVecU32(params.cardinalities);
  w->PutVecI32(params.split_slot);
  w->PutVecU32(params.split_code);
  w->PutVecI32(params.left);
  w->PutVecI32(params.right);
  w->PutVecF64(params.scores);
}

Status GetParams(ByteReader* r, DecisionTreeParams* params) {
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->alpha));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->num_classes));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->features));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->cardinalities));
  HAMLET_RETURN_NOT_OK(r->GetVecI32(&params->split_slot));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->split_code));
  HAMLET_RETURN_NOT_OK(r->GetVecI32(&params->left));
  HAMLET_RETURN_NOT_OK(r->GetVecI32(&params->right));
  return r->GetVecF64(&params->scores);
}

void PutParams(const GbtParams& params, ByteWriter* w) {
  w->PutF64(params.learning_rate);
  w->PutF64(params.lambda);
  w->PutU32(params.num_classes);
  w->PutVecU32(params.features);
  w->PutVecU32(params.cardinalities);
  w->PutVecF64(params.base_scores);
  w->PutU64(params.trees.size());
  for (const GbtTree& tree : params.trees) {
    w->PutVecI32(tree.split_slot);
    w->PutVecU32(tree.split_code);
    w->PutVecI32(tree.left);
    w->PutVecI32(tree.right);
    w->PutVecF64(tree.value);
  }
}

Status GetParams(ByteReader* r, GbtParams* params) {
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->learning_rate));
  HAMLET_RETURN_NOT_OK(r->GetF64(&params->lambda));
  HAMLET_RETURN_NOT_OK(r->GetU32(&params->num_classes));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->features));
  HAMLET_RETURN_NOT_OK(r->GetVecU32(&params->cardinalities));
  HAMLET_RETURN_NOT_OK(r->GetVecF64(&params->base_scores));
  uint64_t num_trees = 0;
  HAMLET_RETURN_NOT_OK(r->GetU64(&num_trees));
  // An empty tree still costs five 8-byte vector lengths; bound the count
  // by that before allocating (a flipped length field must produce a
  // typed error, not an OOM).
  if (num_trees > r->Remaining() / 40) {
    return Malformed("tree count exceeds the payload size");
  }
  params->trees.resize(num_trees);
  for (GbtTree& tree : params->trees) {
    HAMLET_RETURN_NOT_OK(r->GetVecI32(&tree.split_slot));
    HAMLET_RETURN_NOT_OK(r->GetVecU32(&tree.split_code));
    HAMLET_RETURN_NOT_OK(r->GetVecI32(&tree.left));
    HAMLET_RETURN_NOT_OK(r->GetVecI32(&tree.right));
    HAMLET_RETURN_NOT_OK(r->GetVecF64(&tree.value));
  }
  return Status::OK();
}

}  // namespace

// --- FsRunReport ---

std::string SerializeFsRunReport(const FsRunReport& report) {
  ByteWriter w;
  w.PutString(report.method);
  w.PutVecU32(report.selection.selected);
  w.PutF64(report.selection.validation_error);
  w.PutU64(report.selection.models_trained);
  w.PutU64(report.selected_names.size());
  for (const std::string& name : report.selected_names) w.PutString(name);
  w.PutF64(report.holdout_test_error);
  w.PutF64(report.runtime_seconds);
  w.PutF64(report.fit_seconds);
  w.PutF64(report.total_seconds);
  return WrapEnvelope(ArtifactKind::kFsRunReport, w.Take());
}

Result<FsRunReport> DeserializeFsRunReport(std::string_view bytes) {
  HAMLET_ASSIGN_OR_RETURN(std::string_view payload,
                          UnwrapEnvelope(bytes, ArtifactKind::kFsRunReport));
  ByteReader r(payload);
  FsRunReport report;
  HAMLET_RETURN_NOT_OK(r.GetString(&report.method));
  HAMLET_RETURN_NOT_OK(r.GetVecU32(&report.selection.selected));
  HAMLET_RETURN_NOT_OK(r.GetF64(&report.selection.validation_error));
  HAMLET_RETURN_NOT_OK(r.GetU64(&report.selection.models_trained));
  uint64_t num_names = 0;
  HAMLET_RETURN_NOT_OK(r.GetU64(&num_names));
  if (num_names > r.Remaining() / 4) {
    return Malformed("selected-name list exceeds the payload size");
  }
  report.selected_names.resize(num_names);
  for (uint64_t i = 0; i < num_names; ++i) {
    HAMLET_RETURN_NOT_OK(r.GetString(&report.selected_names[i]));
  }
  HAMLET_RETURN_NOT_OK(r.GetF64(&report.holdout_test_error));
  HAMLET_RETURN_NOT_OK(r.GetF64(&report.runtime_seconds));
  HAMLET_RETURN_NOT_OK(r.GetF64(&report.fit_seconds));
  HAMLET_RETURN_NOT_OK(r.GetF64(&report.total_seconds));
  HAMLET_RETURN_NOT_OK(r.ExpectEnd());
  return report;
}

// --- Any servable model ---

namespace {

// The payload of `model`, a `Model` by its kind (the table's key).
template <typename Model>
std::string EncodeModel(const Classifier& model) {
  ByteWriter w;
  PutParams(ModelAs<Model>(model)->ExportParams(), &w);
  return w.Take();
}

// A `Model` from its payload: its params, every byte read, then the
// model's own validation (FromParams), whose failure is kMalformed.
template <typename Model>
Result<std::shared_ptr<const Classifier>> DecodeModel(
    std::string_view payload) {
  ByteReader r(payload);
  decltype(std::declval<const Model&>().ExportParams()) params;
  HAMLET_RETURN_NOT_OK(GetParams(&r, &params));
  HAMLET_RETURN_NOT_OK(r.ExpectEnd());
  Result<Model> model = Model::FromParams(std::move(params));
  if (!model.ok()) return Malformed(model.status().message());
  return std::shared_ptr<const Classifier>(
      std::make_shared<const Model>(std::move(model).ValueOrDie()));
}

// One servable model kind: its artifact kind and payload codec.
struct ModelCodec {
  ModelKind model;
  ArtifactKind artifact;
  std::string (*encode)(const Classifier& model);
  Result<std::shared_ptr<const Classifier>> (*decode)(
      std::string_view payload);
};

template <typename Model>
constexpr ModelCodec CodecOf(ArtifactKind artifact) {
  return {Model::kTraits.kind, artifact, &EncodeModel<Model>,
          &DecodeModel<Model>};
}

// Every servable model kind. TAN has no entry: SerializeModel refuses it.
constexpr ModelCodec kModelCodecs[] = {
    CodecOf<NaiveBayes>(ArtifactKind::kNaiveBayes),
    CodecOf<LogisticRegression>(ArtifactKind::kLogisticRegression),
    CodecOf<DecisionTree>(ArtifactKind::kDecisionTree),
    CodecOf<Gbt>(ArtifactKind::kGradientBoostedTrees),
};

}  // namespace

Result<std::shared_ptr<const Classifier>> DeserializeModel(
    std::string_view bytes) {
  HAMLET_ASSIGN_OR_RETURN(ArtifactKind kind, KindOfSerialized(bytes));
  for (const ModelCodec& codec : kModelCodecs) {
    if (codec.artifact == kind) return codec.decode(PayloadOf(bytes));
  }
  return KindMismatchError(ArtifactKindToString(kind), "model");
}

Result<std::string> SerializeModel(const Classifier& model) {
  const ModelKind kind = model.traits().kind;
  for (const ModelCodec& codec : kModelCodecs) {
    if (codec.model == kind) {
      return WrapEnvelope(codec.artifact, codec.encode(model));
    }
  }
  return Status::InvalidArgument(StringFormat(
      "no artifact kind serializes a %s model", model.name().c_str()));
}

Result<ArtifactKind> KindOfSerialized(std::string_view bytes) {
  ArtifactKind kind;
  uint64_t payload_size = 0;
  HAMLET_RETURN_NOT_OK(ParseHeader(bytes, &kind, &payload_size));
  const uint64_t want = kHeaderSize + payload_size + kFooterSize;
  if (bytes.size() < want) {
    return SerdeStatus(
        SerdeError::kTruncated,
        StringFormat("header promises %llu bytes, buffer has %zu",
                     static_cast<unsigned long long>(want), bytes.size()));
  }
  if (bytes.size() > want) {
    return SerdeStatus(
        SerdeError::kTrailingBytes,
        StringFormat("%zu bytes after the footer",
                     bytes.size() - static_cast<size_t>(want)));
  }
  const size_t covered = kHeaderSize + static_cast<size_t>(payload_size);
  uint32_t want_crc = 0;
  ByteReader footer(bytes.substr(covered, kFooterSize));
  HAMLET_RETURN_NOT_OK(footer.GetU32(&want_crc));
  const uint32_t got_crc = Crc32(bytes.data(), covered);
  if (got_crc != want_crc) {
    return SerdeStatus(
        SerdeError::kCrcMismatch,
        StringFormat("checksum %08x does not match stored %08x", got_crc,
                     want_crc));
  }
  return kind;
}

// --- File IO ---

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(
        StringFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError(StringFormat("read of '%s' failed", path.c_str()));
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError(
        StringFormat("cannot open '%s' for writing", path.c_str()));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError(StringFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<ArtifactKind> PeekKind(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(
        StringFormat("cannot open '%s' for reading", path.c_str()));
  }
  char header[kHeaderSize];
  in.read(header, static_cast<std::streamsize>(kHeaderSize));
  const std::string_view view(header,
                              static_cast<size_t>(in.gcount()));
  ArtifactKind kind;
  uint64_t payload_size = 0;
  HAMLET_RETURN_NOT_OK(ParseHeader(view, &kind, &payload_size));
  return kind;
}

}  // namespace hamlet::serve
