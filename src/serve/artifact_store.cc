#include "serve/artifact_store.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <system_error>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace hamlet::serve {

namespace fs = std::filesystem;

namespace {

/// Path-safe artifact names: no separators, no leading dot, so a name
/// can never escape the store root or collide with tmp files.
Status ValidateName(const std::string& name) {
  if (name.empty() || name.size() > 200) {
    return Status::InvalidArgument(
        StringFormat("artifact name '%s' must be 1..200 characters",
                     name.c_str()));
  }
  if (name.front() == '.') {
    return Status::InvalidArgument(StringFormat(
        "artifact name '%s' must not start with '.'", name.c_str()));
  }
  for (char ch : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(ch)) ||
                    ch == '_' || ch == '.' || ch == '-';
    if (!ok) {
      return Status::InvalidArgument(StringFormat(
          "artifact name '%s' may only contain [A-Za-z0-9_.-]",
          name.c_str()));
    }
  }
  return Status::OK();
}

/// Parses "v<digits>.hamlet" → version, or 0 when the name is foreign.
uint32_t ParseVersionFileName(const std::string& file_name) {
  constexpr std::string_view kSuffix = ".hamlet";
  if (file_name.size() <= 1 + kSuffix.size() || file_name[0] != 'v') {
    return 0;
  }
  if (file_name.compare(file_name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) != 0) {
    return 0;
  }
  uint64_t version = 0;
  for (size_t i = 1; i < file_name.size() - kSuffix.size(); ++i) {
    char ch = file_name[i];
    if (ch < '0' || ch > '9') return 0;
    version = version * 10 + static_cast<uint64_t>(ch - '0');
    if (version > UINT32_MAX) return 0;
  }
  return static_cast<uint32_t>(version);
}

obs::Counter& CacheHitCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.model_cache_hits");
  return counter;
}

obs::Counter& CacheMissCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.model_cache_misses");
  return counter;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root, size_t cache_capacity)
    : root_(std::move(root)),
      cache_capacity_(std::max<size_t>(1, cache_capacity)) {}

std::string ArtifactStore::DirFor(const std::string& name) const {
  return (fs::path(root_) / name).string();
}

std::string ArtifactStore::PathFor(const std::string& name,
                                   uint32_t version) const {
  return (fs::path(root_) / name /
          StringFormat("v%u.hamlet", version))
      .string();
}

uint32_t ArtifactStore::ScanLatestVersion(const std::string& name) const {
  std::error_code ec;
  fs::directory_iterator it(DirFor(name), ec);
  if (ec) return 0;
  uint32_t latest = 0;
  for (const fs::directory_entry& entry : it) {
    latest = std::max(latest,
                      ParseVersionFileName(entry.path().filename().string()));
  }
  return latest;
}

Result<uint32_t> ArtifactStore::ResolveVersion(const std::string& name,
                                               uint32_t version) const {
  HAMLET_RETURN_NOT_OK(ValidateName(name));
  if (version != kLatest) return version;
  uint32_t latest = ScanLatestVersion(name);
  if (latest == 0) {
    return Status::NotFound(
        StringFormat("no artifact named '%s' in '%s'", name.c_str(),
                     root_.c_str()));
  }
  return latest;
}

Result<uint32_t> ArtifactStore::LatestVersion(const std::string& name) const {
  return ResolveVersion(name, kLatest);
}

Result<uint32_t> ArtifactStore::PutBytes(const std::string& name,
                                         const std::string& bytes) {
  HAMLET_RETURN_NOT_OK(ValidateName(name));
  // The mutex serializes version allocation within the process; the
  // rename makes the publish atomic for every observer.
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::error_code ec;
  fs::create_directories(DirFor(name), ec);
  if (ec) {
    return Status::IOError(
        StringFormat("cannot create artifact directory '%s': %s",
                     DirFor(name).c_str(), ec.message().c_str()));
  }
  const uint32_t version = ScanLatestVersion(name) + 1;
  const std::string final_path = PathFor(name, version);
  const std::string tmp_path =
      (fs::path(DirFor(name)) / StringFormat(".v%u.tmp", version)).string();
  HAMLET_RETURN_NOT_OK(WriteFileBytes(tmp_path, bytes));
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::IOError(
        StringFormat("cannot publish artifact '%s' v%u: rename failed",
                     name.c_str(), version));
  }
  // Release AFTER the rename: an observer that sees the new generation
  // is guaranteed to also see the new version on disk.
  generation_.fetch_add(1, std::memory_order_release);
  return version;
}

Result<uint32_t> ArtifactStore::PutDataset(const std::string& name,
                                           const EncodedDataset& data) {
  return PutBytes(name, SerializeDataset(data));
}

Result<uint32_t> ArtifactStore::PutNaiveBayes(const std::string& name,
                                              const NaiveBayes& model) {
  return PutBytes(name, SerializeNaiveBayes(model));
}

Result<uint32_t> ArtifactStore::PutGbt(const std::string& name,
                                       const Gbt& model) {
  return PutBytes(name, SerializeGbt(model));
}

Result<uint32_t> ArtifactStore::PutModel(const std::string& name,
                                         const Classifier& model) {
  HAMLET_ASSIGN_OR_RETURN(std::string bytes, SerializeModel(model));
  return PutBytes(name, bytes);
}

Result<uint32_t> ArtifactStore::PutFsRunReport(const std::string& name,
                                               const FsRunReport& report) {
  return PutBytes(name, SerializeFsRunReport(report));
}

bool ArtifactStore::CacheLookup(const std::string& name, uint32_t version,
                                Artifact* out) {
  // Hit path: shared lock only. The copied shared_ptr pins the artifact
  // — a concurrent evict (exclusive side) can remove the entry, but
  // never the value a pass already holds.
  std::shared_lock<std::shared_mutex> lock(cache_mu_);
  for (CacheEntry& entry : cache_) {
    if (entry.version == version && entry.name == name) {
      entry.last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      CacheHitCounter().Add();
      *out = entry.value;
      return true;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMissCounter().Add();
  return false;
}

void ArtifactStore::CacheInsert(const std::string& name, uint32_t version,
                                Artifact value) {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  for (CacheEntry& entry : cache_) {
    if (entry.version == version && entry.name == name) {
      // Lost a benign race; keep the winner.
      entry.last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return;
    }
  }
  if (cache_.size() >= cache_capacity_) {
    auto victim = std::min_element(
        cache_.begin(), cache_.end(),
        [](const CacheEntry& a, const CacheEntry& b) {
          return a.last_used.load(std::memory_order_relaxed) <
                 b.last_used.load(std::memory_order_relaxed);
        });
    cache_.erase(victim);
  }
  cache_.emplace_back(name, version,
                      tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::move(value));
}

Result<std::string> ArtifactStore::ReadVersion(const std::string& name,
                                               uint32_t version) const {
  Result<std::string> bytes = ReadFileBytes(PathFor(name, version));
  if (!bytes.ok()) {
    return Status::NotFound(
        StringFormat("artifact '%s' v%u not found in '%s'", name.c_str(),
                     version, root_.c_str()));
  }
  return bytes;
}

Result<ArtifactStore::Artifact> ArtifactStore::ReadThrough(
    const std::string& name, uint32_t version, bool want_model) {
  HAMLET_ASSIGN_OR_RETURN(uint32_t v, ResolveVersion(name, version));
  Artifact artifact;
  if (CacheLookup(name, v, &artifact)) return artifact;
  HAMLET_ASSIGN_OR_RETURN(std::string bytes, ReadVersion(name, v));
  if (want_model) {
    HAMLET_ASSIGN_OR_RETURN(artifact.model, DeserializeModel(bytes));
  } else {
    HAMLET_ASSIGN_OR_RETURN(EncodedDataset data, DeserializeDataset(bytes));
    artifact.dataset = std::make_shared<const EncodedDataset>(std::move(data));
  }
  CacheInsert(name, v, artifact);
  return artifact;
}

Result<std::shared_ptr<const Classifier>> ArtifactStore::GetModel(
    const std::string& name, uint32_t version) {
  HAMLET_ASSIGN_OR_RETURN(Artifact artifact,
                          ReadThrough(name, version, /*want_model=*/true));
  if (artifact.model == nullptr) return KindMismatchError("dataset", "model");
  return artifact.model;
}

Result<std::shared_ptr<const EncodedDataset>> ArtifactStore::GetDataset(
    const std::string& name, uint32_t version) {
  HAMLET_ASSIGN_OR_RETURN(Artifact artifact,
                          ReadThrough(name, version, /*want_model=*/false));
  if (artifact.dataset == nullptr) {
    return KindMismatchError(artifact.model->name(), "dataset");
  }
  return artifact.dataset;
}

Result<FsRunReport> ArtifactStore::GetFsRunReport(const std::string& name,
                                                  uint32_t version) {
  HAMLET_ASSIGN_OR_RETURN(uint32_t v, ResolveVersion(name, version));
  HAMLET_ASSIGN_OR_RETURN(std::string bytes, ReadVersion(name, v));
  return DeserializeFsRunReport(bytes);
}

Result<ArtifactKind> ArtifactStore::KindOf(const std::string& name,
                                           uint32_t version) const {
  HAMLET_ASSIGN_OR_RETURN(uint32_t v, ResolveVersion(name, version));
  return PeekKind(PathFor(name, v));
}

Result<std::vector<ArtifactRef>> ArtifactStore::List() const {
  std::vector<ArtifactRef> out;
  std::error_code ec;
  fs::directory_iterator root_it(root_, ec);
  if (ec) return out;  // An absent root is an empty store, not an error.
  for (const fs::directory_entry& dir : root_it) {
    if (!dir.is_directory(ec) || ec) continue;
    const std::string name = dir.path().filename().string();
    fs::directory_iterator file_it(dir.path(), ec);
    if (ec) continue;
    for (const fs::directory_entry& file : file_it) {
      const uint32_t version =
          ParseVersionFileName(file.path().filename().string());
      if (version == 0) continue;
      Result<ArtifactKind> kind = PeekKind(file.path().string());
      if (!kind.ok()) continue;  // Foreign or still-corrupt file: skip.
      const uint64_t size = file.file_size(ec);
      out.push_back(ArtifactRef{name, version, *kind, ec ? 0 : size});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ArtifactRef& a, const ArtifactRef& b) {
              return a.name != b.name ? a.name < b.name
                                      : a.version < b.version;
            });
  return out;
}

void ArtifactStore::ClearCache() {
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  cache_.clear();
}

uint64_t ArtifactStore::cache_hits() const {
  return cache_hits_.load(std::memory_order_relaxed);
}

uint64_t ArtifactStore::cache_misses() const {
  return cache_misses_.load(std::memory_order_relaxed);
}

}  // namespace hamlet::serve
