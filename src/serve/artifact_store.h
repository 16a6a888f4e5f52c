#ifndef HAMLET_SERVE_ARTIFACT_STORE_H_
#define HAMLET_SERVE_ARTIFACT_STORE_H_

/// \file artifact_store.h
/// A directory-backed, versioned, thread-safe artifact registry — the
/// middle layer of src/serve/. Artifacts are addressed by (name,
/// version); every Put allocates the next version and writes atomically
/// (tmp file + rename), so readers — including other processes scanning
/// the same directory — never observe a half-written artifact.
///
/// Layout: `<root>/<name>/v<version>.hamlet`, each file in the
/// serve/serde.h envelope format. Version numbers start at 1 and only
/// grow; version 0 (kLatest) means "the highest version present".
///
/// Deserialized datasets and models are held in a small in-memory LRU
/// keyed by (name, resolved version), evicting the least recently used
/// entry, so a scoring service resolving the same model per request pays
/// the disk + decode cost once. Cache hits
/// and misses surface as the `serve.model_cache_hits` /
/// `serve.model_cache_misses` counters when obs collection is enabled.
///
/// Concurrency: the cache hit path takes a SHARED lock only — hits
/// update recency via relaxed atomics, so any number of scoring shards
/// can resolve hot models concurrently without serializing on the
/// store. Misses, inserts, and evictions take the exclusive side.
/// Every Get* returns a shared_ptr that PINS the artifact for as long
/// as the caller holds it: a concurrent evict drops only the cache's
/// reference, never the bytes under a scoring pass in flight.
///
/// Publishes bump a monotonic `generation()` counter (released after
/// the rename lands). A layer caching kLatest resolutions — the
/// service's warm per-shard model cache — revalidates with one relaxed
/// atomic load instead of re-scanning the directory: unchanged
/// generation means no Put has happened, so the cached resolution is
/// still the latest.

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "serve/serde.h"

namespace hamlet::serve {

/// One stored artifact, as List() reports it.
struct ArtifactRef {
  std::string name;
  uint32_t version = 0;
  ArtifactKind kind = ArtifactKind::kEncodedDataset;
  uint64_t size_bytes = 0;
};

/// The versioned registry. All methods are safe to call concurrently.
class ArtifactStore {
 public:
  /// Version argument meaning "resolve the highest stored version".
  static constexpr uint32_t kLatest = 0;

  /// Artifacts live under `root` (created on first Put if missing).
  /// `cache_capacity` bounds the deserialized-artifact LRU.
  explicit ArtifactStore(std::string root, size_t cache_capacity = 8);

  const std::string& root() const { return root_; }

  /// --- Writers: serialize, write tmp, rename; return the new version.
  /// Fails with InvalidArgument on a bad name (names are restricted to
  /// [A-Za-z0-9_.-], no leading dot, so they stay path-safe). ---
  Result<uint32_t> PutDataset(const std::string& name,
                              const EncodedDataset& data);
  Result<uint32_t> PutFsRunReport(const std::string& name,
                                  const FsRunReport& report);

  /// Publishes any servable model under its own kind (SerializeModel).
  Result<uint32_t> PutModel(const std::string& name, const Classifier& model);

  /// PutModel of one kind; kept for the benchmark harness's callers.
  Result<uint32_t> PutNaiveBayes(const std::string& name,
                                 const NaiveBayes& model) {
    return PutModel(name, model);
  }
  Result<uint32_t> PutGbt(const std::string& name, const Gbt& model) {
    return PutModel(name, model);
  }

  /// --- Readers: resolve the version (kLatest → highest), consult the
  /// LRU, load + verify + deserialize on miss. NotFound when the name
  /// or version does not exist; serde's typed errors when the file is
  /// corrupt or of the wrong kind. ---

  /// Any servable model, whatever its kind. The one read-through path
  /// behind every cached getter: the version is resolved once, the LRU
  /// is keyed by (name, version) alone — a version file holds exactly
  /// one kind — and a miss reads the file once.
  Result<std::shared_ptr<const Classifier>> GetModel(
      const std::string& name, uint32_t version = kLatest);
  Result<std::shared_ptr<const EncodedDataset>> GetDataset(
      const std::string& name, uint32_t version = kLatest);

  /// GetModel as the concrete `Model` (ModelAs); kKindMismatch when the
  /// stored model is of another kind. The pointer shares the cached
  /// model's ownership.
  template <typename Model>
  Result<std::shared_ptr<const Model>> GetModelAs(const std::string& name,
                                                  uint32_t version = kLatest) {
    HAMLET_ASSIGN_OR_RETURN(std::shared_ptr<const Classifier> model,
                            GetModel(name, version));
    const Model* typed = ModelAs<Model>(*model);
    if (typed == nullptr) {
      return KindMismatchError(model->name(),
                               ModelKindToString(Model::kTraits.kind));
    }
    return std::shared_ptr<const Model>(std::move(model), typed);
  }

  /// GetModelAs of one kind; kept for the benchmark harness's callers.
  Result<std::shared_ptr<const NaiveBayes>> GetNaiveBayes(
      const std::string& name, uint32_t version = kLatest) {
    return GetModelAs<NaiveBayes>(name, version);
  }
  Result<std::shared_ptr<const Gbt>> GetGbt(const std::string& name,
                                            uint32_t version = kLatest) {
    return GetModelAs<Gbt>(name, version);
  }

  /// Reports are small and rarely re-read; loaded fresh each call.
  Result<FsRunReport> GetFsRunReport(const std::string& name,
                                     uint32_t version = kLatest);

  /// Highest stored version of `name`; NotFound when absent.
  Result<uint32_t> LatestVersion(const std::string& name) const;

  /// Artifact kind of (name, version) from the file header (cheap probe).
  Result<ArtifactKind> KindOf(const std::string& name,
                              uint32_t version = kLatest) const;

  /// Every stored artifact, sorted by (name, version). Unreadable or
  /// foreign files under the root are skipped, not errors.
  Result<std::vector<ArtifactRef>> List() const;

  /// Drops the deserialized-artifact LRU (not the files).
  void ClearCache();

  /// Lifetime LRU counters (also mirrored into serve.model_cache_*).
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

  /// Number of successful publishes through this store instance.
  /// Monotonic; bumped after the rename makes the new version visible.
  /// A cached kLatest resolution is still current iff the generation it
  /// was taken at is unchanged (see the \file block).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  /// A cached artifact: exactly one pointer is set.
  struct Artifact {
    std::shared_ptr<const Classifier> model;
    std::shared_ptr<const EncodedDataset> dataset;
  };

  struct CacheEntry {
    std::string name;
    uint32_t version = 0;
    /// Recency tick, written on the shared-lock hit path — atomic so
    /// concurrent hits on the same entry never race.
    std::atomic<uint64_t> last_used{0};
    Artifact value;

    CacheEntry() = default;
    CacheEntry(std::string n, uint32_t v, uint64_t tick, Artifact val)
        : name(std::move(n)), version(v), last_used(tick),
          value(std::move(val)) {}
    CacheEntry(CacheEntry&& other) noexcept
        : name(std::move(other.name)), version(other.version),
          last_used(other.last_used.load(std::memory_order_relaxed)),
          value(std::move(other.value)) {}
    CacheEntry& operator=(CacheEntry&& other) noexcept {
      name = std::move(other.name);
      version = other.version;
      last_used.store(other.last_used.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      value = std::move(other.value);
      return *this;
    }
  };

  /// Resolves, then serves (name, version) from the LRU or reads it once;
  /// `want_model` picks the decoder on a miss.
  Result<Artifact> ReadThrough(const std::string& name, uint32_t version,
                               bool want_model);

  /// The bytes of one stored version (NotFound when unreadable).
  Result<std::string> ReadVersion(const std::string& name,
                                  uint32_t version) const;

  /// Serialize-agnostic write path shared by every Put.
  Result<uint32_t> PutBytes(const std::string& name,
                            const std::string& bytes);

  /// Directory + file path helpers (no filesystem access).
  std::string DirFor(const std::string& name) const;
  std::string PathFor(const std::string& name, uint32_t version) const;

  /// Resolves kLatest to a concrete version (NotFound when absent).
  Result<uint32_t> ResolveVersion(const std::string& name,
                                  uint32_t version) const;

  /// Highest version currently on disk, 0 when none (caller holds no
  /// lock; the scan reads directory entries only).
  uint32_t ScanLatestVersion(const std::string& name) const;

  /// True on a hit, with the entry's artifact copied into `*out`.
  bool CacheLookup(const std::string& name, uint32_t version, Artifact* out);
  void CacheInsert(const std::string& name, uint32_t version,
                   Artifact value);

  std::string root_;
  size_t cache_capacity_;

  /// Serializes version allocation (scan + write + rename) per Put.
  mutable std::mutex publish_mu_;
  std::atomic<uint64_t> generation_{0};

  /// Guards the LRU's structure: hits take the shared side, mutation
  /// (insert/evict/clear) the exclusive side. Recency + counters are
  /// atomics so the hit path never upgrades.
  mutable std::shared_mutex cache_mu_;
  mutable std::atomic<uint64_t> tick_{0};
  std::vector<CacheEntry> cache_;
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace hamlet::serve

#endif  // HAMLET_SERVE_ARTIFACT_STORE_H_
