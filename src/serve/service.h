#ifndef HAMLET_SERVE_SERVICE_H_
#define HAMLET_SERVE_SERVICE_H_

/// \file service.h
/// HamletService: the in-process serving surface of src/serve/ — the
/// deployment shape of the ROADMAP's "heavy traffic" north star. Three
/// request types:
///
///   - Advise:         the paper's ROR/TR join-avoidance decision from
///                     schema metadata only (core/advisor's
///                     AdviseJoinsFromStats) — the cheap advisory call
///                     that is worth serving rather than recomputing;
///   - Score:          batched classification of an encoded row block
///                     against a named model from the artifact store;
///   - SelectFeatures: a full feature selection run over a stored
///                     dataset, persisting the winning model.
///
/// Concurrency model — the sharded scoring data plane: requests hash by
/// (model, version) onto one of N shards. Each shard has a bounded MPSC
/// queue (common/mpsc_queue.h) drained by its own dispatcher thread, and
/// one run lock that every pass on the shard holds. A pass has two
/// entries and one body:
///
///   - inline: a Score whose shard is idle — queue empty, run lock free
///     (try_lock) — runs its pass on the caller's thread, with no
///     dispatcher wakeup and no promise/future handoff;
///   - queued: otherwise the request queues, and the dispatcher, holding
///     the run lock, coalesces up to max_batch queued requests for its
///     head's (model, version) into ONE scoring pass. Same-(model,
///     version) Score requests always land on the same shard, so fusion
///     needs no cross-shard coordination.
///
/// A pass calls the model's Classifier::PredictOne row by row in one
/// parallel region whose shards hold at least a fixed row grain, so a
/// pass too small to share never leaves its thread; N passes run
/// concurrently across shards. Requests without a model key (Advise,
/// SelectFeatures) round-robin across shards and always queue.
///
/// Determinism contract (extended from the single-queue service): a
/// request's response payload — the predictions — is a pure function of
/// the request and the referenced artifacts, never of timing, batch
/// composition, shard count, or thread count. The shard-count
/// determinism suite scores one request stream at shards ∈ {1, 2, 8} ×
/// threads ∈ {1, 8} and pins byte-identical predictions per request id.
/// (`ScoreResponse::batch_requests` is a scheduling diagnostic and sits
/// outside the contract, exactly as before.)
///
/// Admission control: each shard queue is bounded (queue_capacity per
/// shard). An inline pass needs an empty queue, so it never bypasses a
/// backlog. Under OverloadPolicy::kBlock, enqueue blocks while the shard
/// is full — backpressure toward the caller, the original behavior.
/// Under OverloadPolicy::kShed, a request arriving while the shard
/// already holds shed_high_water items is rejected immediately with a
/// typed `StatusCode::kOverloaded` status (counted in
/// `serve.shed_total`) and is never partially executed. A request may
/// also carry an absolute deadline (`deadline_ns`, obs::NowNanos
/// clock); deadlines are checked at dequeue — a request whose deadline
/// passed while it queued is answered `kDeadlineExceeded` (counted in
/// `serve.deadline_expired`) without touching the model. An inline Score
/// passes the same gate before its pass.
///
/// Warm model cache: each shard keeps a (model, version) →
/// resolved-model map guarded by its run lock, so whichever thread runs
/// the pass — the dispatcher or an inline client — reads it with no
/// further lock. Concrete versions are immutable, so entries for
/// them never expire; kLatest entries revalidate against the artifact
/// store's publish `generation()` with one atomic load, so a hot model
/// batch skips both the store mutex and the directory scan, while a
/// publish is picked up on the very next batch (hot-swap never stalls
/// traffic). The store's own LRU hit path takes a shared lock, and the
/// shared_ptr handed out pins the artifact for the pass — a concurrent
/// evict can never tear a batch.
///
/// Observability: every endpoint records `serve.*` counters and latency
/// histograms (see docs/SERVING.md and docs/OBSERVABILITY.md) when obs
/// collection is enabled; queue depth/wait, batch sizes, sheds, expired
/// deadlines, warm-cache hits, model resolve time and inline vs queued
/// passes are measured too, and each scoring pass opens a `serve.score`
/// span carrying its shard, fused batch size, row count and whether it
/// ran inline.

#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "fs/runner.h"
#include "serve/artifact_store.h"

namespace hamlet::serve {

/// What happens when a request arrives at a full (or beyond-high-water)
/// shard queue.
enum class OverloadPolicy {
  kBlock = 0,  ///< Enqueue blocks — backpressure toward the caller.
  kShed,       ///< Reject with StatusCode::kOverloaded, never block.
};

/// Service tuning knobs.
struct ServiceOptions {
  /// Bounded request queue capacity PER SHARD; under kBlock, enqueue
  /// blocks while the target shard holds this many requests.
  size_t queue_capacity = 256;
  /// Most Score requests coalesced into one scoring pass.
  size_t max_batch = 64;
  /// Micro-batching switch; off = one scoring pass per request (the
  /// BM_ServeScoreUnbatched baseline).
  bool batch_scoring = true;
  /// The parallel width (common/thread_pool.h) of every scoring pass and
  /// feature-selection run, the selection's model trainings included
  /// (1 = serial). 0 inherits the width of the thread that runs the
  /// pass, or every hardware thread at top level. A scoring pass with
  /// fewer than two row grains (2 x 64 rows) runs serially on its own
  /// thread at any setting. Results are identical either way.
  uint32_t num_threads = 0;
  /// Dispatcher shards. 0 = auto: min(hardware concurrency, 4), at
  /// least 1. Results are identical at any shard count.
  uint32_t num_shards = 0;
  /// Admission control mode (see OverloadPolicy).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// kShed only: reject once a shard's depth reaches this mark
  /// (0 = queue_capacity, i.e. shed only when actually full).
  size_t shed_high_water = 0;
  /// Shard-local lock-free model resolution (see the \file block). On
  /// by default; off forces every pass through the artifact store.
  bool warm_model_cache = true;
};

/// Join-advice from pure metadata (see AdviseJoinsFromStats).
struct AdviseRequest {
  uint64_t n_train = 0;
  double label_entropy_bits = 1.0;
  std::vector<CandidateTableStats> candidates;
  AdvisorOptions options;
  /// Absolute deadline on the obs::NowNanos clock (0 = none), checked
  /// at dequeue.
  uint64_t deadline_ns = 0;
};

/// Score an encoded row block against a stored model. The block must
/// share the feature layout the model was trained on (same feature
/// indices and cardinalities).
struct ScoreRequest {
  std::string model;                           ///< Artifact name.
  uint32_t version = ArtifactStore::kLatest;   ///< 0 = latest.
  std::shared_ptr<const EncodedDataset> rows;  ///< Block to score.
  /// Absolute deadline on the obs::NowNanos clock (0 = none), checked
  /// at dequeue: expired requests answer kDeadlineExceeded unscored.
  uint64_t deadline_ns = 0;
};

struct ScoreResponse {
  /// Predicted class code per row of the block, in row order. Identical
  /// to calling the model's Predict serially (the determinism tests
  /// lock this down under concurrency, at every shard/thread count).
  std::vector<uint32_t> predictions;
  /// How many requests shared the scoring pass (1 when unbatched);
  /// diagnostic only — outside the determinism contract.
  uint32_t batch_requests = 1;
};

/// Run feature selection over a stored dataset and persist the winner.
struct SelectFeaturesRequest {
  std::string dataset;                              ///< Dataset artifact.
  uint32_t dataset_version = ArtifactStore::kLatest;
  FsMethod method = FsMethod::kForwardSelection;
  ErrorMetric metric = ErrorMetric::kZeroOne;
  double nb_alpha = 1.0;   ///< Naive Bayes smoothing for the models.
  uint64_t seed = 7;       ///< Drives the holdout split.
  std::string model_name;  ///< Store the winning model under this name.
  /// Absolute deadline on the obs::NowNanos clock (0 = none), checked
  /// at dequeue.
  uint64_t deadline_ns = 0;
};

struct SelectFeaturesResponse {
  FsRunReport report;
  uint32_t model_version = 0;   ///< Version of the persisted NB model.
  uint32_t report_version = 0;  ///< Version of "<model_name>.fs_report".
};

/// The in-process service. Public methods are safe to call from any
/// number of client threads; each blocks until its response is ready
/// (or returns a typed rejection under kShed / an expired deadline).
class HamletService {
 public:
  /// `store` must outlive the service.
  explicit HamletService(ArtifactStore* store, ServiceOptions options = {});

  /// Stops and drains (see Stop()).
  ~HamletService();

  HamletService(const HamletService&) = delete;
  HamletService& operator=(const HamletService&) = delete;

  Result<JoinPlan> Advise(AdviseRequest request);
  Result<ScoreResponse> Score(ScoreRequest request);
  Result<SelectFeaturesResponse> SelectFeatures(SelectFeaturesRequest request);

  /// Finishes every queued request, rejects new ones
  /// (FailedPrecondition), joins all dispatchers, and returns only once
  /// no inline pass is running either. Idempotent.
  void Stop();

  /// The exact scoring pass Score runs, minus the queue and the run
  /// lock: resolves each distinct (model, version) once (through the
  /// artifact store — the warm cache belongs to the shard's run lock)
  /// and scores all blocks in one parallel region per model group.
  /// Exposed so the determinism tests and benchmarks can drive the
  /// batched path directly.
  Result<std::vector<ScoreResponse>> ScoreBatchDirect(
      const std::vector<ScoreRequest>& batch);

  /// Requests currently queued across all shards (diagnostics/tests).
  size_t queue_depth() const;

  /// Requests currently queued on one shard (< num_shards()).
  size_t queue_depth(uint32_t shard) const;

  /// Resolved dispatcher shard count (>= 1).
  uint32_t num_shards() const;

  /// The shard a Score request for (model, version) routes to — a pure
  /// function of the key and num_shards(), exposed for tests.
  uint32_t ShardForModel(const std::string& model, uint32_t version) const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServiceOptions options_;
};

}  // namespace hamlet::serve

#endif  // HAMLET_SERVE_SERVICE_H_
