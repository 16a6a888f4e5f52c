#include "serve/service.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/splits.h"
#include "obs/trace.h"

namespace hamlet::serve {

namespace {

/// Static-local metric handles so the registry mutex is paid once per
/// process, not per request (the obs layer's caching idiom).
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& advise_requests;
  obs::Counter& score_requests;
  obs::Counter& select_requests;
  obs::Counter& score_rows;
  obs::Counter& score_batches;
  obs::Counter& shed_total;
  obs::Counter& deadline_expired;
  obs::Counter& warm_cache_hits;
  obs::Counter& warm_cache_misses;
  obs::Counter& inline_passes;
  obs::Counter& queued_passes;
  obs::Histogram& advise_ns;
  obs::Histogram& score_ns;
  obs::Histogram& select_ns;
  obs::Histogram& queue_wait_ns;
  obs::Histogram& batch_size;
  obs::Histogram& queue_depth;
  obs::Histogram& resolve_ns;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ServeMetrics m{reg.GetCounter("serve.requests"),
                          reg.GetCounter("serve.advise_requests"),
                          reg.GetCounter("serve.score_requests"),
                          reg.GetCounter("serve.select_requests"),
                          reg.GetCounter("serve.score_rows"),
                          reg.GetCounter("serve.score_batches"),
                          reg.GetCounter("serve.shed_total"),
                          reg.GetCounter("serve.deadline_expired"),
                          reg.GetCounter("serve.warm_cache_hits"),
                          reg.GetCounter("serve.warm_cache_misses"),
                          reg.GetCounter("serve.inline_passes"),
                          reg.GetCounter("serve.queued_passes"),
                          reg.GetHistogram("serve.advise_ns"),
                          reg.GetHistogram("serve.score_ns"),
                          reg.GetHistogram("serve.select_ns"),
                          reg.GetHistogram("serve.queue_wait_ns"),
                          reg.GetHistogram("serve.batch_size"),
                          reg.GetHistogram("serve.queue_depth"),
                          reg.GetHistogram("serve.resolve_ns")};
    return m;
  }
};

struct AdvisePending {
  AdviseRequest request;
  std::promise<Result<JoinPlan>> out;
};

struct ScorePending {
  ScoreRequest request;
  std::promise<Result<ScoreResponse>> out;
};

struct SelectPending {
  SelectFeaturesRequest request;
  std::promise<Result<SelectFeaturesResponse>> out;
};

struct Pending {
  std::variant<AdvisePending, ScorePending, SelectPending> op;
  uint64_t enqueue_ns = 0;  ///< 0 when collection was off at enqueue.
};

uint64_t DeadlineOf(const Pending& p) {
  return std::visit([](const auto& o) { return o.request.deadline_ns; }, p.op);
}

/// Answers a pending request with a typed failure without executing it.
void FailPending(Pending* p, Status status) {
  std::visit([&status](auto& o) { o.out.set_value(std::move(status)); },
             p->op);
}

/// Where a scoring pass came from: a dispatcher draining its queue, a
/// client running it on its own thread because the shard was idle, or
/// ScoreBatchDirect. The first two resolve through the shard's warm
/// cache under its run lock; the direct path resolves through the store.
enum class PassEntry { kQueued, kInline, kDirect };

/// Scoring rows per pool shard. On a 4-core 2.1 GHz Xeon, waking a
/// worker and handing its shard back costs tens of microseconds, against
/// 45-190 ns per Naive Bayes row and 1-2 us per GBT row. So a 16-row
/// request scores inline, 4 x 64-row shards of a 256-row NB block still
/// beat one serial pass (BM_ServeScoreUnbatched: 0.66-0.71 ms against
/// 0.77 ms per 16 blocks), and a 64 x 16-row fused batch fans out 4 ways.
constexpr uint32_t kScoreRowGrain = 64;

/// The block must have every trained feature at its training-time
/// cardinality; anything else would index the model's tables out of
/// bounds (NB, trees) or shift the zero-vector convention (LR).
Status ValidateBlockForModel(const EncodedDataset& block,
                             const Classifier& model) {
  const std::vector<uint32_t>& features = model.trained_features();
  for (size_t jj = 0; jj < features.size(); ++jj) {
    uint32_t j = features[jj];
    if (j >= block.num_features()) {
      return Status::InvalidArgument(StringFormat(
          "score block has %u features but %s model was trained on "
          "feature index %u",
          block.num_features(), model.name().c_str(), j));
    }
    uint32_t want = model.trained_cardinality(jj);
    if (block.meta(j).cardinality != want) {
      return Status::InvalidArgument(StringFormat(
          "score block feature %u has cardinality %u but %s model was "
          "trained with cardinality %u",
          j, block.meta(j).cardinality, model.name().c_str(), want));
    }
  }
  return Status::OK();
}

/// FNV-1a over the model name, then the version folded in — the shard
/// routing hash. Must be a pure function of (model, version) so every
/// request for one key lands on one shard (the fusion invariant).
uint64_t ModelKeyHash(const std::string& model, uint32_t version) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : model) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= version;
  h *= 1099511628211ull;
  return h;
}

}  // namespace

struct HamletService::Impl {
  /// A resolved model pinned in a shard's warm cache. Concrete versions
  /// are immutable, so their entries never expire; kLatest entries are
  /// valid only while the store's publish generation is unchanged.
  struct WarmEntry {
    std::shared_ptr<const Classifier> model;
    uint64_t generation = 0;  ///< store->generation() read BEFORE resolving.
  };

  /// One shard: a bounded MPSC queue, its run lock, the warm model cache
  /// the lock guards, and the dispatcher draining the queue. Every pass
  /// on the shard — the dispatcher's, or a client's inline Score on an
  /// idle shard — holds the run lock for its whole duration.
  struct Shard {
    explicit Shard(size_t capacity) : queue(capacity) {}
    BoundedMpscQueue<Pending> queue;
    std::mutex run_mu;
    std::unordered_map<std::string, WarmEntry> warm_cache;  ///< run_mu.
    std::thread dispatcher;
  };

  ArtifactStore* store = nullptr;
  ServiceOptions options;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<uint32_t> round_robin{0};  ///< Advise/Select placement.
  std::atomic<bool> stopped{false};

  /// Keeps each shard's warm cache from growing without bound when
  /// clients cycle through many model names. Crossing it just resets
  /// the map — correctness never depends on an entry being present.
  static constexpr size_t kWarmCacheMaxEntries = 256;

  uint32_t ShardForKey(const std::string& model, uint32_t version) const {
    return static_cast<uint32_t>(ModelKeyHash(model, version) %
                                 shards.size());
  }

  template <typename PendingT, typename ResponseT>
  Result<ResponseT> EnqueueAndWait(uint32_t shard_index, PendingT pending) {
    std::future<Result<ResponseT>> future = pending.out.get_future();
    Shard& shard = *shards[shard_index];
    Pending p;
    p.op = std::move(pending);
    p.enqueue_ns = obs::Enabled() ? obs::NowNanos() : 0;
    MpscPushResult pushed =
        options.overload_policy == OverloadPolicy::kShed
            ? shard.queue.TryPush(std::move(p), options.shed_high_water)
            : shard.queue.PushBlocking(std::move(p));
    switch (pushed) {
      case MpscPushResult::kOk:
        break;
      case MpscPushResult::kOverloaded: {
        ServeMetrics::Get().shed_total.Add();
        return Status::Overloaded(StringFormat(
            "shard %u queue is beyond its high-water mark; retry with "
            "backoff",
            shard_index));
      }
      case MpscPushResult::kStopped:
        return Status::FailedPrecondition("HamletService is stopped");
    }
    if (obs::Enabled()) {
      ServeMetrics::Get().queue_depth.RecordAlways(
          static_cast<uint64_t>(shard.queue.size()));
    }
    return future.get();
  }

  /// Scores `request` on the calling thread when its shard is idle: the
  /// run lock is free and nothing is queued. Returns nullopt otherwise,
  /// and the caller queues the request. The dispatcher leaves a request
  /// in the queue until it holds the run lock, so an inline pass never
  /// overtakes a queued one.
  std::optional<Result<ScoreResponse>> TryScoreInline(
      uint32_t shard_index, const ScoreRequest& request) {
    Shard& shard = *shards[shard_index];
    std::unique_lock<std::mutex> run(shard.run_mu, std::try_to_lock);
    if (!run.owns_lock() || shard.queue.size() != 0) return std::nullopt;
    // Stop() takes every run lock after it sets the flag, so a pass that
    // starts after Stop() returned sees it here.
    if (stopped.load(std::memory_order_relaxed)) {
      return Result<ScoreResponse>(
          Status::FailedPrecondition("HamletService is stopped"));
    }
    // Like ScoreBatchDirect: an inline request never queued.
    if (obs::Enabled()) ServeMetrics::Get().queue_wait_ns.RecordAlways(0);
    if (PastDeadline(request.deadline_ns)) {
      return Result<ScoreResponse>(DeadlineExpired());
    }
    return std::move(
        ScorePass(shard_index, PassEntry::kInline, {&request}).front());
  }

  static void RecordQueueWait(const Pending& p) {
    if (p.enqueue_ns != 0 && obs::Enabled()) {
      ServeMetrics::Get().queue_wait_ns.RecordAlways(obs::NowNanos() -
                                                     p.enqueue_ns);
    }
  }

  /// Deadline gate, applied when a pass is about to run (at dequeue, or
  /// at the inline entry): true — counted in serve.deadline_expired —
  /// once the request's absolute deadline has passed. An expired request
  /// is answered DeadlineExpired() without touching the model.
  static bool PastDeadline(uint64_t deadline_ns) {
    if (deadline_ns == 0 || obs::NowNanos() < deadline_ns) return false;
    ServeMetrics::Get().deadline_expired.Add();
    return true;
  }

  static Status DeadlineExpired() {
    return Status::DeadlineExceeded(
        "deadline expired before the request was served");
  }

  /// The deadline gate for a queued request; true when it was consumed.
  static bool ExpireIfPastDeadline(Pending* p) {
    if (!PastDeadline(DeadlineOf(*p))) return false;
    FailPending(p, DeadlineExpired());
    return true;
  }

  void DispatchLoop(uint32_t shard_index) {
    Shard& shard = *shards[shard_index];
    // The head stays queued until this thread holds the run lock, so a
    // client that finds the queue non-empty queues behind it.
    while (shard.queue.WaitNonEmpty()) {
      std::lock_guard<std::mutex> run(shard.run_mu);
      Pending head;
      if (!shard.queue.PopHead(&head)) return;  // Sole consumer: never.
      std::vector<Pending> coalesced;
      if (options.batch_scoring &&
          std::holds_alternative<ScorePending>(head.op)) {
        // Coalesce queued Score requests for the same (model, version)
        // behind the head into one scoring pass. Requests left behind
        // keep their arrival order. A kLatest request only batches with
        // other kLatest requests — resolution happens once per pass, so
        // mixing could pin a concrete version a client did not ask for.
        const ScoreRequest& lead = std::get<ScorePending>(head.op).request;
        shard.queue.ExtractMatching(
            [&lead](const Pending& p) {
              const auto* sp = std::get_if<ScorePending>(&p.op);
              return sp != nullptr && sp->request.model == lead.model &&
                     sp->request.version == lead.version;
            },
            options.max_batch - 1, &coalesced);
      }
      RecordQueueWait(head);
      for (const Pending& c : coalesced) RecordQueueWait(c);
      if (std::holds_alternative<ScorePending>(head.op)) {
        std::vector<ScorePending> group;
        group.reserve(1 + coalesced.size());
        if (!ExpireIfPastDeadline(&head)) {
          group.push_back(std::move(std::get<ScorePending>(head.op)));
        }
        for (Pending& c : coalesced) {
          if (!ExpireIfPastDeadline(&c)) {
            group.push_back(std::move(std::get<ScorePending>(c.op)));
          }
        }
        if (!group.empty()) DoScoreGroup(shard_index, std::move(group));
      } else if (ExpireIfPastDeadline(&head)) {
        continue;
      } else if (auto* a = std::get_if<AdvisePending>(&head.op)) {
        DoAdvise(std::move(*a));
      } else {
        DoSelect(std::move(std::get<SelectPending>(head.op)));
      }
    }
  }

  void DoAdvise(AdvisePending p) {
    ServeMetrics& m = ServeMetrics::Get();
    m.requests.Add();
    m.advise_requests.Add();
    obs::TraceSpan span("serve.advise");
    span.AddAttr("candidates",
                 static_cast<uint64_t>(p.request.candidates.size()));
    obs::ScopedLatency latency(m.advise_ns);
    p.out.set_value(AdviseJoinsFromStats(p.request.n_train,
                                         p.request.label_entropy_bits,
                                         p.request.candidates,
                                         p.request.options));
  }

  /// Resolves a pass's model, timed in serve.resolve_ns: through the
  /// shard's warm cache when `shard` is set (the caller holds its run
  /// lock), else through the artifact store. A warm hit costs one hash
  /// lookup — and for kLatest one atomic generation load — instead of
  /// the store path (cache mutex + directory scan for kLatest).
  Result<std::shared_ptr<const Classifier>> Resolve(Shard* shard,
                                                    const std::string& name,
                                                    uint32_t version) {
    ServeMetrics& m = ServeMetrics::Get();
    obs::ScopedLatency latency(m.resolve_ns);
    if (shard == nullptr || !options.warm_model_cache) {
      return store->GetModel(name, version);
    }
    const std::string key = name + "@" + std::to_string(version);
    auto it = shard->warm_cache.find(key);
    if (it != shard->warm_cache.end()) {
      // Concrete versions are immutable — always valid. kLatest is
      // valid only while no publish happened since the entry was
      // resolved.
      if (version != ArtifactStore::kLatest ||
          it->second.generation == store->generation()) {
        m.warm_cache_hits.Add();
        return it->second.model;
      }
      shard->warm_cache.erase(it);
    }
    m.warm_cache_misses.Add();
    // Read the generation BEFORE resolving: if a publish races the
    // resolve, the entry is stamped stale and the next batch re-resolves
    // — conservative, never serves a version older than it cached.
    const uint64_t generation = store->generation();
    HAMLET_ASSIGN_OR_RETURN(std::shared_ptr<const Classifier> model,
                            store->GetModel(name, version));
    if (shard->warm_cache.size() >= kWarmCacheMaxEntries) {
      shard->warm_cache.clear();
    }
    shard->warm_cache.emplace(key, WarmEntry{model, generation});
    return model;
  }

  /// The one scoring pass, for every entry: resolve the requests'
  /// shared (model, version) once, validate each block, and score every
  /// valid row in one parallel region of kScoreRowGrain-row shards. A
  /// layout mismatch fails only its own request; a resolve failure fails
  /// them all. Queued and inline passes hold the shard's run lock.
  std::vector<Result<ScoreResponse>> ScorePass(
      uint32_t shard_index, PassEntry entry,
      const std::vector<const ScoreRequest*>& requests) {
    ServeMetrics& m = ServeMetrics::Get();
    const size_t n = requests.size();
    m.requests.Add(n);
    m.score_requests.Add(n);
    m.score_batches.Add();
    if (entry == PassEntry::kInline) m.inline_passes.Add();
    if (entry == PassEntry::kQueued) m.queued_passes.Add();
    obs::TraceSpan span("serve.score");
    span.AddAttr("batch_requests", static_cast<uint64_t>(n));
    span.AddAttr("shard", shard_index);
    span.AddAttr("inline", static_cast<uint64_t>(entry == PassEntry::kInline));
    const uint64_t start_ns = obs::Enabled() ? obs::NowNanos() : 0;
    if (start_ns != 0) m.batch_size.RecordAlways(static_cast<uint64_t>(n));
    const ScopedWidth width(options.num_threads);

    const ScoreRequest& lead = *requests.front();
    Result<std::shared_ptr<const Classifier>> model =
        Resolve(entry == PassEntry::kDirect ? nullptr
                                            : shards[shard_index].get(),
                lead.model, lead.version);
    if (!model.ok()) {
      return std::vector<Result<ScoreResponse>>(n, model.status());
    }
    const Classifier& scorer = **model;

    std::vector<Result<ScoreResponse>> out;
    out.reserve(n);
    // The valid blocks, their prediction buffers, and their row offsets
    // within the fused index space.
    std::vector<const EncodedDataset*> blocks;
    std::vector<uint32_t*> dest;
    std::vector<uint64_t> base;
    uint64_t total_rows = 0;
    for (const ScoreRequest* request : requests) {
      const EncodedDataset& block = *request->rows;
      Status st = ValidateBlockForModel(block, scorer);
      if (!st.ok()) {
        out.emplace_back(std::move(st));
        continue;
      }
      ScoreResponse response;
      response.predictions.resize(block.num_rows());
      response.batch_requests = static_cast<uint32_t>(n);
      out.emplace_back(std::move(response));
      blocks.push_back(&block);
      dest.push_back(out.back()->predictions.data());
      base.push_back(total_rows);
      total_rows += block.num_rows();
    }
    if (total_rows > UINT32_MAX) {
      return std::vector<Result<ScoreResponse>>(
          n, Status::InvalidArgument(StringFormat(
                 "score batch holds %llu rows; at most 2^32 - 1 per pass",
                 static_cast<unsigned long long>(total_rows))));
    }
    span.AddAttr("rows", total_rows);
    m.score_rows.Add(total_rows);

    ParallelFor(
        static_cast<uint32_t>(total_rows),
        [&](uint32_t fused) {
          // Fused index → (block, row). Blocks are few; linear scan over
          // the offset table stays cheap and branch-predictable.
          size_t b = blocks.size() - 1;
          while (base[b] > fused) --b;
          const uint32_t row = static_cast<uint32_t>(fused - base[b]);
          dest[b][row] = scorer.PredictOne(*blocks[b], row);
        },
        kScoreRowGrain);

    if (start_ns != 0) {
      const uint64_t elapsed = obs::NowNanos() - start_ns;
      // One observation per request of the pass, so per-request latency
      // percentiles stay meaningful under batching.
      for (size_t i = 0; i < n; ++i) m.score_ns.RecordAlways(elapsed);
    }
    return out;
  }

  void DoScoreGroup(uint32_t shard_index, std::vector<ScorePending> group) {
    std::vector<const ScoreRequest*> requests;
    requests.reserve(group.size());
    for (const ScorePending& g : group) requests.push_back(&g.request);
    std::vector<Result<ScoreResponse>> scored =
        ScorePass(shard_index, PassEntry::kQueued, requests);
    for (size_t i = 0; i < group.size(); ++i) {
      group[i].out.set_value(std::move(scored[i]));
    }
  }

  Result<SelectFeaturesResponse> RunSelect(SelectFeaturesRequest request) {
    const ScopedWidth width(options.num_threads);
    if (request.model_name.empty()) {
      return Status::InvalidArgument(
          "SelectFeaturesRequest.model_name must be set");
    }
    HAMLET_ASSIGN_OR_RETURN(
        std::shared_ptr<const EncodedDataset> data,
        store->GetDataset(request.dataset, request.dataset_version));
    Rng rng(request.seed);
    HoldoutSplit split = MakeHoldoutSplit(data->num_rows(), rng);
    std::unique_ptr<FeatureSelector> selector = MakeSelector(request.method);
    ClassifierFactory factory = MakeNaiveBayesFactory(request.nb_alpha);
    std::vector<uint32_t> candidates(data->num_features());
    std::iota(candidates.begin(), candidates.end(), 0u);
    HAMLET_ASSIGN_OR_RETURN(
        FsRunReport report,
        RunFeatureSelection(*selector, *data, split, factory, request.metric,
                            candidates));
    // Refit the winner exactly as the runner's final fit did, so the
    // persisted model reproduces the reported holdout error.
    std::unique_ptr<Classifier> model = factory();
    HAMLET_RETURN_NOT_OK(
        model->Train(*data, split.train, report.selection.selected));
    SelectFeaturesResponse response;
    HAMLET_ASSIGN_OR_RETURN(response.model_version,
                            store->PutModel(request.model_name, *model));
    HAMLET_ASSIGN_OR_RETURN(
        response.report_version,
        store->PutFsRunReport(request.model_name + ".fs_report", report));
    response.report = std::move(report);
    return response;
  }

  void DoSelect(SelectPending p) {
    ServeMetrics& m = ServeMetrics::Get();
    m.requests.Add();
    m.select_requests.Add();
    obs::TraceSpan span("serve.select_features");
    span.AddAttr("method", std::string(FsMethodToString(p.request.method)));
    obs::ScopedLatency latency(m.select_ns);
    p.out.set_value(RunSelect(std::move(p.request)));
  }
};

HamletService::HamletService(ArtifactStore* store, ServiceOptions options)
    : impl_(std::make_unique<Impl>()), options_(options) {
  HAMLET_CHECK(store != nullptr, "HamletService needs an ArtifactStore");
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.num_shards == 0) {
    // Auto: one dispatcher per hardware thread, capped — shards beyond
    // the core count only buy routing isolation, not parallelism.
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_shards = hw == 0 ? 1 : (hw > 4 ? 4 : hw);
  }
  impl_->store = store;
  impl_->options = options_;
  impl_->shards.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    impl_->shards.push_back(
        std::make_unique<Impl::Shard>(options_.queue_capacity));
  }
  // Threads only after every shard exists: a dispatcher may inspect
  // shards.size() through ShardForKey.
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    impl_->shards[s]->dispatcher =
        std::thread([impl = impl_.get(), s] { impl->DispatchLoop(s); });
  }
}

HamletService::~HamletService() { Stop(); }

void HamletService::Stop() {
  impl_->stopped.store(true, std::memory_order_relaxed);
  for (auto& shard : impl_->shards) shard->queue.Stop();
  for (auto& shard : impl_->shards) {
    if (shard->dispatcher.joinable()) shard->dispatcher.join();
  }
  // Wait out any inline pass still running; every later one sees
  // `stopped` under the lock and is rejected.
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> run(shard->run_mu);
  }
}

Result<JoinPlan> HamletService::Advise(AdviseRequest request) {
  AdvisePending pending;
  pending.request = std::move(request);
  const uint32_t shard =
      impl_->round_robin.fetch_add(1, std::memory_order_relaxed) %
      impl_->shards.size();
  return impl_->EnqueueAndWait<AdvisePending, JoinPlan>(shard,
                                                        std::move(pending));
}

Result<ScoreResponse> HamletService::Score(ScoreRequest request) {
  if (request.rows == nullptr) {
    return Status::InvalidArgument("ScoreRequest.rows must be set");
  }
  if (request.model.empty()) {
    return Status::InvalidArgument("ScoreRequest.model must be set");
  }
  const uint32_t shard = impl_->ShardForKey(request.model, request.version);
  if (std::optional<Result<ScoreResponse>> done =
          impl_->TryScoreInline(shard, request)) {
    return std::move(*done);
  }
  ScorePending pending;
  pending.request = std::move(request);
  return impl_->EnqueueAndWait<ScorePending, ScoreResponse>(
      shard, std::move(pending));
}

Result<SelectFeaturesResponse> HamletService::SelectFeatures(
    SelectFeaturesRequest request) {
  SelectPending pending;
  pending.request = std::move(request);
  const uint32_t shard =
      impl_->round_robin.fetch_add(1, std::memory_order_relaxed) %
      impl_->shards.size();
  return impl_->EnqueueAndWait<SelectPending, SelectFeaturesResponse>(
      shard, std::move(pending));
}

Result<std::vector<ScoreResponse>> HamletService::ScoreBatchDirect(
    const std::vector<ScoreRequest>& batch) {
  std::vector<ScoreResponse> responses(batch.size());
  // Group request indices by (model, version), preserving arrival order
  // within each group — the dispatcher's coalescing rule without the
  // queue.
  std::vector<char> done(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (done[i]) continue;
    if (batch[i].rows == nullptr) {
      return Status::InvalidArgument("ScoreRequest.rows must be set");
    }
    std::vector<size_t> group;
    std::vector<const ScoreRequest*> requests;
    for (size_t j = i; j < batch.size(); ++j) {
      if (!done[j] && batch[j].model == batch[i].model &&
          batch[j].version == batch[i].version) {
        if (batch[j].rows == nullptr) {
          return Status::InvalidArgument("ScoreRequest.rows must be set");
        }
        group.push_back(j);
        requests.push_back(&batch[j]);
        done[j] = 1;
      }
    }
    // Direct requests never queue: record zero queue wait per request
    // so batched-vs-unbatched benchmark comparisons read the same
    // probes (the queued path records real waits at dequeue).
    if (obs::Enabled()) {
      ServeMetrics& m = ServeMetrics::Get();
      for (size_t k = 0; k < group.size(); ++k) {
        m.queue_wait_ns.RecordAlways(0);
      }
    }
    std::vector<Result<ScoreResponse>> scored = impl_->ScorePass(
        impl_->ShardForKey(batch[i].model, batch[i].version),
        PassEntry::kDirect, requests);
    for (size_t k = 0; k < group.size(); ++k) {
      HAMLET_ASSIGN_OR_RETURN(responses[group[k]], std::move(scored[k]));
    }
  }
  return responses;
}

size_t HamletService::queue_depth() const {
  size_t depth = 0;
  for (const auto& shard : impl_->shards) depth += shard->queue.size();
  return depth;
}

size_t HamletService::queue_depth(uint32_t shard) const {
  HAMLET_CHECK(shard < impl_->shards.size(),
               "queue_depth(%u) out of range: %zu shards", shard,
               impl_->shards.size());
  return impl_->shards[shard]->queue.size();
}

uint32_t HamletService::num_shards() const {
  return static_cast<uint32_t>(impl_->shards.size());
}

uint32_t HamletService::ShardForModel(const std::string& model,
                                      uint32_t version) const {
  return impl_->ShardForKey(model, version);
}

}  // namespace hamlet::serve
