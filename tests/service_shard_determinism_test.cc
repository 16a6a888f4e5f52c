/// Lockdown of the sharded scoring data plane (serve/service.h): the
/// shard-count determinism contract, typed admission-control rejections
/// (kOverloaded / kDeadlineExceeded with exact accounting and never a
/// partial result), the generation-validated warm model cache under
/// hot-swap, the inline pass an idle shard runs on the caller's thread,
/// Stop() racing clients, and the probe parity of the direct
/// (unbatched) path. This suite is part of the TSAN sweep
/// scripts/check_determinism.sh runs — every test here doubles as a
/// data-race target.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/service.h"

namespace hamlet::serve {
namespace {

EncodedDataset MakeData(uint64_t seed, uint32_t n = 500) {
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(4);
    y[i] = rng.Bernoulli(0.85) ? f[i] : 1 - f[i];
  }
  return EncodedDataset({f, g}, {{"F", 2}, {"G", 4}}, y, 2);
}

/// Same layout as MakeData with the labels flipped: a model trained on
/// it predicts differently on the same block — the hot-swap probe.
EncodedDataset MakeFlippedData(uint64_t seed, uint32_t n = 500) {
  EncodedDataset data = MakeData(seed, n);
  Rng rng(seed);
  std::vector<uint32_t> f(n), g(n), y(n);
  for (uint32_t i = 0; i < n; ++i) {
    f[i] = rng.Uniform(2);
    g[i] = rng.Uniform(4);
    y[i] = 1 - (rng.Bernoulli(0.85) ? f[i] : 1 - f[i]);
  }
  return EncodedDataset({f, g}, {{"F", 2}, {"G", 4}}, y, 2);
}

/// A wider dataset so a SelectFeatures run occupies a dispatcher for
/// long enough to stage deterministic queue states behind it.
EncodedDataset MakeWideData(uint64_t seed, uint32_t n, uint32_t d) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> cols(d, std::vector<uint32_t>(n));
  std::vector<FeatureMeta> meta;
  std::vector<uint32_t> y(n);
  for (uint32_t j = 0; j < d; ++j) {
    for (uint32_t i = 0; i < n; ++i) cols[j][i] = rng.Uniform(4);
    meta.push_back({"f" + std::to_string(j), 4});
  }
  for (uint32_t i = 0; i < n; ++i) {
    y[i] = rng.Bernoulli(0.8) ? cols[0][i] % 2 : 1 - cols[0][i] % 2;
  }
  return EncodedDataset(cols, meta, y, 2);
}

NaiveBayes TrainNb(const EncodedDataset& data) {
  NaiveBayes model(1.0);
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  EXPECT_TRUE(model.Train(data, rows, {0, 1}).ok());
  return model;
}

std::vector<uint32_t> AllRows(const EncodedDataset& data) {
  std::vector<uint32_t> rows(data.num_rows());
  for (uint32_t i = 0; i < data.num_rows(); ++i) rows[i] = i;
  return rows;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/hamlet_shard_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<ArtifactStore>(root_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::string root_;
  std::unique_ptr<ArtifactStore> store_;
};

// The tentpole's acceptance bar: one request stream, scored at every
// (shard count x thread count) combination, yields byte-identical
// predictions per request id — batch composition, shard routing, and
// parallelism affect latency only, never results.
TEST_F(ShardedServiceTest, ShardCountDeterminism) {
  constexpr uint32_t kModels = 3;
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::vector<NaiveBayes> models;
  for (uint32_t m = 0; m < kModels; ++m) {
    EncodedDataset data = MakeData(100 + m);
    models.push_back(TrainNb(data));
    ASSERT_TRUE(
        store_->PutModel("m" + std::to_string(m), models.back()).ok());
  }

  // One distinct block per (client, request) id and its serial-Predict
  // expectation — the ground truth every configuration must hit.
  const int kIds = kClients * kRequestsPerClient;
  std::vector<std::shared_ptr<const EncodedDataset>> block(kIds);
  std::vector<std::vector<uint32_t>> expected(kIds);
  for (int id = 0; id < kIds; ++id) {
    auto rows =
        std::make_shared<const EncodedDataset>(MakeData(1000 + id, 64));
    block[id] = rows;
    expected[id] = models[id % kModels].Predict(*rows, AllRows(*rows));
  }

  for (uint32_t shards : {1u, 2u, 8u}) {
    for (uint32_t threads : {1u, 8u}) {
      ServiceOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      options.queue_capacity = 4;  // Force backpressure + coalescing.
      options.max_batch = 3;
      HamletService service(store_.get(), options);
      ASSERT_EQ(service.num_shards(), shards);

      std::vector<int> mismatches(kClients, 0);
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int r = 0; r < kRequestsPerClient; ++r) {
            const int id = c * kRequestsPerClient + r;
            ScoreRequest request;
            request.model = "m" + std::to_string(id % kModels);
            request.rows = block[id];
            Result<ScoreResponse> response =
                service.Score(std::move(request));
            if (!response.ok() || response->predictions != expected[id]) {
              ++mismatches[c];
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(mismatches[c], 0)
            << "client " << c << " at shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

// Routing is a pure function of (model, version): same key, same shard,
// always in range.
TEST_F(ShardedServiceTest, ShardRoutingIsStable) {
  ServiceOptions options;
  options.num_shards = 8;
  HamletService service(store_.get(), options);
  for (const char* name : {"a", "b", "model_with_longer_name"}) {
    for (uint32_t version : {0u, 1u, 7u}) {
      const uint32_t shard = service.ShardForModel(name, version);
      EXPECT_LT(shard, service.num_shards());
      EXPECT_EQ(shard, service.ShardForModel(name, version));
    }
  }
}

// Load-shedding mode: once a shard's queue reaches the high-water mark,
// the next request is rejected with the typed kOverloaded status — it
// is never partially executed — and serve.shed_total counts it, while
// every accepted request still completes with full results.
TEST_F(ShardedServiceTest, OverloadShedsTypedAndNeverPartial) {
  EncodedDataset score_data = MakeData(40);
  ASSERT_TRUE(store_->PutModel("m", TrainNb(score_data)).ok());
  ASSERT_TRUE(store_->PutDataset("wide", MakeWideData(41, 20000, 12)).ok());
  NaiveBayes model = TrainNb(score_data);
  auto block = std::make_shared<EncodedDataset>(MakeData(40));
  const std::vector<uint32_t> expected =
      model.Predict(score_data, AllRows(score_data));

  obs::ScopedCollection collection(true);
  ServiceOptions options;
  options.num_shards = 1;  // One dispatcher: queue states are exact.
  options.queue_capacity = 8;
  options.shed_high_water = 2;
  options.overload_policy = OverloadPolicy::kShed;
  HamletService service(store_.get(), options);

  // Occupy the dispatcher with a long SelectFeatures run, issued from a
  // helper thread (it blocks until served).
  std::thread select_client([&] {
    SelectFeaturesRequest request;
    request.dataset = "wide";
    request.model_name = "winner";
    EXPECT_TRUE(service.SelectFeatures(std::move(request)).ok());
  });
  // The dispatcher has popped the select (and is busy running it) once
  // serve.select_requests ticks; from then until it finishes, nothing
  // drains the queue.
  for (;;) {
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    if (snap.CounterValue("serve.select_requests") == 1) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Fill the queue to the high-water mark with Scores that will block
  // behind the select...
  std::vector<std::thread> accepted;
  std::atomic<int> failures{0};
  for (int i = 0; i < 2; ++i) {
    accepted.emplace_back([&] {
      ScoreRequest request;
      request.model = "m";
      request.rows = block;
      Result<ScoreResponse> response = service.Score(std::move(request));
      if (!response.ok() || response->predictions != expected) ++failures;
    });
  }
  while (service.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // ...so the next arrival must be shed, typed, with no partial result.
  ScoreRequest overload;
  overload.model = "m";
  overload.rows = block;
  Result<ScoreResponse> response = service.Score(std::move(overload));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kOverloaded);

  select_client.join();
  for (std::thread& t : accepted) t.join();
  EXPECT_EQ(failures.load(), 0);  // Accepted requests: full results.
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.shed_total"), 1u);
}

// A request whose deadline expired while it queued is answered
// kDeadlineExceeded at dequeue, without touching the model; a live
// deadline passes through untouched.
TEST_F(ShardedServiceTest, DeadlineExpiredAtDequeue) {
  EncodedDataset data = MakeData(50);
  ASSERT_TRUE(store_->PutModel("m", TrainNb(data)).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(50));

  obs::ScopedCollection collection(true);
  HamletService service(store_.get());

  ScoreRequest expired;
  expired.model = "m";
  expired.rows = block;
  expired.deadline_ns = 1;  // The distant past: expired at dequeue.
  Result<ScoreResponse> rejected = service.Score(std::move(expired));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);

  ScoreRequest live;
  live.model = "m";
  live.rows = block;
  live.deadline_ns = obs::NowNanos() + 60ull * 1000 * 1000 * 1000;
  EXPECT_TRUE(service.Score(std::move(live)).ok());

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.deadline_expired"), 1u);
}

// The warm model cache never pins a stale kLatest: a publish bumps the
// store generation, the next batch revalidates and serves the new
// version. Repeat requests between publishes hit without touching the
// store.
TEST_F(ShardedServiceTest, WarmCacheServesHotSwapExactly) {
  EncodedDataset data_v1 = MakeData(60);
  EncodedDataset data_v2 = MakeFlippedData(60);
  NaiveBayes v1 = TrainNb(data_v1);
  NaiveBayes v2 = TrainNb(data_v2);
  auto block = std::make_shared<EncodedDataset>(MakeData(60));
  const std::vector<uint32_t> expect_v1 =
      v1.Predict(*block, AllRows(*block));
  const std::vector<uint32_t> expect_v2 =
      v2.Predict(*block, AllRows(*block));
  ASSERT_NE(expect_v1, expect_v2);  // The swap must be observable.
  ASSERT_TRUE(store_->PutModel("hot", v1).ok());

  obs::ScopedCollection collection(true);
  ServiceOptions options;
  options.num_shards = 1;
  HamletService service(store_.get(), options);

  const auto score_latest = [&]() -> std::vector<uint32_t> {
    ScoreRequest request;
    request.model = "hot";
    request.rows = block;
    Result<ScoreResponse> response = service.Score(std::move(request));
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? response->predictions : std::vector<uint32_t>{};
  };

  EXPECT_EQ(score_latest(), expect_v1);  // Cold: resolves + caches.
  EXPECT_EQ(score_latest(), expect_v1);  // Warm: same generation.
  ASSERT_TRUE(store_->PutModel("hot", v2).ok());
  EXPECT_EQ(score_latest(), expect_v2);  // Generation bumped: re-resolve.
  EXPECT_EQ(score_latest(), expect_v2);

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.warm_cache_misses"), 2u);
  EXPECT_EQ(snap.CounterValue("serve.warm_cache_hits"), 2u);
}

// An idle shard scores on the caller's thread: a 16-row Score wakes no
// dispatcher and runs no pool task (16 rows are under the scoring
// grain), and answers exactly like serial Predict with a batch of 1.
TEST_F(ShardedServiceTest, IdleShardScoresOnTheCallersThread) {
  EncodedDataset data = MakeData(80);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutModel("m", model).ok());
  auto block = std::make_shared<const EncodedDataset>(MakeData(81, 16));
  const std::vector<uint32_t> expected =
      model.Predict(*block, AllRows(*block));

  obs::ScopedCollection collection(true);
  HamletService service(store_.get());
  const ThreadPoolStats before = ThreadPool::Global().GetStats();
  ScoreRequest request;
  request.model = "m";
  request.rows = block;
  Result<ScoreResponse> response = service.Score(std::move(request));
  const ThreadPoolStats after = ThreadPool::Global().GetStats();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->predictions, expected);
  EXPECT_EQ(response->batch_requests, 1u);
  EXPECT_EQ(after.regions, before.regions);
  EXPECT_EQ(after.tasks_run, before.tasks_run);

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve.inline_passes"), 1u);
  EXPECT_EQ(snap.CounterValue("serve.queued_passes"), 0u);
  uint64_t queue_waits = 0, resolves = 0;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "serve.queue_wait_ns") queue_waits = h.count;
    if (h.name == "serve.resolve_ns") resolves = h.count;
  }
  EXPECT_EQ(queue_waits, 1u);  // A zero wait, like ScoreBatchDirect.
  EXPECT_EQ(resolves, 1u);
  bool inline_span = false;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Collect().events) {
    if (event.name != "serve.score") continue;
    for (const obs::TraceAttr& attr : event.attrs) {
      inline_span |= attr.key == "inline" && attr.number == 1;
    }
  }
  EXPECT_TRUE(inline_span);
}

// Stop() racing live clients: every call answers OK (with full results)
// or kFailedPrecondition, nothing hangs, and once Stop() has returned no
// scoring pass runs — inline or queued.
TEST_F(ShardedServiceTest, StopRacingClientsNeverScoresAfterStop) {
  EncodedDataset data = MakeData(90);
  NaiveBayes model = TrainNb(data);
  ASSERT_TRUE(store_->PutModel("m", model).ok());
  auto block = std::make_shared<const EncodedDataset>(MakeData(91, 16));
  const std::vector<uint32_t> expected =
      model.Predict(*block, AllRows(*block));

  obs::ScopedCollection collection(true);
  for (int round = 0; round < 4; ++round) {
    ServiceOptions options;
    options.num_shards = 1;  // Every client contends for one run lock.
    HamletService service(store_.get(), options);
    std::atomic<bool> stop_returned{false};
    std::atomic<int> unexpected{0};
    std::atomic<int> served{0};
    const auto score = [&]() -> StatusCode {
      ScoreRequest request;
      request.model = "m";
      request.rows = block;
      Result<ScoreResponse> response = service.Score(std::move(request));
      if (response.ok()) {
        if (response->predictions != expected) ++unexpected;
        ++served;
        return StatusCode::kOk;
      }
      if (response.status().code() != StatusCode::kFailedPrecondition) {
        ++unexpected;
      }
      return response.status().code();
    };

    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        while (!stop_returned.load()) score();
        // After Stop() returned, every call is rejected.
        if (score() != StatusCode::kFailedPrecondition) ++unexpected;
      });
    }
    while (served.load() < 20) std::this_thread::yield();
    service.Stop();
    const uint64_t batches_at_stop = obs::MetricsRegistry::Global()
                                         .Snapshot()
                                         .CounterValue("serve.score_batches");
    stop_returned.store(true);
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(unexpected.load(), 0) << "round " << round;
    EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().CounterValue(
                  "serve.score_batches"),
              batches_at_stop)
        << "round " << round;
  }
}

// Satellite of ISSUE 10: the direct (unbatched) path records the same
// probes as the queued path — batch size, per-request score latency,
// and a zero queue wait per request — so BM_ServeScoreUnbatched and
// BM_ServeScoreBatched comparisons read identical instrumentation.
TEST_F(ShardedServiceTest, DirectPathRecordsQueueWaitAndBatchProbes) {
  EncodedDataset data = MakeData(70);
  ASSERT_TRUE(store_->PutModel("m", TrainNb(data)).ok());
  auto block = std::make_shared<EncodedDataset>(MakeData(70));

  obs::ScopedCollection collection(true);
  HamletService service(store_.get());
  std::vector<ScoreRequest> batch(3);
  for (ScoreRequest& r : batch) {
    r.model = "m";
    r.rows = block;
  }
  ASSERT_TRUE(service.ScoreBatchDirect(batch).ok());

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  uint64_t queue_waits = 0, batches = 0, score_lat = 0;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "serve.queue_wait_ns") queue_waits = h.count;
    if (h.name == "serve.batch_size") batches = h.count;
    if (h.name == "serve.score_ns") score_lat = h.count;
  }
  EXPECT_EQ(queue_waits, 3u);  // One zero-wait sample per request.
  EXPECT_EQ(batches, 1u);      // One fused pass.
  EXPECT_EQ(score_lat, 3u);    // Per-request latency, like the queue.
}

// The closed-loop harness's accounting identity under shedding load:
// every offered request lands in exactly one bucket.
TEST_F(ShardedServiceTest, LoadHarnessAccountingIsExact) {
  ServiceOptions service_options;
  service_options.queue_capacity = 4;
  service_options.shed_high_water = 2;
  service_options.overload_policy = OverloadPolicy::kShed;
  LoadGenOptions load;
  load.clients = 4;
  load.duration_s = 0.2;
  load.block_rows = 16;
  load.num_models = 2;
  load.train_rows = 2000;
  Result<LoadReport> report =
      RunClosedLoopLoad(store_.get(), service_options, load);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->accounting_exact);
  EXPECT_EQ(report->served + report->shed + report->expired + report->failed,
            report->offered);
  EXPECT_GT(report->served, 0u);
  EXPECT_EQ(report->shed, report->shed_total_metric);
  EXPECT_EQ(report->rows_scored, report->served * 16u);
}

}  // namespace
}  // namespace hamlet::serve
