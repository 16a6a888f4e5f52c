#include "serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/gbt.h"
#include "ml/naive_bayes.h"
#include "support.h"

namespace perfbench {

using hamlet::Result;
using hamlet::Status;
using hamlet::serve::ArtifactStore;
using hamlet::serve::ScoreRequest;
using hamlet::serve::ScoreResponse;

/// One served model: two trained variants and, per variant, the serial
/// Predict output for every score block.
struct ServeBench::Model {
  std::string name;
  bool gbt = false;
  std::unique_ptr<hamlet::NaiveBayes> nb[2];
  std::unique_ptr<hamlet::Gbt> trees[2];
  std::vector<std::vector<uint32_t>> expected[2];
  int last_variant = -1;  ///< Variant of the newest published version.
};

namespace {

constexpr uint32_t kNumNb = 2;   ///< Naive Bayes models served.
constexpr uint32_t kNumGbt = 2;  ///< Gradient-boosted models served.
constexpr uint32_t kVersions = 64;  ///< Version history per model at setup.
constexpr uint32_t kTrainRows = 50000;  ///< Rows each model variant trains on.
constexpr uint32_t kBlockRows = 16;
constexpr uint32_t kBlocksPerClient = 4;
constexpr double kPublishIntervalS = 0.05;
/// Phase-2 requests per second: about a twentieth of the closed-loop
/// saturation on a 4-core host with this model mix. At 10,000/s (a
/// quarter) a slow spell on a shared host left the open loop with a
/// backlog it never worked off (p50 from 0.1 ms to 3 s in 2 of 10 runs).
constexpr double kPacedRate = 2000;

/// Both phases are read per window and reported from the quieter
/// windows, so a burst of interference from the host's other tenants
/// moves some windows, not the run: phase 1 reports the upper quartile
/// of per-window throughput (0.25 s windows), phase 2 the lower quartile
/// of per-window p99 (0.5 s windows: 1,000 requests at the paced rate,
/// 10 beyond the p99).
constexpr double kClosedWindowS = 0.25;
constexpr double kPacedWindowS = 0.5;

void SleepUntilNs(uint64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

/// Per-client tallies, merged after each phase.
struct Tally {
  uint64_t offered = 0, served = 0, mismatched = 0, rejected = 0, failed = 0;
  uint64_t rows = 0, batch_sum = 0;
  std::vector<uint64_t> rows_by_window;  ///< Phase 1 rows per window.
  std::vector<double> latency_us, latency_at_s, late_us;
  std::vector<double> latency_us_by_kind[2];
};

}  // namespace

ServeBench::~ServeBench() { Teardown(); }

Result<std::unique_ptr<ServeBench>> ServeBench::Make(
    const hamlet::EncodedDataset& d, uint32_t clients, uint64_t seed) {
  std::unique_ptr<ServeBench> bench(new ServeBench());
  bench->clients_ = clients;
  const std::vector<uint32_t> features = d.AllFeatureIndices();

  hamlet::Rng block_rng(seed ^ 0xB10C5ULL);
  for (uint32_t b = 0; b < kBlocksPerClient * clients; ++b) {
    std::vector<uint32_t> rows(kBlockRows);
    for (uint32_t& r : rows) r = block_rng.Uniform(d.num_rows());
    bench->blocks_.push_back(
        std::make_shared<const hamlet::EncodedDataset>(d.GatherRows(rows)));
  }

  for (uint32_t m = 0; m < kNumNb + kNumGbt; ++m) {
    auto model = std::make_unique<Model>();
    model->gbt = m >= kNumNb;
    model->name = model->gbt
                      ? hamlet::StringFormat("gbt_%u", m - kNumNb)
                      : hamlet::StringFormat("nb_%u", m);
    // Two disjoint row samples: variant 0 and variant 1.
    hamlet::Rng rng(seed * 1000003ULL + m);
    const std::vector<uint32_t> perm = rng.Permutation(d.num_rows());
    const uint32_t n = std::min<uint32_t>(kTrainRows, d.num_rows() / 2);
    for (int v = 0; v < 2; ++v) {
      std::vector<uint32_t> rows(perm.begin() + v * n,
                                 perm.begin() + (v + 1) * n);
      std::sort(rows.begin(), rows.end());
      if (model->gbt) {
        model->trees[v] = std::make_unique<hamlet::Gbt>();
        HAMLET_RETURN_NOT_OK(model->trees[v]->Train(d, rows, features));
      } else {
        model->nb[v] = std::make_unique<hamlet::NaiveBayes>(1.0);
        HAMLET_RETURN_NOT_OK(model->nb[v]->Train(d, rows, features));
      }
      for (const auto& block : bench->blocks_) {
        std::vector<uint32_t> all(block->num_rows());
        for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
        model->expected[v].push_back(
            model->gbt ? model->trees[v]->Predict(*block, all)
                       : model->nb[v]->Predict(*block, all));
      }
    }
    bench->models_.push_back(std::move(model));
  }
  return bench;
}

Result<uint32_t> ServeBench::Publish(Model& model, int variant) {
  Result<uint32_t> version =
      model.gbt ? store_->PutGbt(model.name, *model.trees[variant])
                : store_->PutNaiveBayes(model.name, *model.nb[variant]);
  if (version.ok()) model.last_variant = variant;
  return version;
}

bool ServeBench::Matches(const Model& model, size_t block,
                         const std::vector<uint32_t>& predictions) const {
  return predictions == model.expected[0][block] ||
         predictions == model.expected[1][block];
}

void ServeBench::Teardown() {
  if (service_) service_->Stop();
  service_.reset();
  store_.reset();
  if (!root_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    root_.clear();
  }
}

Status ServeBench::Setup(const std::string& root) {
  Teardown();
  root_ = root;
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
  store_ = std::make_unique<ArtifactStore>(root_);
  std::vector<double> put_ms;
  for (uint32_t v = 0; v < kVersions; ++v) {
    for (auto& model : models_) {
      const double t0 = NowSeconds();
      HAMLET_RETURN_NOT_OK(Publish(*model, static_cast<int>(v % 2)).status());
      put_ms.push_back((NowSeconds() - t0) * 1e3);
    }
  }
  setup_put_ms_ = Median(put_ms);
  service_ = std::make_unique<hamlet::serve::HamletService>(store_.get());
  // Every model routes to one shard; scoring each a few times leaves its
  // kLatest resolution in that shard's warm cache.
  for (int round = 0; round < 3; ++round) {
    for (auto& model : models_) {
      ScoreRequest req;
      req.model = model->name;
      req.version = ArtifactStore::kLatest;
      req.rows = blocks_[0];
      HAMLET_RETURN_NOT_OK(service_->Score(std::move(req)).status());
    }
  }
  return Status::OK();
}

Result<ServeResult> ServeBench::Run(double closed_s, double paced_s) {
  ServeResult result;
  const uint32_t clients = clients_;
  const uint64_t hits0 = store_->cache_hits();
  const uint64_t misses0 = store_->cache_misses();

  // Publisher: one republish every interval, round-robin over models,
  // flipping each model's variant. Its latency is kept from the paced
  // phase only: under the closed loop every core is saturated, and a
  // publish there mostly measures how long the publisher waits for one.
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::atomic<bool> paced{false};
  std::vector<double> publish_ms;
  uint64_t publishes = 0;
  uint64_t publish_failures = 0;
  std::thread publisher([&] {
    const uint64_t start = NowNs();
    const uint64_t interval = static_cast<uint64_t>(kPublishIntervalS * 1e9);
    for (uint64_t k = 0;; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        const auto due = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start + (k + 1) * interval));
        if (cv.wait_until(lock, due, [&] { return stop; })) return;
      }
      Model& model = *models_[k % models_.size()];
      const bool timed = paced.load(std::memory_order_relaxed);
      const double t0 = NowSeconds();
      const bool ok = Publish(model, 1 - std::max(model.last_variant, 0)).ok();
      const double ms = (NowSeconds() - t0) * 1e3;
      std::lock_guard<std::mutex> lock(mu);
      ++publishes;
      if (!ok) {
        ++publish_failures;
      } else if (timed) {
        publish_ms.push_back(ms);
      }
    }
  });

  // One request: classify its outcome into exactly one bucket.
  auto issue = [&](Tally& tally, uint32_t client, uint64_t i) -> bool {
    const size_t m = (i + client) % models_.size();
    const size_t b = client * kBlocksPerClient + i % kBlocksPerClient;
    ScoreRequest req;
    req.model = models_[m]->name;
    req.version = ArtifactStore::kLatest;
    req.rows = blocks_[b];
    ++tally.offered;
    Result<ScoreResponse> resp = service_->Score(std::move(req));
    if (resp.ok()) {
      ++tally.served;
      tally.rows += blocks_[b]->num_rows();
      tally.batch_sum += resp->batch_requests;
      if (!Matches(*models_[m], b, resp->predictions)) ++tally.mismatched;
      return true;
    }
    const auto code = resp.status().code();
    if (code == hamlet::StatusCode::kOverloaded ||
        code == hamlet::StatusCode::kDeadlineExceeded) {
      ++tally.rejected;
    } else {
      ++tally.failed;
    }
    return false;
  };

  auto merge = [&](const std::vector<Tally>& tallies) {
    Tally total;
    for (const Tally& t : tallies) {
      result.offered += t.offered;
      result.served += t.served;
      result.mismatched += t.mismatched;
      result.rejected += t.rejected;
      result.failed += t.failed;
      total.rows += t.rows;
      total.served += t.served;
      total.batch_sum += t.batch_sum;
    }
    return total;
  };

  // Phase 1: closed loop.
  {
    std::vector<Tally> tallies(clients);
    const hamlet::ThreadPoolStats pool0 =
        hamlet::ThreadPool::Global().GetStats();
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    const uint64_t t_end = t0 + static_cast<uint64_t>(closed_s * 1e9);
    const size_t num_windows =
        std::max<size_t>(1, static_cast<size_t>(closed_s / kClosedWindowS));
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Tally& tally = tallies[c];
        tally.rows_by_window.assign(num_windows, 0);
        for (uint64_t i = 0;; ++i) {
          const uint64_t now = NowNs();
          if (now >= t_end) break;
          const uint64_t rows = tally.rows;
          issue(tally, c, i);
          const size_t w = static_cast<size_t>(
              static_cast<double>(now - t0) / 1e9 / kClosedWindowS);
          if (w < num_windows) tally.rows_by_window[w] += tally.rows - rows;
        }
      });
    }
    for (auto& t : threads) t.join();
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const hamlet::ThreadPoolStats pool1 =
        hamlet::ThreadPool::Global().GetStats();
    const Tally total = merge(tallies);
    std::vector<double> rows_per_s(num_windows, 0.0);
    for (const Tally& t : tallies) {
      for (size_t w = 0; w < num_windows; ++w) {
        rows_per_s[w] +=
            static_cast<double>(t.rows_by_window[w]) / kClosedWindowS;
      }
    }
    result.rows_per_s = Quantile(rows_per_s, 0.75);
    result.rows_per_cpu_s = static_cast<double>(total.rows) / cpu_s;
    if (total.served > 0) {
      result.mean_batch = static_cast<double>(total.batch_sum) /
                          static_cast<double>(total.served);
      result.pool_regions_per_request =
          static_cast<double>(pool1.regions - pool0.regions) /
          static_cast<double>(total.served);
    }
  }

  // Phase 2: paced. Request i of the global schedule is due at
  // t0 + i / rate and belongs to client i % clients; its latency runs
  // from the due time, so a stall also delays what was scheduled behind
  // it. This thread reads the process CPU clock at every window edge.
  {
    std::vector<Tally> tallies(clients);
    const uint64_t t0 = NowNs() + 1000000;  // 1 ms for threads to start.
    const uint64_t t_end = t0 + static_cast<uint64_t>(paced_s * 1e9);
    paced.store(true, std::memory_order_relaxed);
    const double interval_ns = 1e9 / kPacedRate;
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Tally& tally = tallies[c];
        for (uint64_t j = 0;; ++j) {
          const uint64_t i = j * clients + c;
          const uint64_t due =
              t0 + static_cast<uint64_t>(interval_ns * static_cast<double>(i));
          if (due >= t_end) break;
          SleepUntilNs(due);
          const uint64_t sent = NowNs();
          const bool ok = issue(tally, c, i);
          const uint64_t done = NowNs();
          tally.late_us.push_back(
              sent > due ? static_cast<double>(sent - due) / 1e3 : 0.0);
          if (ok) {
            const double us = static_cast<double>(done - due) / 1e3;
            tally.latency_us.push_back(us);
            tally.latency_at_s.push_back(static_cast<double>(due - t0) / 1e9);
            tally.latency_us_by_kind[models_[(i + c) % models_.size()]->gbt]
                .push_back(us);
          }
        }
      });
    }
    const size_t cpu_windows = std::max<size_t>(
        1, static_cast<size_t>(paced_s / kPacedWindowS));
    std::vector<double> cpu_at(cpu_windows + 1);
    for (size_t w = 0; w <= cpu_windows; ++w) {
      SleepUntilNs(t0 + static_cast<uint64_t>(static_cast<double>(w) *
                                              kPacedWindowS * 1e9));
      cpu_at[w] = ProcessCpuSeconds();
    }
    for (auto& t : threads) t.join();
    merge(tallies);
    std::vector<std::vector<double>> windows(
        std::max<size_t>(1, static_cast<size_t>(paced_s / kPacedWindowS) + 1));
    for (const Tally& t : tallies) {
      for (size_t k = 0; k < t.latency_us.size(); ++k) {
        const size_t w = std::min(
            windows.size() - 1,
            static_cast<size_t>(t.latency_at_s[k] / kPacedWindowS));
        windows[w].push_back(t.latency_us[k]);
      }
    }
    std::vector<double> window_p99;
    for (const auto& w : windows) {
      if (!w.empty()) window_p99.push_back(Quantile(w, 0.99));
    }
    result.p99_us = Quantile(window_p99, 0.25);
    std::vector<double> cpu_us;
    for (size_t w = 0; w < cpu_windows && w < windows.size(); ++w) {
      if (windows[w].empty()) continue;
      cpu_us.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e6 /
                       static_cast<double>(windows[w].size()));
    }
    result.cpu_us_per_request = Median(cpu_us);
    for (const Tally& t : tallies) {
      result.latency_us.insert(result.latency_us.end(), t.latency_us.begin(),
                               t.latency_us.end());
      result.late_us.insert(result.late_us.end(), t.late_us.begin(),
                            t.late_us.end());
      for (int k = 0; k < 2; ++k) {
        result.latency_us_by_kind[k].insert(
            result.latency_us_by_kind[k].end(),
            t.latency_us_by_kind[k].begin(), t.latency_us_by_kind[k].end());
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  publisher.join();
  result.publish_ms = std::move(publish_ms);
  result.publishes = publishes;
  result.publish_failures = publish_failures;
  const double hits = static_cast<double>(store_->cache_hits() - hits0);
  const double misses = static_cast<double>(store_->cache_misses() - misses0);
  result.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  return result;
}

void ServeBench::CheckFinalState(Checker* checker) {
  for (const auto& model : models_) {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      ScoreRequest req;
      req.model = model->name;
      req.version = ArtifactStore::kLatest;
      req.rows = blocks_[b];
      Result<ScoreResponse> resp = service_->Score(std::move(req));
      checker->Expect(
          resp.ok() && model->last_variant >= 0 &&
              resp->predictions == model->expected[model->last_variant][b],
          "kLatest Score of " + model->name +
              " equals Predict by its last-published variant");
    }
  }
}

double ServeBench::DirectPassUs(bool gbt, int reps) {
  for (const auto& model : models_) {
    if (model->gbt != gbt) continue;
    Result<uint32_t> version = store_->LatestVersion(model->name);
    if (!version.ok()) return 0;
    std::vector<ScoreRequest> batch(1);
    batch[0].model = model->name;
    batch[0].version = *version;
    batch[0].rows = blocks_[0];
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
      const uint64_t t0 = NowNs();
      auto resp = service_->ScoreBatchDirect(batch);
      const uint64_t t1 = NowNs();
      if (!resp.ok()) return 0;
      us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    return Median(us);
  }
  return 0;
}

double ServeBench::ColdGetMs(bool gbt, int reps) {
  for (const auto& model : models_) {
    if (model->gbt != gbt) continue;
    Result<uint32_t> version = store_->LatestVersion(model->name);
    if (!version.ok()) return 0;
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      store_->ClearCache();
      const double t0 = NowSeconds();
      const bool ok = gbt ? store_->GetGbt(model->name, *version).ok()
                          : store_->GetNaiveBayes(model->name, *version).ok();
      if (!ok) return 0;
      ms.push_back((NowSeconds() - t0) * 1e3);
    }
    return Median(ms);
  }
  return 0;
}

}  // namespace perfbench
