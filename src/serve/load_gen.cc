#include "serve/load_gen.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/data_synthesis.h"

namespace hamlet::serve {

namespace {

/// Per-client tallies, merged after the window closes. Each request
/// lands in exactly one bucket — the accounting identity the harness
/// asserts.
struct ClientTally {
  uint64_t offered = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t failed = 0;
  uint64_t rows_scored = 0;
  std::vector<uint64_t> latency_ns;
};

double PercentileUs(std::vector<uint64_t>* sorted_ns, double p) {
  if (sorted_ns->empty()) return 0.0;
  const size_t i = static_cast<size_t>(p * (sorted_ns->size() - 1));
  return static_cast<double>((*sorted_ns)[i]) / 1e3;
}

}  // namespace

Result<LoadReport> RunClosedLoopLoad(ArtifactStore* store,
                                     const ServiceOptions& service_options,
                                     const LoadGenOptions& options) {
  const uint32_t clients = options.clients == 0 ? 1 : options.clients;
  const uint32_t num_models = options.num_models == 0 ? 1 : options.num_models;
  const uint32_t block_rows = options.block_rows == 0 ? 1 : options.block_rows;

  // --- Synthesize one dataset; publish it as `num_models` models. ---
  SimConfig config;
  config.n_s = options.train_rows;
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 200;
  Rng rng(options.seed);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> all_rows(draw.data.num_rows());
  for (uint32_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  NaiveBayes model(1.0);
  HAMLET_RETURN_NOT_OK(model.Train(draw.data, all_rows,
                                   gen.UseAllFeatures()));
  const uint32_t versions =
      options.versions_per_model == 0 ? 1 : options.versions_per_model;
  std::vector<std::string> model_names;
  std::vector<uint32_t> model_versions;
  for (uint32_t i = 0; i < num_models; ++i) {
    model_names.push_back(StringFormat("load_nb_%u", i));
    uint32_t version = 0;
    for (uint32_t v = 0; v < versions; ++v) {
      HAMLET_ASSIGN_OR_RETURN(
          version, store->PutModel(model_names.back(), model));
    }
    model_versions.push_back(version);
  }

  // Pre-build the score blocks outside the window (the loop measures
  // serving, not data prep): a few distinct blocks per client, reused
  // round-robin.
  constexpr uint32_t kBlocksPerClient = 4;
  std::vector<std::vector<std::shared_ptr<const EncodedDataset>>> blocks(
      clients);
  for (uint32_t c = 0; c < clients; ++c) {
    Rng block_rng(options.seed + 1000 + c);
    for (uint32_t b = 0; b < kBlocksPerClient; ++b) {
      std::vector<uint32_t> sample(block_rows);
      for (auto& r : sample) r = block_rng.Uniform(draw.data.num_rows());
      blocks[c].push_back(std::make_shared<const EncodedDataset>(
          draw.data.GatherRows(sample)));
    }
  }

  // --- The measured window. The run owns the global metrics state:
  // reset + fresh collection window, so service-side percentiles and
  // cache counters cover exactly this load. ---
  obs::MetricsRegistry::Global().Reset();
  obs::ScopedCollection collect(true);
  HamletService service(store, service_options);

  // Pacing: with a target rate, client c's i-th request is due at
  // t0 + (i * clients + c) / rate — a deterministic interleave that
  // approximates a global arrival process without shared state.
  const double per_client_interval_ns =
      options.target_rate > 0.0
          ? 1e9 * static_cast<double>(clients) / options.target_rate
          : 0.0;

  std::vector<ClientTally> tallies(clients);
  std::atomic<bool> stop_flag{false};
  const uint64_t t0 = obs::NowNanos();
  const uint64_t t_end =
      t0 + static_cast<uint64_t>(options.duration_s * 1e9);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& tally = tallies[c];
        const std::vector<std::shared_ptr<const EncodedDataset>>& mine =
            blocks[c];
        const uint64_t phase_ns =
            per_client_interval_ns > 0.0
                ? static_cast<uint64_t>(per_client_interval_ns *
                                        static_cast<double>(c) /
                                        static_cast<double>(clients))
                : 0;
        for (uint64_t i = 0;; ++i) {
          uint64_t now = obs::NowNanos();
          if (now >= t_end || stop_flag.load(std::memory_order_relaxed)) {
            break;
          }
          if (per_client_interval_ns > 0.0) {
            const uint64_t due =
                t0 + phase_ns +
                static_cast<uint64_t>(per_client_interval_ns *
                                      static_cast<double>(i));
            while (now < due) {
              if (now >= t_end) return;
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(std::min<uint64_t>(due - now,
                                                              200000)));
              now = obs::NowNanos();
            }
          }
          const uint32_t m = static_cast<uint32_t>((i + c) % num_models);
          ScoreRequest req;
          req.model = model_names[m];
          req.version = options.score_latest ? ArtifactStore::kLatest
                                             : model_versions[m];
          req.rows = mine[i % kBlocksPerClient];
          if (options.deadline_ns != 0) {
            req.deadline_ns = now + options.deadline_ns;
          }
          const uint32_t rows = req.rows->num_rows();
          ++tally.offered;
          const uint64_t start = obs::NowNanos();
          Result<ScoreResponse> resp = service.Score(std::move(req));
          if (resp.ok()) {
            ++tally.served;
            tally.rows_scored += rows;
            tally.latency_ns.push_back(obs::NowNanos() - start);
          } else if (resp.status().code() == StatusCode::kOverloaded) {
            ++tally.shed;
          } else if (resp.status().code() == StatusCode::kDeadlineExceeded) {
            ++tally.expired;
          } else {
            ++tally.failed;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s =
      static_cast<double>(obs::NowNanos() - t0) / 1e9;
  service.Stop();

  // --- Merge tallies and fold in the service-side histograms. ---
  LoadReport report;
  report.num_shards = service.num_shards();
  std::vector<uint64_t> latency;
  for (const ClientTally& t : tallies) {
    report.offered += t.offered;
    report.served += t.served;
    report.shed += t.shed;
    report.expired += t.expired;
    report.failed += t.failed;
    report.rows_scored += t.rows_scored;
    latency.insert(latency.end(), t.latency_ns.begin(), t.latency_ns.end());
  }
  report.wall_s = wall_s;
  report.sustained_scores_per_s =
      wall_s > 0.0 ? static_cast<double>(report.rows_scored) / wall_s : 0.0;
  report.sustained_requests_per_s =
      wall_s > 0.0 ? static_cast<double>(report.served) / wall_s : 0.0;
  std::sort(latency.begin(), latency.end());
  report.client_p50_us = PercentileUs(&latency, 0.50);
  report.client_p95_us = PercentileUs(&latency, 0.95);
  report.client_p99_us = PercentileUs(&latency, 0.99);

  auto& reg = obs::MetricsRegistry::Global();
  const auto score_hist = reg.GetHistogram("serve.score_ns").Snapshot();
  if (score_hist.count > 0) {
    report.service_p50_us =
        static_cast<double>(score_hist.PercentileNanos(0.50)) / 1e3;
    report.service_p95_us =
        static_cast<double>(score_hist.PercentileNanos(0.95)) / 1e3;
    report.service_p99_us =
        static_cast<double>(score_hist.PercentileNanos(0.99)) / 1e3;
  }
  const auto batch_hist = reg.GetHistogram("serve.batch_size").Snapshot();
  if (batch_hist.count > 0) {
    report.mean_batch_requests = static_cast<double>(batch_hist.sum_nanos) /
                                 static_cast<double>(batch_hist.count);
  }
  const auto metrics = reg.Snapshot();
  report.warm_cache_hits = metrics.CounterValue("serve.warm_cache_hits");
  report.warm_cache_misses = metrics.CounterValue("serve.warm_cache_misses");
  report.shed_total_metric = metrics.CounterValue("serve.shed_total");
  report.accounting_exact =
      report.served + report.shed + report.expired + report.failed ==
      report.offered;
  return report;
}

std::string FormatLoadReport(const LoadReport& report) {
  std::ostringstream os;
  os << StringFormat(
      "  offered %llu = served %llu + shed %llu + expired %llu + "
      "failed %llu  (%s)\n",
      static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.served),
      static_cast<unsigned long long>(report.shed),
      static_cast<unsigned long long>(report.expired),
      static_cast<unsigned long long>(report.failed),
      report.accounting_exact ? "exact" : "MISMATCH");
  os << StringFormat(
      "  sustained   %.0f scores/s (%.0f req/s) over %.3fs, %u shards, "
      "mean fused batch %.2f\n",
      report.sustained_scores_per_s, report.sustained_requests_per_s,
      report.wall_s, report.num_shards, report.mean_batch_requests);
  os << StringFormat(
      "  client lat  p50 %9.1f us   p95 %9.1f us   p99 %9.1f us\n",
      report.client_p50_us, report.client_p95_us, report.client_p99_us);
  os << StringFormat(
      "  service lat p50 %9.1f us   p95 %9.1f us   p99 %9.1f us\n",
      report.service_p50_us, report.service_p95_us, report.service_p99_us);
  os << StringFormat(
      "  warm cache  %llu hits / %llu misses; serve.shed_total %llu\n",
      static_cast<unsigned long long>(report.warm_cache_hits),
      static_cast<unsigned long long>(report.warm_cache_misses),
      static_cast<unsigned long long>(report.shed_total_metric));
  return os.str();
}

}  // namespace hamlet::serve
