/// hamlet_serve_cli: a synthetic closed-loop workload against the
/// in-process serving stack (src/serve/).
///
/// The driver stands up an artifact store and a HamletService, persists
/// a synthetic dataset and a trained Naive Bayes model, then hammers the
/// service with N closed-loop clients (each issues its next request the
/// moment the previous one returns): mostly Score calls over small row
/// blocks — the micro-batcher's bread and butter — seasoned with
/// metadata-only Advise calls, and one SelectFeatures run at the end
/// that persists a second model. It prints a throughput/latency report
/// (client-observed percentiles plus the service's own serve.* latency
/// histograms) and the explain-style stage tree.
///
/// Run: ./hamlet_serve_cli [clients] [requests_per_client] [seed]
///          [--metrics-jsonl=PATH] [--prom=PATH]
///
/// --metrics-jsonl appends a structured snapshot line (obs/exporter.h)
/// at the end of the run; --prom dumps the same snapshot in Prometheus
/// text exposition format. The HAMLET_METRICS_JSONL environment
/// variable supplies the JSONL path as well (the flag wins).
///
/// --load-test switches to the closed-loop load harness for the sharded
/// data plane (serve/load_gen.h): it drives Score-only traffic for a
/// fixed window and prints the accounting/throughput/latency report.
/// In this mode [clients] keeps its positional meaning and the knobs
/// are --duration=S, --rate=R (req/s, 0 = unthrottled), --block-rows=N,
/// --models=N, --versions=N (published history depth per model),
/// --shards=N (0 = auto), --shed (load-shedding admission
/// instead of blocking), --deadline-us=N (per-request deadline).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/artifact_store.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "sim/data_synthesis.h"

using namespace hamlet;        // NOLINT: example brevity.
using namespace hamlet::serve; // NOLINT: example brevity.

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Client-observed latency digest (the service keeps its own histograms;
// these are the end-to-end numbers including queue wait).
struct LatencyDigest {
  uint64_t count = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, mean_us = 0;
};

LatencyDigest Digest(std::vector<uint64_t> nanos) {
  LatencyDigest d;
  if (nanos.empty()) return d;
  std::sort(nanos.begin(), nanos.end());
  d.count = nanos.size();
  auto at = [&](double p) {
    size_t i = static_cast<size_t>(p * (nanos.size() - 1));
    return static_cast<double>(nanos[i]) / 1e3;
  };
  d.p50_us = at(0.50);
  d.p95_us = at(0.95);
  d.p99_us = at(0.99);
  double sum = 0;
  for (uint64_t v : nanos) sum += static_cast<double>(v);
  d.mean_us = sum / static_cast<double>(nanos.size()) / 1e3;
  return d;
}

void PrintDigest(const char* label, const LatencyDigest& d) {
  std::printf("  %-10s %8llu reqs   p50 %9.1f us   p95 %9.1f us   "
              "p99 %9.1f us   mean %9.1f us\n",
              label, static_cast<unsigned long long>(d.count), d.p50_us,
              d.p95_us, d.p99_us, d.mean_us);
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; bare numbers fill the positional
  // [clients] [requests_per_client] [seed] slots in order.
  std::string metrics_jsonl_path, prom_path;
  if (const char* env = std::getenv("HAMLET_METRICS_JSONL")) {
    metrics_jsonl_path = env;
  }
  bool load_test = false, shed = false;
  double load_duration_s = 2.0, load_rate = 0.0;
  uint32_t load_block_rows = 16, load_models = 4, load_shards = 0;
  uint32_t load_versions = 0;  // 0 = LoadGenOptions' default history.
  uint64_t load_deadline_us = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-jsonl=", 16) == 0) {
      metrics_jsonl_path = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--prom=", 7) == 0) {
      prom_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--load-test") == 0) {
      load_test = true;
    } else if (std::strcmp(argv[i], "--shed") == 0) {
      shed = true;
    } else if (std::strncmp(argv[i], "--duration=", 11) == 0) {
      load_duration_s = std::strtod(argv[i] + 11, nullptr);
    } else if (std::strncmp(argv[i], "--rate=", 7) == 0) {
      load_rate = std::strtod(argv[i] + 7, nullptr);
    } else if (std::strncmp(argv[i], "--block-rows=", 13) == 0) {
      load_block_rows =
          static_cast<uint32_t>(std::strtoul(argv[i] + 13, nullptr, 10));
    } else if (std::strncmp(argv[i], "--models=", 9) == 0) {
      load_models =
          static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else if (std::strncmp(argv[i], "--versions=", 11) == 0) {
      load_versions =
          static_cast<uint32_t>(std::strtoul(argv[i] + 11, nullptr, 10));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      load_shards =
          static_cast<uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else if (std::strncmp(argv[i], "--deadline-us=", 14) == 0) {
      load_deadline_us = std::strtoull(argv[i] + 14, nullptr, 10);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const uint32_t clients =
      positional.size() > 0
          ? static_cast<uint32_t>(std::strtoul(positional[0], nullptr, 10))
          : 8;
  const uint32_t per_client =
      positional.size() > 1
          ? static_cast<uint32_t>(std::strtoul(positional[1], nullptr, 10))
          : 200;
  const uint64_t seed =
      positional.size() > 2 ? std::strtoull(positional[2], nullptr, 10) : 7;

  if (load_test) {
    const std::string root = "artifacts/hamlet_serve_cli_load";
    std::filesystem::remove_all(root);
    ArtifactStore store(root);
    ServiceOptions service_options;
    service_options.num_shards = load_shards;
    if (shed) {
      service_options.overload_policy = OverloadPolicy::kShed;
      service_options.queue_capacity = 64;
      service_options.shed_high_water = 32;
    }
    LoadGenOptions load;
    load.clients = clients;
    load.duration_s = load_duration_s;
    load.target_rate = load_rate;
    load.block_rows = load_block_rows;
    load.num_models = load_models;
    if (load_versions != 0) load.versions_per_model = load_versions;
    load.deadline_ns = load_deadline_us * 1000;
    load.seed = seed;
    auto report = RunClosedLoopLoad(&store, service_options, load);
    if (!report.ok()) {
      std::fprintf(stderr, "load test failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("hamlet_serve_cli --load-test: %u clients for %.2fs "
                "(%s admission)\n%s",
                clients, load_duration_s, shed ? "shedding" : "blocking",
                FormatLoadReport(*report).c_str());
    return report->accounting_exact ? 0 : 1;
  }

  // --- Synthesize a dataset and train the model to serve. ---
  SimConfig config;
  config.n_s = 20000;
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 200;
  Rng rng(seed);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);

  std::vector<uint32_t> all_rows(draw.data.num_rows());
  for (uint32_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
  NaiveBayes model(1.0);
  auto trained = model.Train(draw.data, all_rows, gen.UseAllFeatures());
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.ToString().c_str());
    return 1;
  }

  const std::string root = "artifacts/hamlet_serve_cli";
  std::filesystem::remove_all(root);
  ArtifactStore store(root);
  if (!store.PutDataset("churn_data", draw.data).ok() ||
      !store.PutModel("churn_nb", model).ok()) {
    std::fprintf(stderr, "artifact store setup failed\n");
    return 1;
  }

  // Pre-build one 64-row block per client (GatherRows outside the timed
  // loop; the closed loop measures serving, not data prep).
  std::vector<std::shared_ptr<const EncodedDataset>> blocks;
  for (uint32_t c = 0; c < clients; ++c) {
    Rng block_rng(seed + 1000 + c);
    std::vector<uint32_t> sample(64);
    for (auto& r : sample) r = block_rng.Uniform(draw.data.num_rows());
    blocks.push_back(std::make_shared<const EncodedDataset>(
        draw.data.GatherRows(sample)));
  }

  // --- The closed loop: every client re-issues as soon as it hears
  // back; every 16th request is a metadata-only Advise. ---
  obs::ScopedCollection collect(true);
  HamletService service(&store);

  std::vector<std::vector<uint64_t>> score_ns(clients), advise_ns(clients);
  std::vector<int> failures(clients, 0);
  const uint64_t t0 = NowNanos();
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (uint32_t i = 0; i < per_client; ++i) {
          const uint64_t start = NowNanos();
          if (i % 16 == 15) {
            AdviseRequest req;
            req.n_train = 10000;
            req.candidates = {{"EmployerID", "Employers", 400, 8, true},
                              {"RegionID", "Regions", 9000, 2, true}};
            auto plan = service.Advise(std::move(req));
            if (!plan.ok()) { ++failures[c]; continue; }
            advise_ns[c].push_back(NowNanos() - start);
          } else {
            ScoreRequest req;
            req.model = "churn_nb";
            req.rows = blocks[c];
            auto resp = service.Score(std::move(req));
            if (!resp.ok()) { ++failures[c]; continue; }
            score_ns[c].push_back(NowNanos() - start);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_seconds = static_cast<double>(NowNanos() - t0) / 1e9;

  // --- One feature selection run, persisted through the service. ---
  SelectFeaturesRequest fs_req;
  fs_req.dataset = "churn_data";
  fs_req.model_name = "churn_nb_selected";
  fs_req.seed = seed;
  const uint64_t fs_start = NowNanos();
  auto fs_resp = service.SelectFeatures(std::move(fs_req));
  const double fs_seconds = static_cast<double>(NowNanos() - fs_start) / 1e9;
  if (!fs_resp.ok()) {
    std::fprintf(stderr, "SelectFeatures failed: %s\n",
                 fs_resp.status().ToString().c_str());
    return 1;
  }
  service.Stop();

  // --- Report. ---
  std::vector<uint64_t> all_score, all_advise;
  int total_failures = 0;
  for (uint32_t c = 0; c < clients; ++c) {
    all_score.insert(all_score.end(), score_ns[c].begin(), score_ns[c].end());
    all_advise.insert(all_advise.end(), advise_ns[c].begin(),
                      advise_ns[c].end());
    total_failures += failures[c];
  }
  const uint64_t total_reqs = all_score.size() + all_advise.size();

  std::printf("hamlet_serve_cli: %u closed-loop clients x %u requests "
              "(seed %llu)\n\n",
              clients, per_client, static_cast<unsigned long long>(seed));
  std::printf("Throughput: %llu requests in %.3fs = %.0f req/s "
              "(%d failures)\n",
              static_cast<unsigned long long>(total_reqs), wall_seconds,
              static_cast<double>(total_reqs) / wall_seconds, total_failures);
  std::printf("Client-observed latency (includes queue wait):\n");
  PrintDigest("Score", Digest(std::move(all_score)));
  PrintDigest("Advise", Digest(std::move(all_advise)));

  auto metrics = obs::MetricsRegistry::Global().Snapshot();
  const auto& batch_hist = obs::MetricsRegistry::Global()
                               .GetHistogram("serve.batch_size")
                               .Snapshot();
  std::printf("\nService-side view (serve.* metrics):\n");
  std::printf("  requests        %llu  (score %llu, advise %llu, "
              "select %llu)\n",
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.requests")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.score_requests")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.advise_requests")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.select_requests")));
  std::printf("  rows scored     %llu in %llu batched passes "
              "(mean batch %.2f requests)\n",
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.score_rows")),
              static_cast<unsigned long long>(
                  metrics.CounterValue("serve.score_batches")),
              batch_hist.count > 0
                  ? static_cast<double>(batch_hist.sum_nanos) /
                        static_cast<double>(batch_hist.count)
                  : 0.0);
  // Service-side percentiles come from the log-linear serve.*_ns
  // histograms (bucket width <= 1/32 of the value, so these track the
  // exact order statistics to a few percent).
  for (const char* name : {"serve.score_ns", "serve.advise_ns",
                           "serve.queue_wait_ns"}) {
    const auto hist =
        obs::MetricsRegistry::Global().GetHistogram(name).Snapshot();
    if (hist.count == 0) continue;
    std::printf("  %-15s p50 %9.1f us   p95 %9.1f us   p99 %9.1f us\n",
                name,
                static_cast<double>(hist.PercentileNanos(0.50)) / 1e3,
                static_cast<double>(hist.PercentileNanos(0.95)) / 1e3,
                static_cast<double>(hist.PercentileNanos(0.99)) / 1e3);
  }
  std::printf("  model cache     %llu hits / %llu misses\n",
              static_cast<unsigned long long>(store.cache_hits()),
              static_cast<unsigned long long>(store.cache_misses()));
  std::printf("  SelectFeatures  %.3fs -> model '%s' v%u (%zu features, "
              "holdout error %.4f)\n",
              fs_seconds, "churn_nb_selected", fs_resp->model_version,
              fs_resp->report.selection.selected.size(),
              fs_resp->report.holdout_test_error);

  // Structured export, when requested.
  if (!metrics_jsonl_path.empty()) {
    const obs::TraceSummary summary =
        obs::SummarizeTrace(obs::Tracer::Global().Collect(), metrics);
    // One line per run, appended: the run is its own window (seq 0),
    // as in RunPipeline, so repeated runs accumulate one line each.
    std::ofstream out(metrics_jsonl_path, std::ios::out | std::ios::app);
    if (out.is_open()) {
      obs::WriteSnapshotJsonl(metrics, &summary, 0, out);
      out.flush();
    }
    if (!out.good()) {
      std::fprintf(stderr, "metrics export failed: cannot append to %s\n",
                   metrics_jsonl_path.c_str());
    } else {
      std::printf("\nMetrics JSONL line appended to %s\n",
                  metrics_jsonl_path.c_str());
    }
  }
  if (!prom_path.empty()) {
    std::ofstream prom(prom_path, std::ios::out | std::ios::trunc);
    if (prom.is_open()) {
      obs::DumpPrometheusText(metrics, prom);
      std::printf("Prometheus text written to %s\n", prom_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", prom_path.c_str());
    }
  }

  std::printf("\nExplain tree (merged serve.* spans):\n%s\n",
              obs::RenderExplainTree(obs::Tracer::Global().Collect())
                  .c_str());
  std::printf("Artifacts left under %s:\n", root.c_str());
  auto list = store.List();
  if (list.ok()) {
    for (const auto& ref : *list) {
      std::printf("  %-24s v%-3u %-16s %8llu bytes\n", ref.name.c_str(),
                  ref.version, ArtifactKindToString(ref.kind),
                  static_cast<unsigned long long>(ref.size_bytes));
    }
  }
  return 0;
}
