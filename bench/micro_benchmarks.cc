/// Google-benchmark microbenchmarks for the substrate hot paths backing
/// the Section 5.1 runtime claims: KFK join throughput, Naive Bayes
/// training, filter scoring, and the JoinAll-vs-JoinOpt feature selection
/// gap that produces the paper's 10x-186x speedups.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "common/parallel_for.h"
#include "relational/csv.h"
#include "core/advisor.h"
#include "data/encoded_dataset.h"
#include "data/splits.h"
#include "datasets/registry.h"
#include "fs/filters.h"
#include "fs/greedy_search.h"
#include "fs/runner.h"
#include "ml/factorized.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/suff_stats.h"
#include "relational/column.h"
#include "ml/tan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/artifact_store.h"
#include "serve/serde.h"
#include "serve/service.h"
#include "sim/data_synthesis.h"

namespace {

using namespace hamlet;

// --- KFK join throughput over a MovieLens-shaped star schema. ---
void BM_KfkJoin(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto ds = MakeDataset("MovieLens1M", scale, 42);
  for (auto _ : state) {
    auto joined = ds->JoinAll();
    benchmark::DoNotOptimize(joined->num_rows());
  }
  // JoinAll probes the full entity table once per FK, so throughput
  // counts every probed row, not just one pass over S.
  state.SetItemsProcessed(state.iterations() * ds->entity().num_rows() *
                          ds->foreign_keys().size());
}
BENCHMARK(BM_KfkJoin)->Arg(1)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

// --- Ingest: the pre-PR getline/label-map reader (frozen here as the
// baseline) vs the chunked string_view/code reader, on a ~1M-row CSV.
// The acceptance bar is >=2x on BM_ReadCsvParallel vs BM_ReadCsvBaseline
// (docs/PERFORMANCE.md "Ingest & join fast path"). ---

struct CsvBenchState {
  std::string path;
  Schema schema{{ColumnSpec::Feature("A"), ColumnSpec::Feature("B"),
                 ColumnSpec::Feature("C")}};

  static CsvBenchState& Get() {
    static CsvBenchState* state = [] {
      auto* s = new CsvBenchState();
      s->path = (std::filesystem::temp_directory_path() /
                 "hamlet_ingest_bench.csv")
                    .string();
      std::ofstream out(s->path);
      out << "A,B,C\n";
      // ~1M rows, mixed cardinalities (1000 / 100 / 10 distinct labels).
      for (uint32_t i = 0; i < 1000000; ++i) {
        out << "a" << i % 1000 << ",b" << (i * 13) % 100 << ",c" << i % 10
            << "\n";
      }
      return s;
    }();
    return *state;
  }
};

// The pre-PR serial reader: getline framing, ParseCsvLine into
// std::string fields, TableBuilder::AppendRowLabels per row.
Result<Table> BaselineReadCsv(const std::string& path, const Schema& schema) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open");
  std::string line;
  if (!std::getline(in, line)) return Status::IOError("empty");
  TableBuilder builder("T", schema);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line, ',');
    if (fields.size() != schema.num_columns()) {
      return Status::InvalidArgument("ragged row");
    }
    Status append = builder.AppendRowLabels(fields);
    if (!append.ok()) return append;
  }
  return builder.Build();
}

void BM_ReadCsvBaseline(benchmark::State& state) {
  auto& s = CsvBenchState::Get();
  uint64_t rows = 0;
  for (auto _ : state) {
    auto t = BaselineReadCsv(s.path, s.schema);
    if (!t.ok()) std::abort();
    rows = t->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ReadCsvBaseline)->Unit(benchmark::kMillisecond);

void BM_ReadCsvParallel(benchmark::State& state) {
  auto& s = CsvBenchState::Get();
  const uint32_t num_threads = static_cast<uint32_t>(state.range(0));
  const ScopedWidth width(num_threads);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto t = ReadCsv(s.path, "T", s.schema);
    if (!t.ok()) std::abort();
    rows = t->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(num_threads == 1 ? "serial" : "hw");
}
BENCHMARK(BM_ReadCsvParallel)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- Naive Bayes training throughput (rows x features / s). ---
void BM_NaiveBayesTrain(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 100;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto features = gen.UseAllFeatures();
  for (auto _ : state) {
    NaiveBayes nb;
    benchmark::DoNotOptimize(nb.Train(draw.data, rows, features).ok());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          features.size());
}
BENCHMARK(BM_NaiveBayesTrain)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// --- NB training: scan path vs train-from-stats lookups. The gap is the
// per-candidate saving every wrapper-search evaluation banks once the
// sufficient statistics are built (docs/PERFORMANCE.md). ---
void BM_NBTrainScan(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 100;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto features = gen.UseAllFeatures();
  for (auto _ : state) {
    NaiveBayes nb;
    benchmark::DoNotOptimize(nb.Train(draw.data, rows, features).ok());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          features.size());
}
BENCHMARK(BM_NBTrainScan)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_NBTrainFromStats(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 100;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto features = gen.UseAllFeatures();
  const SuffStats stats = BuildSuffStats(draw.data, rows);
  for (auto _ : state) {
    NaiveBayes nb;
    benchmark::DoNotOptimize(nb.TrainFromStats(stats, features).ok());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          features.size());
}
BENCHMARK(BM_NBTrainFromStats)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// --- Filter scoring (mutual information over all features). ---
void BM_MiFilterScoring(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 16;
  config.d_r = 16;
  config.n_r = 200;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  ScoreFilter filter(FilterScore::kMutualInformation);
  auto candidates = draw.data.AllFeatureIndices();
  for (auto _ : state) {
    auto scores = filter.ScoreFeatures(draw.data, rows, candidates);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          candidates.size());
}
BENCHMARK(BM_MiFilterScoring)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// --- The end-to-end FS runtime gap: JoinAll vs JoinOpt input (the
// Section 5.1 speedup source) on Walmart, forward selection. ---
void BM_ForwardSelection(benchmark::State& state) {
  bool join_all = state.range(0) == 1;
  auto ds = MakeDataset("Walmart", 0.05, 42);
  auto plan = AdviseJoins(*ds);
  std::vector<std::string> fks;
  if (join_all) {
    for (const auto& fk : ds->foreign_keys()) fks.push_back(fk.fk_column);
  } else {
    fks = plan->fks_to_join;
  }
  auto table = ds->JoinSubset(fks);
  auto data = EncodedDataset::FromTableAuto(*table);
  Rng rng(7);
  HoldoutSplit split = MakeHoldoutSplit(data->num_rows(), rng);
  for (auto _ : state) {
    ForwardSelection fs;
    auto result = fs.Select(*data, split, MakeNaiveBayesFactory(),
                            ErrorMetric::kRmse, data->AllFeatureIndices());
    benchmark::DoNotOptimize(result->selected.size());
  }
  state.SetLabel(join_all ? "JoinAll" : "JoinOpt");
}
BENCHMARK(BM_ForwardSelection)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// --- Greedy forward selection end to end at d ∈ {10, 25, 50} candidate
// features: the incremental fast path (sufficient statistics + delta
// scoring) against the forced scan path. The per-candidate cost drops
// from O(train_rows × |subset|) to O(validation_rows × classes), so the
// gap widens with d — the ISSUE-3 acceptance bar is ≥3× at d=25. ---
SimDraw MakeGreedyBenchDraw(uint32_t d_total, HoldoutSplit* split) {
  SimConfig config;
  config.n_s = 4000;
  config.d_s = d_total / 2;                       // X_S columns.
  config.d_r = d_total - config.d_s - 1;          // X_R columns (+1 FK).
  config.n_r = 100;
  Rng rng(5);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  Rng split_rng(6);
  *split = MakeHoldoutSplit(draw.data.num_rows(), split_rng);
  return draw;
}

void BM_GreedyForwardScan(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  HoldoutSplit split;
  SimDraw draw = MakeGreedyBenchDraw(d, &split);
  for (auto _ : state) {
    ForwardSelection fs;
    fs.set_force_scan_eval(true);
    auto result = fs.Select(draw.data, split, MakeNaiveBayesFactory(),
                            ErrorMetric::kZeroOne,
                            draw.data.AllFeatureIndices());
    benchmark::DoNotOptimize(result->selected.size());
  }
  state.SetLabel("d=" + std::to_string(draw.data.num_features()) + " scan");
}
BENCHMARK(BM_GreedyForwardScan)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyForwardFast(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  HoldoutSplit split;
  SimDraw draw = MakeGreedyBenchDraw(d, &split);
  for (auto _ : state) {
    ForwardSelection fs;
    auto result = fs.Select(draw.data, split, MakeNaiveBayesFactory(),
                            ErrorMetric::kZeroOne,
                            draw.data.AllFeatureIndices());
    benchmark::DoNotOptimize(result->selected.size());
  }
  state.SetLabel("d=" + std::to_string(draw.data.num_features()) + " fast");
}
BENCHMARK(BM_GreedyForwardFast)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond);

// --- Sparse-SGD logistic regression training. ---
void BM_LogisticRegressionTrain(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 200;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto features = gen.UseAllFeatures();
  LogisticRegressionOptions options;
  options.regularizer = Regularizer::kL1;
  options.max_epochs = 10;
  for (auto _ : state) {
    LogisticRegression lr(options);
    benchmark::DoNotOptimize(lr.Train(draw.data, rows, features).ok());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          options.max_epochs);
}
BENCHMARK(BM_LogisticRegressionTrain)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// --- TAN training (pairwise CMI + Chow-Liu + CPTs). ---
void BM_TanTrain(benchmark::State& state) {
  SimConfig config;
  config.n_s = static_cast<uint32_t>(state.range(0));
  config.d_s = 6;
  config.d_r = 6;
  config.n_r = 50;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  auto features = gen.UseAllFeatures();
  for (auto _ : state) {
    TreeAugmentedNaiveBayes tan;
    benchmark::DoNotOptimize(tan.Train(draw.data, rows, features).ok());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s);
}
BENCHMARK(BM_TanTrain)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// --- Shared pool vs spawn-per-call parallel regions. The pool's point
// is amortizing thread startup across the thousands of short regions a
// feature selection search issues; this measures exactly that gap. ---

// The pre-pool ParallelFor: spawns and joins threads on every call.
template <typename Fn>
void SpawnThreadsFor(uint32_t n, uint32_t num_threads, Fn&& fn) {
  uint32_t threads = num_threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : num_threads;
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (uint32_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([t, threads, n, &fn] {
      for (uint32_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (auto& w : workers) w.join();
}

// A work item sized like one small candidate evaluation (~microseconds).
uint64_t SmallWorkItem(uint32_t i) {
  uint64_t h = i + 0x9E3779B97F4A7C15ULL;
  for (int k = 0; k < 2000; ++k) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
  }
  return h;
}

void BM_ParallelRegionSpawn(benchmark::State& state) {
  const uint32_t items = static_cast<uint32_t>(state.range(0));
  std::vector<uint64_t> out(items);
  for (auto _ : state) {
    SpawnThreadsFor(items, 0, [&](uint32_t i) { out[i] = SmallWorkItem(i); });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_ParallelRegionSpawn)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_ParallelRegionPool(benchmark::State& state) {
  const uint32_t items = static_cast<uint32_t>(state.range(0));
  std::vector<uint64_t> out(items);
  ParallelFor(1, [](uint32_t) {});  // Warm the shared pool up front.
  for (auto _ : state) {
    ParallelFor(items, [&](uint32_t i) { out[i] = SmallWorkItem(i); });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_ParallelRegionPool)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// --- Serial vs parallel greedy search on a MovieLens-scale synthetic
// config (the Figure 7 workload shape: ~10^4 rows, X_S + FK + X_R
// candidates). Arg is the run's width (1 = serial, 0 = all hardware
// threads), opened as a scope around the timed searches; selections are
// bit-identical across args, only the wall clock moves. ---
void BM_ForwardSelectionThreads(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SimConfig config;
  config.n_s = 8000;
  config.d_s = 8;
  config.d_r = 8;
  config.n_r = 200;
  Rng rng(3);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  Rng split_rng(4);
  HoldoutSplit split = MakeHoldoutSplit(draw.data.num_rows(), split_rng);
  const ScopedWidth width(threads);
  for (auto _ : state) {
    ForwardSelection fs;
    auto result = fs.Select(draw.data, split, MakeNaiveBayesFactory(),
                            ErrorMetric::kZeroOne,
                            draw.data.AllFeatureIndices());
    benchmark::DoNotOptimize(result->selected.size());
  }
  state.SetLabel(threads == 1 ? "serial" : threads == 0 ? "hw" :
                 std::to_string(threads) + "t");
}
BENCHMARK(BM_ForwardSelectionThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// --- Serial vs parallel MI filter scoring over all features. ---
void BM_MiFilterScoringThreads(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  SimConfig config;
  config.n_s = 100000;
  config.d_s = 16;
  config.d_r = 16;
  config.n_r = 200;
  Rng rng(1);
  SimDataGenerator gen(config, rng);
  SimDraw draw = gen.Draw(config.n_s, rng);
  std::vector<uint32_t> rows(draw.data.num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  ScoreFilter filter(FilterScore::kMutualInformation);
  auto candidates = draw.data.AllFeatureIndices();
  const ScopedWidth width(threads);
  for (auto _ : state) {
    auto scores = filter.ScoreFeatures(draw.data, rows, candidates);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * config.n_s *
                          candidates.size());
  state.SetLabel(threads == 1 ? "serial" : "hw");
}
BENCHMARK(BM_MiFilterScoringThreads)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// --- Observability cost contract (docs/OBSERVABILITY.md): with
// collection off, a span or metric touch is one relaxed load and a
// predictable branch; these pin the disabled path and size the enabled
// one. RAII guard so a crashed bench cannot leave collection enabled. ---
struct ScopedObsEnabled {
  explicit ScopedObsEnabled(bool on) : prev(hamlet::obs::Enabled()) {
    hamlet::obs::SetEnabled(on);
  }
  ~ScopedObsEnabled() { hamlet::obs::SetEnabled(prev); }
  bool prev;
};

void BM_TraceSpanDisabled(benchmark::State& state) {
  ScopedObsEnabled off(false);
  for (auto _ : state) {
    hamlet::obs::TraceSpan span("bench.disabled");
    span.AddAttr("i", static_cast<uint64_t>(1));
    benchmark::DoNotOptimize(span.active());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  ScopedObsEnabled on(true);
  // Drain the tracer in batches so the bench does not grow memory
  // without bound (Clear() outside the timed region).
  constexpr uint32_t kBatch = 4096;
  while (state.KeepRunningBatch(kBatch)) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      hamlet::obs::TraceSpan span("bench.enabled");
      span.AddAttr("i", static_cast<uint64_t>(i));
      benchmark::DoNotOptimize(span.active());
    }
    state.PauseTiming();
    hamlet::obs::Tracer::Global().Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_CounterDisabled(benchmark::State& state) {
  ScopedObsEnabled off(false);
  auto& counter =
      hamlet::obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  ScopedObsEnabled on(true);
  auto& counter =
      hamlet::obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add(1);
  }
  counter.Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterEnabled);

void BM_HistogramRecordEnabled(benchmark::State& state) {
  ScopedObsEnabled on(true);
  auto& histogram =
      hamlet::obs::MetricsRegistry::Global().GetHistogram("bench.histogram");
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // Vary the bucket.
  }
  histogram.Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordEnabled);

// Disabled-path twin of BM_HistogramRecordEnabled: one relaxed load and
// a branch per Record regardless of the 1408-bucket log-linear layout.
// Gated in scripts/compare_bench.py so bucket-math changes cannot creep
// into the disabled cost.
void BM_HistogramRecord(benchmark::State& state) {
  ScopedObsEnabled off(false);
  auto& histogram =
      hamlet::obs::MetricsRegistry::Global().GetHistogram("bench.histogram");
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// Span open/close inside a pool task: pays the enabled TraceSpan cost
// plus the task-context save/restore ThreadPool::RunShards does to
// parent the span under the submitter. Regression-gated: propagation
// must stay two TLS copies per task, not a lock or a map lookup.
void BM_TraceSpanPropagated(benchmark::State& state) {
  ScopedObsEnabled on(true);
  constexpr uint32_t kSpansPerRegion = 64;
  const hamlet::ScopedWidth width(2);
  while (state.KeepRunningBatch(kSpansPerRegion)) {
    hamlet::obs::TraceSpan parent("bench.region");
    hamlet::ParallelFor(kSpansPerRegion, [](uint32_t i) {
      hamlet::obs::TraceSpan span("bench.shard");
      benchmark::DoNotOptimize(span.active());
      (void)i;
    });
    state.PauseTiming();
    hamlet::obs::Tracer::Global().Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanPropagated);

// --- The advisor itself: metadata-only decisions must be ~free. ---
void BM_AdviseJoins(benchmark::State& state) {
  auto ds = MakeDataset("Yelp", 0.05, 42);
  for (auto _ : state) {
    auto plan = AdviseJoins(*ds);
    benchmark::DoNotOptimize(plan->fks_to_join.size());
  }
}
BENCHMARK(BM_AdviseJoins)->Unit(benchmark::kMicrosecond);

// --- Table -> EncodedDataset conversion (column copies). ---
void BM_EncodeDataset(benchmark::State& state) {
  auto ds = MakeDataset("Yelp", 0.05, 42);
  auto joined = *ds->JoinAll();
  for (auto _ : state) {
    auto data = EncodedDataset::FromTableAuto(joined);
    benchmark::DoNotOptimize(data->num_features());
  }
  state.SetItemsProcessed(state.iterations() * joined.num_rows() *
                          joined.num_columns());
}
BENCHMARK(BM_EncodeDataset)->Unit(benchmark::kMillisecond);

// --- Serving stack: serde throughput and the micro-batching gap. ---

// Shared fixture state for the serve benches: a synthetic dataset, a
// trained NB model, and an artifact store + service on a temp directory.
// Built once and leaked (benchmark processes exit right after).
struct ServeBenchState {
  SimDraw draw;
  NaiveBayes model{1.0};
  std::unique_ptr<serve::ArtifactStore> store;
  std::unique_ptr<serve::HamletService> batched;
  std::unique_ptr<serve::HamletService> unbatched;
  std::unique_ptr<serve::HamletService> one_shard;
  std::vector<serve::ScoreRequest> requests;  // 16 blocks x 256 rows.
  serve::ScoreRequest small;                  // 1 block x 16 rows.

  static ServeBenchState& Get() {
    static ServeBenchState* state = [] {
      auto* s = new ServeBenchState();
      SimConfig config;
      config.n_s = 20000;
      config.d_s = 8;
      config.d_r = 8;
      config.n_r = 200;
      Rng rng(11);
      SimDataGenerator gen(config, rng);
      s->draw = gen.Draw(config.n_s, rng);
      std::vector<uint32_t> rows(s->draw.data.num_rows());
      for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
      if (!s->model.Train(s->draw.data, rows, gen.UseAllFeatures()).ok()) {
        std::abort();
      }
      const std::string root =
          (std::filesystem::temp_directory_path() / "hamlet_serve_bench")
              .string();
      std::filesystem::remove_all(root);
      s->store = std::make_unique<serve::ArtifactStore>(root);
      if (!s->store->PutModel("m", s->model).ok()) std::abort();
      serve::ServiceOptions on;
      s->batched = std::make_unique<serve::HamletService>(s->store.get(), on);
      serve::ServiceOptions off;
      off.batch_scoring = false;
      s->unbatched =
          std::make_unique<serve::HamletService>(s->store.get(), off);
      serve::ServiceOptions single;
      single.num_shards = 1;
      s->one_shard =
          std::make_unique<serve::HamletService>(s->store.get(), single);
      Rng block_rng(12);
      for (int b = 0; b < 16; ++b) {
        std::vector<uint32_t> sample(256);
        for (auto& r : sample) r = block_rng.Uniform(s->draw.data.num_rows());
        serve::ScoreRequest req;
        req.model = "m";
        req.rows = std::make_shared<const EncodedDataset>(
            s->draw.data.GatherRows(sample));
        s->requests.push_back(std::move(req));
      }
      std::vector<uint32_t> sample(16);
      for (auto& r : sample) r = block_rng.Uniform(s->draw.data.num_rows());
      s->small.model = "m";
      s->small.rows = std::make_shared<const EncodedDataset>(
          s->draw.data.GatherRows(sample));
      return s;
    }();
    return *state;
  }
};

void BM_SerdeSave(benchmark::State& state) {
  auto& s = ServeBenchState::Get();
  const bool dataset = state.range(0) == 1;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = dataset ? serve::SerializeDataset(s.draw.data)
                              : *serve::SerializeModel(s.model);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetLabel(dataset ? "dataset" : "nb_model");
}
BENCHMARK(BM_SerdeSave)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SerdeLoad(benchmark::State& state) {
  auto& s = ServeBenchState::Get();
  const bool dataset = state.range(0) == 1;
  const std::string bytes = dataset ? serve::SerializeDataset(s.draw.data)
                                    : *serve::SerializeModel(s.model);
  for (auto _ : state) {
    if (dataset) {
      auto back = serve::DeserializeDataset(bytes);
      benchmark::DoNotOptimize(back.ok());
    } else {
      auto back = serve::DeserializeModel(bytes);
      benchmark::DoNotOptimize(back.ok());
    }
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
  state.SetLabel(dataset ? "dataset" : "nb_model");
}
BENCHMARK(BM_SerdeLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The micro-batching gap: 16 concurrent-style Score requests for the
// same model served as ONE coalesced pass (shared model resolution +
// one parallel region) versus 16 independent passes. Predictions are
// identical; only the per-request overhead moves.
void BM_ServeScoreBatched(benchmark::State& state) {
  auto& s = ServeBenchState::Get();
  uint64_t rows = 0;
  for (auto _ : state) {
    auto responses = s.batched->ScoreBatchDirect(s.requests);
    if (!responses.ok()) std::abort();
    rows = 0;
    for (const auto& r : *responses) rows += r.predictions.size();
    benchmark::DoNotOptimize(responses->data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel("16 reqs/pass");
}
BENCHMARK(BM_ServeScoreBatched)->Unit(benchmark::kMicrosecond);

void BM_ServeScoreUnbatched(benchmark::State& state) {
  auto& s = ServeBenchState::Get();
  uint64_t rows = 0;
  std::vector<serve::ScoreRequest> one(1);
  for (auto _ : state) {
    rows = 0;
    for (const auto& req : s.requests) {
      one[0] = req;
      auto responses = s.unbatched->ScoreBatchDirect(one);
      if (!responses.ok()) std::abort();
      rows += (*responses)[0].predictions.size();
      benchmark::DoNotOptimize(responses->data());
    }
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel("1 req/pass");
}
BENCHMARK(BM_ServeScoreUnbatched)->Unit(benchmark::kMicrosecond);

// The whole served path the two benchmarks above skip: one Score() call
// for a 16-row block on an idle 1-shard service — admission, the pass,
// and the response back to the caller. An idle shard scores on the
// caller's thread; a busy one queues for its dispatcher.
void BM_ServeScoreRoundTrip(benchmark::State& state) {
  auto& s = ServeBenchState::Get();
  uint64_t rows = 0;
  for (auto _ : state) {
    auto response = s.one_shard->Score(s.small);
    if (!response.ok()) std::abort();
    rows += response->predictions.size();
    benchmark::DoNotOptimize(response->predictions.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.SetLabel("16 rows, 1 shard");
}
BENCHMARK(BM_ServeScoreRoundTrip)->Unit(benchmark::kMicrosecond);

// --- Factorized learning vs the materialized join (ml/factorized.h).
// The headline claim docs/PERFORMANCE.md "Factorized training" reports:
// building sufficient statistics over the normalized (S, R) pair costs a
// fraction of the joined table's footprint, because T = R ⋈ S is never
// built. peak_*_mb counters are transient Column bytes (ColumnMemory)
// above the resident dataset; mem_ratio is materialized/factorized.
// Arg = entity rows in thousands over the MovieLens1M-shaped schema
// (1000 = the paper-scale 1M-row S). The 10M-row variant is too heavy
// for routine runs and skips unless HAMLET_BENCH_LARGE=1 is set. ---

struct FactorizedBenchCase {
  NormalizedDataset dataset;
  std::vector<std::string> fks;
  std::vector<uint32_t> rows;

  static FactorizedBenchCase Make(double scale) {
    FactorizedBenchCase c;
    c.dataset = *MakeDataset("MovieLens1M", scale, 42);
    for (const auto& fk : c.dataset.foreign_keys()) {
      c.fks.push_back(fk.fk_column);
    }
    c.rows.resize(c.dataset.entity().num_rows());
    for (uint32_t i = 0; i < c.rows.size(); ++i) c.rows[i] = i;
    return c;
  }
};

/// Resident code bytes of the factorized view itself (the entity encode,
/// the per-relation feature columns, and the FK hop arrays) — the whole
/// footprint the avoid-materialization path ever holds.
int64_t FactorizedResidentBytes(const FactorizedDataset& d) {
  int64_t words = static_cast<int64_t>(d.entity().num_features() + 1) *
                  d.num_rows();  // Features + labels.
  for (const auto& rel : d.relations()) {
    words += static_cast<int64_t>(rel.fk_to_rrow.size()) +
             static_cast<int64_t>(rel.stored_fk_codes.size());
    for (const auto& col : rel.columns) {
      words += static_cast<int64_t>(col.size());
    }
  }
  return words * static_cast<int64_t>(sizeof(uint32_t));
}

// The statistics builds below are timed single-threaded (a width-1 scope
// around each build) so their numbers compare across hosts.
SuffStats SerialSuffStats(const EncodedDataset& data,
                          const std::vector<uint32_t>& rows) {
  const ScopedWidth serial(1);
  return BuildSuffStats(data, rows);
}

SuffStats SerialFactorizedSuffStats(const FactorizedDataset& data,
                                    const std::vector<uint32_t>& rows) {
  const ScopedWidth serial(1);
  return BuildFactorizedSuffStats(data, rows);
}

void BM_FactorizedVsMaterialized(benchmark::State& state) {
  if (state.range(0) >= 10000 &&
      std::getenv("HAMLET_BENCH_LARGE") == nullptr) {
    state.SkipWithError("10M-row variant needs HAMLET_BENCH_LARGE=1");
    return;
  }
  FactorizedBenchCase c =
      FactorizedBenchCase::Make(state.range(0) / 1000.0);
  int64_t mat_bytes = 0;
  int64_t fac_bytes = 0;
  for (auto _ : state) {
    {
      ColumnMemory::ResetPeak();
      const int64_t base = ColumnMemory::LiveBytes();
      Table joined = *c.dataset.JoinSubset(c.fks);
      EncodedDataset data = *EncodedDataset::FromTableAuto(joined);
      const SuffStats stats = SerialSuffStats(data, c.rows);
      benchmark::DoNotOptimize(stats.class_counts.data());
      // Transient join Columns (tracked) + the resident encode.
      mat_bytes = ColumnMemory::PeakBytes() - base +
                  static_cast<int64_t>(data.num_features() + 1) *
                      data.num_rows() * sizeof(uint32_t);
    }
    {
      ColumnMemory::ResetPeak();
      const int64_t base = ColumnMemory::LiveBytes();
      FactorizedDataset data = *FactorizedDataset::Make(c.dataset, c.fks);
      const SuffStats stats = SerialFactorizedSuffStats(data, c.rows);
      benchmark::DoNotOptimize(stats.class_counts.data());
      fac_bytes = ColumnMemory::PeakBytes() - base +
                  FactorizedResidentBytes(data);
    }
  }
  state.counters["peak_mat_mb"] = mat_bytes / 1048576.0;
  state.counters["peak_fac_mb"] = fac_bytes / 1048576.0;
  state.counters["mem_ratio"] =
      static_cast<double>(mat_bytes) / std::max<int64_t>(fac_bytes, 1);
  state.SetItemsProcessed(state.iterations() * c.rows.size());
}
BENCHMARK(BM_FactorizedVsMaterialized)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Stats-build throughput alone (the view already constructed), the cost a
// search pays once per train split: factorized group-and-scatter vs the
// materialized single-table scan over the same feature space.
void BM_FactorizedStatsBuild(benchmark::State& state) {
  FactorizedBenchCase c =
      FactorizedBenchCase::Make(state.range(0) / 1000.0);
  FactorizedDataset data = *FactorizedDataset::Make(c.dataset, c.fks);
  for (auto _ : state) {
    const SuffStats stats = SerialFactorizedSuffStats(data, c.rows);
    benchmark::DoNotOptimize(stats.class_counts.data());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size() *
                          data.num_features());
}
BENCHMARK(BM_FactorizedStatsBuild)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializedStatsBuild(benchmark::State& state) {
  FactorizedBenchCase c =
      FactorizedBenchCase::Make(state.range(0) / 1000.0);
  Table joined = *c.dataset.JoinSubset(c.fks);
  EncodedDataset data = *EncodedDataset::FromTableAuto(joined);
  for (auto _ : state) {
    const SuffStats stats = SerialSuffStats(data, c.rows);
    benchmark::DoNotOptimize(stats.class_counts.data());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size() *
                          data.num_features());
}
BENCHMARK(BM_MaterializedStatsBuild)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// --- Dataset synthesis throughput (rows/s). ---
void BM_SynthesizeDataset(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  uint64_t rows = 0;
  for (auto _ : state) {
    auto ds = MakeDataset("MovieLens1M", scale, 42);
    rows = ds->entity().num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SynthesizeDataset)->Arg(1)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN() with provenance: the standard context's
// "library_build_type" reports how *libbenchmark* was compiled (the
// distro package ships a debug build), so BENCH files record hamlet's
// own build type under "hamlet_build_type". scripts/run_benchmarks.sh
// fails the run unless it says "release", and compare_bench.py refuses
// to diff BENCH files whose hamlet build types differ.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("hamlet_build_type", "release");
#else
  benchmark::AddCustomContext("hamlet_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
