/// Google-benchmark harness for the tree learning subsystem
/// (docs/TREES.md): histogram CART training over the materialized join
/// and over the factorized (S, R) view — same bits, different data
/// movement — plus gradient-boosted ensemble training. Arg = entity rows
/// in thousands over the MovieLens1M-shaped schema (1000 = the
/// paper-scale 1M-row S); the 1M-row GBT arm is too heavy for routine
/// runs and skips unless HAMLET_BENCH_LARGE=1 is set.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/encoded_dataset.h"
#include "datasets/registry.h"
#include "ml/decision_tree.h"
#include "ml/factorized.h"
#include "ml/gbt.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace {

using namespace hamlet;

struct TreeBenchCase {
  NormalizedDataset dataset;
  std::vector<std::string> fks;
  std::vector<uint32_t> rows;

  static TreeBenchCase Make(double scale) {
    TreeBenchCase c;
    c.dataset = *MakeDataset("MovieLens1M", scale, 42);
    for (const auto& fk : c.dataset.foreign_keys()) {
      c.fks.push_back(fk.fk_column);
    }
    c.rows.resize(c.dataset.entity().num_rows());
    for (uint32_t i = 0; i < c.rows.size(); ++i) c.rows[i] = i;
    return c;
  }
};

// Every timed training runs under a width-1 scope: single-thread
// training keeps the numbers comparable across hosts, and the determinism
// contract makes the width a pure-latency knob anyway.

void BM_TreeTrainMaterialized(benchmark::State& state) {
  TreeBenchCase c = TreeBenchCase::Make(state.range(0) / 1000.0);
  Table joined = *c.dataset.JoinSubset(c.fks);
  EncodedDataset data = *EncodedDataset::FromTableAuto(joined);
  DecisionTree tree;
  const ScopedWidth serial(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Train(data, c.rows, data.AllFeatureIndices()).ok());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size());
  state.counters["nodes"] = tree.num_nodes();
}
BENCHMARK(BM_TreeTrainMaterialized)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_TreeTrainFactorized(benchmark::State& state) {
  TreeBenchCase c = TreeBenchCase::Make(state.range(0) / 1000.0);
  FactorizedDataset data = *FactorizedDataset::Make(c.dataset, c.fks);
  DecisionTree tree;
  const ScopedWidth serial(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Train(data, c.rows, data.AllFeatureIndices()).ok());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size());
  state.counters["nodes"] = tree.num_nodes();
}
BENCHMARK(BM_TreeTrainFactorized)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_GbtTrain(benchmark::State& state) {
  if (state.range(0) >= 1000 &&
      std::getenv("HAMLET_BENCH_LARGE") == nullptr) {
    state.SkipWithError("1M-row GBT arm needs HAMLET_BENCH_LARGE=1");
    return;
  }
  TreeBenchCase c = TreeBenchCase::Make(state.range(0) / 1000.0);
  Table joined = *c.dataset.JoinSubset(c.fks);
  EncodedDataset data = *EncodedDataset::FromTableAuto(joined);
  GbtOptions options;
  options.num_rounds = 10;
  Gbt gbt(options);
  const ScopedWidth serial(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gbt.Train(data, c.rows, data.AllFeatureIndices()).ok());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size() *
                          options.num_rounds);
  state.counters["trees"] = gbt.num_trees();
}
BENCHMARK(BM_GbtTrain)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_GbtTrainFactorized(benchmark::State& state) {
  TreeBenchCase c = TreeBenchCase::Make(state.range(0) / 1000.0);
  FactorizedDataset data = *FactorizedDataset::Make(c.dataset, c.fks);
  GbtOptions options;
  options.num_rounds = 10;
  Gbt gbt(options);
  const ScopedWidth serial(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gbt.Train(data, c.rows, data.AllFeatureIndices()).ok());
  }
  state.SetItemsProcessed(state.iterations() * c.rows.size() *
                          options.num_rounds);
  state.counters["trees"] = gbt.num_trees();
}
BENCHMARK(BM_GbtTrainFactorized)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

// Same provenance stamp as micro_benchmarks.cc: BENCH files record
// hamlet's own build type, and compare_bench.py refuses cross-type diffs.
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
