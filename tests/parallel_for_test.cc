#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/monte_carlo.h"

namespace hamlet {
namespace {

// ParallelFor at `width`: the loop runs under a ScopedWidth, the way an
// entry point opens one.
template <typename Fn>
void ParallelForAt(uint32_t n, uint32_t width, Fn&& fn) {
  const ScopedWidth scope(width);
  ParallelFor(n, std::forward<Fn>(fn));
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (uint32_t threads : {1u, 2u, 4u, 0u}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v = 0;
    ParallelForAt(257, threads, [&](uint32_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads "
                                     << threads;
    }
  }
}

TEST(ParallelForTest, ZeroItemsIsNoop) {
  bool called = false;
  ParallelForAt(0, 4, [&](uint32_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SlotWritesAreDeterministic) {
  auto run = [](uint32_t threads) {
    std::vector<uint64_t> out(100);
    ParallelForAt(100, threads, [&](uint32_t i) {
      out[i] = static_cast<uint64_t>(i) * i + 7;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(1), run(0));
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  std::vector<int> out(3, 0);
  ParallelForAt(3, 16, [&](uint32_t i) { out[i] = static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelForTest, MonteCarloIdenticalAtAnyThreadCount) {
  // The promise the Monte Carlo driver makes: bit-for-bit identical
  // results regardless of threads — serial, even, odd, and hardware.
  SimConfig c;
  c.n_s = 300;
  c.n_r = 30;
  MonteCarloOptions options;
  options.num_training_sets = 20;
  options.num_repeats = 4;
  auto a = [&] {
    const ScopedWidth width(1);
    return *RunMonteCarlo(c, options);
  }();
  for (uint32_t threads : {2u, 4u, 7u, 0u}) {
    const ScopedWidth width(threads);
    auto b = *RunMonteCarlo(c, options);
    EXPECT_EQ(a.no_join.avg_test_error, b.no_join.avg_test_error)
        << "threads " << threads;
    EXPECT_EQ(a.use_all.avg_net_variance, b.use_all.avg_net_variance)
        << "threads " << threads;
    EXPECT_EQ(a.no_fk.avg_bias, b.no_fk.avg_bias) << "threads " << threads;
  }
}

TEST(ParallelForTest, WorkerExceptionRethrownOnCaller) {
  // An exception thrown by fn(i) on a worker thread must reach the
  // caller instead of std::terminate-ing the process.
  EXPECT_THROW(ParallelForAt(100, 4,
                           [](uint32_t i) {
                             if (i == 57) {
                               throw std::runtime_error("item 57 failed");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, FirstShardExceptionWins) {
  // With every item throwing, the deterministic choice is the lowest
  // shard's exception — shard 0 starts at index 0.
  try {
    ParallelForAt(64, 8, [](uint32_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ParallelForTest, SerialFallbackAlsoPropagates) {
  EXPECT_THROW(ParallelForAt(10, 1,
                           [](uint32_t i) {
                             if (i == 3) throw std::runtime_error("serial");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallsCompleteWithoutDeadlock) {
  // ParallelFor inside ParallelFor degrades to serial on the shared pool.
  std::vector<uint64_t> out(16, 0);
  ParallelForAt(16, 4, [&](uint32_t i) {
    uint64_t sum = 0;
    ParallelForAt(100, 4, [&](uint32_t j) { sum += j; });  // Serial inside.
    out[i] = sum;
  });
  for (uint64_t v : out) EXPECT_EQ(v, 4950u);
}

}  // namespace
}  // namespace hamlet
