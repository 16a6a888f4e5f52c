#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hamlet {
namespace {

// pool.ParallelFor at `width`: the region runs under a ScopedWidth, the
// way an entry point opens one.
template <typename Fn>
void ParallelForAt(ThreadPool& pool, uint32_t n, uint32_t width, Fn&& fn,
                   uint32_t grain = 1) {
  const ScopedWidth scope(width);
  pool.ParallelFor(n, std::forward<Fn>(fn), grain);
}

TEST(ThreadPoolTest, ConstructionAndTeardown) {
  // Pools of various sizes construct, idle, and join cleanly — including
  // repeatedly, since teardown must leave no detached state behind.
  for (int round = 0; round < 3; ++round) {
    ThreadPool one(1);
    EXPECT_EQ(one.num_workers(), 1u);
    ThreadPool four(4);
    EXPECT_EQ(four.num_workers(), 4u);
    ThreadPool hardware;
    EXPECT_GE(hardware.num_workers(), 1u);
  }
}

TEST(ThreadPoolTest, TeardownAfterWork) {
  std::atomic<uint32_t> count{0};
  {
    ThreadPool pool(3);
    ParallelForAt(pool, 100, 0, [&](uint32_t) { ++count; });
  }  // Destructor joins workers with an empty queue.
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, ChunkedSchedulingCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  for (uint32_t shards : {1u, 2u, 3u, 7u, 16u, 0u}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v = 0;
    ParallelForAt(pool, 257, shards, [&](uint32_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1)
          << "index " << i << " shards " << shards;
    }
  }
}

TEST(ThreadPoolTest, MoreShardsThanWorkersStillCompletes) {
  // Shards beyond the worker count queue up and drain; nothing is lost.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> visits(100);
  for (auto& v : visits) v = 0;
  ParallelForAt(pool, 100, 32, [&](uint32_t i) { ++visits[i]; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelForAt(pool, 0, 4, [&](uint32_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelForAt(pool, 100, 8,
                                [](uint32_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("bad item");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a throwing region and remains usable.
  std::atomic<uint32_t> count{0};
  ParallelForAt(pool, 64, 8, [&](uint32_t) { ++count; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, LowestShardExceptionWinsDeterministically) {
  // When several shards throw, the caller must always observe the
  // lowest-indexed shard's exception — shard 0 owns index 0, so with
  // every item throwing its own index the winner is "0" regardless of
  // which shard *finished* throwing first.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      ParallelForAt(pool, 64, 8, [](uint32_t i) {
        throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0");
    }
  }
}

TEST(ThreadPoolTest, SoleThrowingItemIsTheOneRethrown) {
  ThreadPool pool(2);
  try {
    ParallelForAt(pool, 40, 4, [](uint32_t i) {
      if (i == 23) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "23");
  }
}

TEST(ThreadPoolTest, NestedSubmissionDegradesToSerial) {
  ThreadPool pool(2);
  std::atomic<uint32_t> outer_done{0};
  ParallelForAt(pool, 4, 4, [&](uint32_t) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested region must run entirely on this thread (serial), and
    // must not deadlock even though every worker may be busy with the
    // outer region.
    const std::thread::id me = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(50);
    ParallelForAt(pool, 50, 4, [&](uint32_t j) {
      ran_on[j] = std::this_thread::get_id();
    });
    for (const auto& id : ran_on) EXPECT_EQ(id, me);
    ++outer_done;
  });
  EXPECT_EQ(outer_done.load(), 4u);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, SerialFallbackDoesNotMarkRegion) {
  // A single-shard call runs inline without claiming the region, so a
  // loop nested under an explicitly-serial outer loop may still
  // parallelize (the Monte Carlo serial-outer/parallel-inner shape).
  ThreadPool pool(2);
  ParallelForAt(pool, 3, 1, [&](uint32_t) {
    EXPECT_FALSE(ThreadPool::InParallelRegion());
  });
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::Global(), &ThreadPool::Global());
  EXPECT_GE(ThreadPool::Global().num_workers(), 1u);
}

TEST(ThreadPoolTest, LifetimeStatsCountRegionsAndTasks) {
  ThreadPool pool(2);
  const ThreadPoolStats before = pool.GetStats();
  EXPECT_EQ(before.regions, 0u);
  EXPECT_EQ(before.tasks_run, 0u);
  EXPECT_EQ(before.serial_degradations, 0u);

  ParallelForAt(pool, 100, 4, [](uint32_t) {});
  ParallelForAt(pool, 100, 4, [](uint32_t) {});
  const ThreadPoolStats after = pool.GetStats();
  EXPECT_EQ(after.regions, 2u);
  // Shard 0 runs inline on the caller; the rest are pool tasks.
  EXPECT_GE(after.tasks_run, 2u);
  EXPECT_EQ(after.serial_degradations, 0u);

  // A single-shard call never reaches the pool and counts nothing.
  ParallelForAt(pool, 100, 1, [](uint32_t) {});
  EXPECT_EQ(pool.GetStats().regions, 2u);
}

TEST(ThreadPoolTest, NestedRegionsCountAsSerialDegradations) {
  // The regression the stats exist to catch: parallel work accidentally
  // issued from inside a parallel region silently runs serial — the
  // counter makes that visible.
  ThreadPool pool(2);
  ParallelForAt(pool, 4, 4, [&](uint32_t) {
    ParallelForAt(pool, 4, 4, [](uint32_t) {});
  });
  const ThreadPoolStats stats = pool.GetStats();
  EXPECT_EQ(stats.serial_degradations, 4u);
  // Only the outer call was a real pool region.
  EXPECT_EQ(stats.regions, 1u);

  // Explicitly-serial inner loops (shards <= 1) are not degradations.
  ParallelForAt(pool, 4, 4, [&](uint32_t) {
    ParallelForAt(pool, 4, 1, [](uint32_t) {});
  });
  EXPECT_EQ(pool.GetStats().serial_degradations, 4u);
}

TEST(ThreadPoolTest, QueueWaitCollectionIsOffByDefaultAndGated) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.collect_queue_wait());
  ParallelForAt(pool, 64, 4, [](uint32_t) {});
  EXPECT_EQ(pool.GetStats().queue_wait_count, 0u);

  pool.set_collect_queue_wait(true);
  ParallelForAt(pool, 64, 4, [](uint32_t) {});
  pool.set_collect_queue_wait(false);
  const ThreadPoolStats stats = pool.GetStats();
  EXPECT_GT(stats.queue_wait_count, 0u);
  ASSERT_EQ(stats.queue_wait_ns_buckets.size(),
            ThreadPool::kQueueWaitBuckets);
  uint64_t bucket_sum = 0;
  for (uint64_t b : stats.queue_wait_ns_buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, stats.queue_wait_count);

  // Back off: no further samples accumulate.
  ParallelForAt(pool, 64, 4, [](uint32_t) {});
  EXPECT_EQ(pool.GetStats().queue_wait_count, stats.queue_wait_count);
}

TEST(ThreadPoolTest, WorkerIdsAreStableAndNonZeroOnWorkers) {
  // Worker threads get dense nonzero ids (the metrics shard key); the
  // caller thread reports 0 unless it is itself a pool worker.
  ThreadPool pool(3);
  std::vector<uint32_t> seen(64, 0);
  ParallelForAt(pool, 64, 64, [&](uint32_t i) {
    seen[i] = ThreadPool::CurrentWorkerId();
  });
  // Shard 0 ran inline on this thread; its id must match ours.
  EXPECT_EQ(seen[0], ThreadPool::CurrentWorkerId());
  bool any_worker = false;
  for (uint32_t id : seen) any_worker |= id != 0;
  EXPECT_TRUE(any_worker);
}

TEST(ThreadPoolTest, SlotWritesAreDeterministic) {
  // Every width, and every grain on either side of the inline boundary
  // (n < 2 x grain), writes the same slots as a serial loop.
  ThreadPool pool(4);
  auto run = [&](uint32_t n, uint32_t shards, uint32_t grain) {
    std::vector<uint64_t> out(n);
    ParallelForAt(pool, 
        n, shards,
        [&](uint32_t i) {
          out[i] = static_cast<uint64_t>(i) * 2654435761u + 7;
        },
        grain);
    return out;
  };
  for (uint32_t n : {127u, 128u, 129u, 1000u}) {
    const auto reference = run(n, 1, 1);
    for (uint32_t grain : {0u, 1u, 64u, 65u, 512u}) {
      for (uint32_t shards : {2u, 7u, 0u}) {
        EXPECT_EQ(run(n, shards, grain), reference)
            << "n " << n << " grain " << grain << " shards " << shards;
      }
    }
  }
}

TEST(ThreadPoolTest, RegionUnderTwoGrainsRunsOnTheCaller) {
  // n < 2 x grain leaves room for one shard only: the region runs
  // inline, wakes no worker, and counts neither a region nor a task.
  ThreadPool pool(3);
  const ThreadPoolStats before = pool.GetStats();
  const std::thread::id me = std::this_thread::get_id();
  for (uint32_t n : {1u, 63u, 127u}) {
    std::vector<std::thread::id> ran_on(n);
    ParallelForAt(pool, 
        n, 4, [&](uint32_t i) { ran_on[i] = std::this_thread::get_id(); },
        /*grain=*/64);
    for (const auto& id : ran_on) EXPECT_EQ(id, me) << "n " << n;
  }
  const ThreadPoolStats after = pool.GetStats();
  EXPECT_EQ(after.regions, before.regions);
  EXPECT_EQ(after.tasks_run, before.tasks_run);
}

TEST(ThreadPoolTest, RegionAboveTheGrainStillFansOut) {
  ThreadPool pool(3);
  // 128 items at grain 64: two shards, one of them a pool task.
  ParallelForAt(pool, 128, 4, [](uint32_t) {}, /*grain=*/64);
  ThreadPoolStats stats = pool.GetStats();
  EXPECT_EQ(stats.regions, 1u);
  EXPECT_EQ(stats.tasks_run, 1u);
  // 1024 items at grain 64 allow 16 shards; the width caps them at 4.
  ParallelForAt(pool, 1024, 4, [](uint32_t) {}, /*grain=*/64);
  stats = pool.GetStats();
  EXPECT_EQ(stats.regions, 2u);
  EXPECT_EQ(stats.tasks_run, 4u);
}

TEST(ThreadPoolTest, WidthScopesNestAndZeroInherits) {
  EXPECT_EQ(ThreadPool::CurrentWidth(), 0u);
  {
    const ScopedWidth outer(3);
    EXPECT_EQ(ThreadPool::CurrentWidth(), 3u);
    {
      const ScopedWidth inherit(0);
      EXPECT_EQ(ThreadPool::CurrentWidth(), 3u);
    }
    {
      const ScopedWidth serial(1);
      EXPECT_EQ(ThreadPool::CurrentWidth(), 1u);
    }
    EXPECT_EQ(ThreadPool::CurrentWidth(), 3u);
    // The width belongs to this thread alone.
    uint32_t other = 99;
    std::thread([&] { other = ThreadPool::CurrentWidth(); }).join();
    EXPECT_EQ(other, 0u);
  }
  EXPECT_EQ(ThreadPool::CurrentWidth(), 0u);
}

TEST(ThreadPoolTest, ShardsForIsCappedByWidthAndGrain) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.ShardsFor(1000), pool.DefaultShards());
  const ScopedWidth width(8);
  EXPECT_EQ(pool.ShardsFor(1000), 8u);  // An explicit width is uncapped.
  EXPECT_EQ(pool.ShardsFor(5), 5u);
  EXPECT_EQ(pool.ShardsFor(1000, 200), 5u);
  EXPECT_EQ(pool.ShardsFor(127, 64), 1u);
  EXPECT_EQ(pool.ShardsFor(0), 1u);
  EXPECT_EQ(pool.ShardsFor(1000, 0), 8u);  // Grain 0 reads as 1.
  // Inside a running region every plan is serial, as the region is.
  std::vector<uint32_t> nested(8, 0);
  pool.ParallelFor(8, [&](uint32_t i) { nested[i] = pool.ShardsFor(1000); });
  EXPECT_EQ(nested, std::vector<uint32_t>(8, 1u));
}

}  // namespace
}  // namespace hamlet
