#ifndef HAMLET_COMMON_PARALLEL_FOR_H_
#define HAMLET_COMMON_PARALLEL_FOR_H_

/// \file parallel_for.h
/// Deterministic data-parallel loops for the library's hot paths (feature
/// selection search steps, filter scoring, tree and GBT node loops, the
/// join, CSV ingest, Monte Carlo training loops). Work items are indexed,
/// each item writes only its own slot, and each item derives any
/// randomness from its index — so the result is bit-for-bit identical at
/// any width.
///
/// A loop takes no width: it reads the run's, which the run's entry
/// point set once with a ScopedWidth (common/thread_pool.h). `grain` is
/// the fewest items worth one shard; a loop shorter than two grains never
/// leaves the calling thread. Calls dispatch onto the process-wide
/// persistent ThreadPool instead of spawning threads per call, nested
/// calls degrade to serial loops (see the pool's nesting contract), and
/// an exception thrown by a work item is captured and rethrown on the
/// calling thread — the lowest-indexed shard's exception wins,
/// deterministically.

#include <cstdint>
#include <utility>

#include "common/thread_pool.h"

namespace hamlet {

/// Runs fn(i) for i in [0, n) on the shared pool, at the current width,
/// in shards of at least `grain` items; a region under two grains runs
/// inline on the caller. fn must be safe to call concurrently for
/// distinct indices. Blocks until every item completes; rethrows the
/// first (lowest-shard) work-item exception.
template <typename Fn>
void ParallelFor(uint32_t n, Fn&& fn, uint32_t grain = 1) {
  ThreadPool::Global().ParallelFor(n, std::forward<Fn>(fn), grain);
}

}  // namespace hamlet

#endif  // HAMLET_COMMON_PARALLEL_FOR_H_
