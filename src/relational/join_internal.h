#ifndef HAMLET_RELATIONAL_JOIN_INTERNAL_H_
#define HAMLET_RELATIONAL_JOIN_INTERNAL_H_

/// \file join_internal.h
/// The join instrumentation and output tail shared by join.cc and
/// radix_join.cc. Everything here is defined once, in join.cc; not part
/// of the public API (hamlet.h does not export it).

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "obs/cost_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/join.h"
#include "relational/table.h"

namespace hamlet::join_internal {

/// Shards a join actually runs with (0 = pool default), recorded as a
/// cost-profile feature so timings calibrate against real parallelism.
uint32_t ResolvedThreads(uint32_t num_threads);

/// The join.* metrics every join path reports into, registered on first
/// use.
obs::Counter& ProbeSkippedCounter();
obs::Histogram& BuildLatency();
obs::Histogram& ProbeLatency();
obs::Histogram& PartitionLatency();
obs::Histogram& BloomBuildLatency();

/// Opening bookkeeping of a HashJoin path: the span's size attributes
/// (`algorithm` names the path) and the join.rows_built/rows_probed
/// counters.
void BeginHashJoin(obs::TraceSpan& span, const Table& left,
                   const Table& right, const char* algorithm);

/// The output tail of a HashJoin path, given its matches as parallel
/// (l_rows, r_rows) arrays: counts the emitted rows, rejects a right
/// column whose name collides with a left one, gathers the left columns
/// by `l_rows` and the right ones (minus key column `r_idx`) by
/// `r_rows`, and records the cost-profile observation under `op` with
/// the caller's phase timings in `cost`.
Result<Table> FinishHashJoin(const char* op, const Table& left,
                             const Table& right, uint32_t r_idx,
                             const std::vector<uint32_t>& l_rows,
                             const std::vector<uint32_t>& r_rows,
                             const JoinOptions& options,
                             obs::TraceSpan& span, obs::CostObservation cost);

}  // namespace hamlet::join_internal

#endif  // HAMLET_RELATIONAL_JOIN_INTERNAL_H_
