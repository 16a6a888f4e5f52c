#ifndef HAMLET_RELATIONAL_RADIX_JOIN_H_
#define HAMLET_RELATIONAL_RADIX_JOIN_H_

/// \file radix_join.h
/// HashJoin's radix-partitioned path (JoinAlgorithm::kRadix) and the
/// cost-profile-driven algorithm choice behind JoinAlgorithm::kAuto.
/// KfkJoin has no radix path: it is a dense FK code -> R row gather, and
/// partitioning that gather measured slower than the plain CSR probe at
/// every FK domain size tried (docs/PERFORMANCE.md "Join algorithm
/// matrix").
///
/// The monolithic CSR join (join.cc) random-accesses two code-indexed
/// arrays per probe row; once the build side's code range outgrows the
/// last-level cache, every one of those accesses is a miss — on the
/// build pass as well as both probe passes. The radix path instead
/// splits the code range into contiguous sub-ranges of ~2^11 codes
/// (common/radix_partition.h): a deterministic two-pass scatter groups
/// the rows of each side by sub-range, and the CSR build + probe then
/// run per partition against an offsets slice small enough to stay
/// cache-resident. A blocked Bloom filter (common/bloom.h) built from
/// the build side's key codes optionally drops never-matching probe
/// rows before they are partitioned at all.
///
/// Determinism contract (tests/ingest_join_determinism_test.cc,
/// tests/radix_join_test.cc): output tables are bit-identical to
/// HashJoin's CSR path — same left-row-major order, right rows
/// ascending within a key — at every thread count and partition fanout,
/// and error reports are byte-identical too.
///
/// Telemetry: phase timings land in the join.partition_ns /
/// join.bloom_build_ns histograms and rows the pre-filter drops in the
/// join.probe_skipped counter; whole-operator observations are recorded
/// under the cost-profile operator key kRadixJoinOp — the records kAuto
/// reads back on later runs (docs/OBSERVABILITY.md).

#include <cstdint>
#include <string>

#include "common/result.h"
#include "relational/join.h"
#include "relational/table.h"

namespace hamlet {

/// Cost-profile operator keys of HashJoin's two paths, the pair kAuto
/// ranks. kHashJoinOp also names both paths' trace span.
inline constexpr char kHashJoinOp[] = "join.hash";
inline constexpr char kRadixJoinOp[] = "join.radix";

/// kAuto thresholds for the no-profile fallback heuristic: radix pays
/// once the build side's code range (≈ 4 bytes of CSR offsets per code)
/// and the probe side both leave cache-resident scale.
inline constexpr uint64_t kRadixAutoMinDistinctKeys = 1u << 15;
inline constexpr uint64_t kRadixAutoMinProbeRows = 1u << 15;

/// Resolves options.algorithm to a concrete kCsr/kRadix choice for one
/// HashJoin. Explicit choices pass through. For kAuto: if the
/// cost-profile store holds measured per-probe-row costs for both
/// kHashJoinOp and kRadixJoinOp near this build size at the join's
/// resolved thread count (live window first, then the seeded calibration
/// profile — see CostProfileStore::SeedCalibrationFromFile), the cheaper
/// one wins; otherwise the size heuristic above decides.
JoinAlgorithm ResolveJoinAlgorithm(const JoinOptions& options,
                                   uint64_t probe_rows, uint64_t build_rows,
                                   uint64_t distinct_keys);

/// Resolves a BloomFilterMode to a concrete on/off decision. kAuto turns
/// the filter on exactly when the build side cannot cover its key domain
/// (build_rows * 2 < distinct_keys) — when every probe row could match,
/// a pre-filter can only cost. Shared by HashJoin's CSR and radix paths
/// so kAuto behaves identically under either algorithm.
bool ResolveBloomFilter(BloomFilterMode mode, uint64_t build_rows,
                        uint64_t distinct_keys);

/// HashJoin's radix path: same contract, same output, same errors as
/// HashJoin (join.h); callers normally reach it via
/// JoinOptions::algorithm rather than directly.
Result<Table> RadixHashJoin(const Table& left, const Table& right,
                            const std::string& left_column,
                            const std::string& right_column,
                            const JoinOptions& options = {});

}  // namespace hamlet

#endif  // HAMLET_RELATIONAL_RADIX_JOIN_H_
