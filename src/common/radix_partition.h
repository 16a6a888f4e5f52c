#ifndef HAMLET_COMMON_RADIX_PARTITION_H_
#define HAMLET_COMMON_RADIX_PARTITION_H_

/// \file radix_partition.h
/// Deterministic two-pass parallel radix partitioning — the kernel under
/// the radix join path (relational/radix_join.h). Rows are split into
/// contiguous per-shard ranges; pass one builds a histogram per shard,
/// a serial partition-major/shard-minor prefix sum assigns every
/// (partition, shard) pair its output slice, and pass two scatters rows
/// into those slices in shard order.
///
/// Determinism contract: a shard's rows are an ascending contiguous row
/// range and the scatter preserves within-shard order, so each
/// partition's entries come out in ascending original-row order at ANY
/// shard count — the partitioned layout is a pure function of the
/// input, which is what lets the radix joins reproduce the monolithic
/// CSR join's output bit for bit (tests/ingest_join_determinism_test.cc).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hamlet {

/// std::vector value-initializes on resize — at join scale that memset
/// is a full extra memory sweep over arrays a scatter is about to
/// overwrite anyway. This allocator default-initializes instead
/// (primitive elements stay uninitialized), safe only for arrays whose
/// every slot is written before it is read, which the partitioner's
/// histogram/prefix-sum bookkeeping guarantees by construction.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Key code meaning "drop this row" (e.g. a probe row the Bloom
/// pre-filter proved can never match). Equal to Domain::kNoCode on
/// purpose: a probe row whose label is absent from the build domain is
/// already carrying its own skip marker.
inline constexpr uint32_t kRadixSkipCode = UINT32_MAX;

/// A partitioned row is one packed entry: row id in the high 32 bits,
/// key code in the low 32. Packing matters twice over. The scatter
/// keeps one live write stream per partition instead of two — and with
/// 4 KB pages the active-stream count is exactly what the L1 DTLB
/// bounds, so halving it roughly halves the partitioning cost. And
/// because the row id sits in the HIGH bits, entries within a partition
/// compare as plain uint64s in original-row order.
inline constexpr uint64_t RadixPackEntry(uint32_t row, uint32_t code) {
  return (static_cast<uint64_t>(row) << 32) | code;
}
inline constexpr uint32_t RadixEntryRow(uint64_t entry) {
  return static_cast<uint32_t>(entry >> 32);
}
inline constexpr uint32_t RadixEntryCode(uint64_t entry) {
  return static_cast<uint32_t>(entry);
}

/// CSR-style partitioned row layout: partition p holds
/// entries[offsets[p] .. offsets[p+1]], ascending by original row.
/// Carrying the key code inside each entry keeps the joins'
/// per-partition passes fully sequential — re-reading codes through the
/// scattered row ids would pay the very cache miss per row the radix
/// layout exists to avoid.
struct RadixPartitions {
  std::vector<uint32_t> offsets;  ///< num_partitions + 1 entries.
  /// One packed entry per kept row; default-initialized storage because
  /// the scatter writes every slot exactly once.
  std::vector<uint64_t, UninitAllocator<uint64_t>> entries;
};

/// Scatters rows [0, code_of_row.size()) into partitions by
/// code_of_row[i] >> shift; rows whose code is kRadixSkipCode appear in
/// no partition. Every non-skip code must satisfy
/// code >> shift < num_partitions. `num_threads` = 0 uses the pool
/// default, 1 is serial; the layout is identical either way.
RadixPartitions PartitionByCode(const std::vector<uint32_t>& code_of_row,
                                uint32_t shift, uint32_t num_partitions,
                                uint32_t num_threads);

/// PartitionByCode with a keep-bitmap: row i survives only when bit
/// i of `keep` (word i/64, bit i%64) is set. Lets a pre-filter (e.g.
/// the Bloom semi-join) hand over one BIT per row instead of
/// rewriting a full code array — at join scale the difference is a
/// ~64x smaller side channel that stays cache-resident. `keep` must
/// hold ceil(n/64) words; codes of kept rows must be valid (not
/// kRadixSkipCode).
RadixPartitions PartitionByCodeMasked(
    const std::vector<uint32_t>& code_of_row,
    const std::vector<uint64_t>& keep, uint32_t shift,
    uint32_t num_partitions, uint32_t num_threads);

/// How a radix join splits a key-code range of `domain_size` codes into
/// contiguous sub-ranges: partition(c) = c >> shift, sub-key(c) =
/// c & (sub_count - 1). Contiguous ranges (high bits, not low) keep each
/// partition's slice of a code-indexed array (the per-partition CSR
/// offsets) contiguous and cache-resident.
struct RadixLayout {
  uint32_t shift = 0;           ///< Sub-key bits.
  uint32_t num_partitions = 1;  ///< ceil(domain_size / 2^shift), >= 1.
  uint32_t sub_count = 1;       ///< Codes per partition = 2^shift.
};

/// `radix_bits` is the requested log2 partition fanout (0 = auto: size
/// partitions at ~2^11 codes so a partition's CSR offsets slice stays
/// ~8 KB, but cap the fanout at 2^5 partitions — each partition is one
/// live write stream during the scatter, and once the stream count
/// outruns the L1 DTLB the partitioning pass goes TLB-bound, costing
/// more than the smaller sub-ranges save). Requests larger than the
/// code range clamp to one code per partition; the layout — like the
/// join output — only changes cache behaviour, never results.
RadixLayout MakeRadixLayout(uint32_t domain_size, uint32_t radix_bits);

}  // namespace hamlet

#endif  // HAMLET_COMMON_RADIX_PARTITION_H_
