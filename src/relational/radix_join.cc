#include "relational/radix_join.h"

#include <algorithm>
#include <vector>

#include "common/bloom.h"
#include "common/parallel_for.h"
#include "common/radix_partition.h"
#include "relational/join_internal.h"

namespace hamlet {

bool ResolveBloomFilter(BloomFilterMode mode, uint64_t build_rows,
                        uint64_t distinct_keys) {
  switch (mode) {
    case BloomFilterMode::kOn:
      return true;
    case BloomFilterMode::kOff:
      return false;
    case BloomFilterMode::kAuto:
      break;
  }
  // Worth it only when the build side cannot cover its key domain, so
  // probe misses are certain to exist; FK-shaped joins (every probe
  // matches) keep the filter off and pay nothing.
  return build_rows * 2 < distinct_keys;
}

JoinAlgorithm ResolveJoinAlgorithm(const JoinOptions& options,
                                   uint64_t probe_rows, uint64_t build_rows,
                                   uint64_t distinct_keys) {
  if (options.algorithm != JoinAlgorithm::kAuto) return options.algorithm;
  const auto& store = obs::CostProfileStore::Global();
  const uint32_t threads =
      join_internal::ResolvedThreads(options.num_threads);
  const double csr_ns =
      store.MeanNsPerProbeRow(kHashJoinOp, build_rows, threads);
  const double radix_ns =
      store.MeanNsPerProbeRow(kRadixJoinOp, build_rows, threads);
  if (csr_ns > 0.0 && radix_ns > 0.0) {
    return radix_ns < csr_ns ? JoinAlgorithm::kRadix : JoinAlgorithm::kCsr;
  }
  return distinct_keys >= kRadixAutoMinDistinctKeys &&
                 probe_rows >= kRadixAutoMinProbeRows
             ? JoinAlgorithm::kRadix
             : JoinAlgorithm::kCsr;
}

Result<Table> RadixHashJoin(const Table& left, const Table& right,
                            const std::string& left_column,
                            const std::string& right_column,
                            const JoinOptions& options) {
  obs::TraceSpan span(kHashJoinOp);
  join_internal::BeginHashJoin(span, left, right, "radix");

  HAMLET_ASSIGN_OR_RETURN(uint32_t l_idx, left.schema().IndexOf(left_column));
  HAMLET_ASSIGN_OR_RETURN(uint32_t r_idx,
                          right.schema().IndexOf(right_column));
  const Column& lcol = left.column(l_idx);
  const Column& rcol = right.column(r_idx);
  obs::CostObservation cost;

  const uint32_t n_buckets = rcol.domain_size();
  const RadixLayout lay = MakeRadixLayout(n_buckets, options.radix_bits);
  const uint32_t sub_mask = lay.sub_count - 1;

  BlockedBloomFilter bloom;
  const bool use_bloom =
      ResolveBloomFilter(options.bloom, right.num_rows(), n_buckets);
  if (use_bloom) {
    obs::ScopedLatency latency(join_internal::BloomBuildLatency,
                               &cost.bloom_build_ns);
    bloom = BlockedBloomFilter::FromCodes(rcol.codes(), options.num_threads);
  }

  // Partition both sides into the same code sub-ranges. Each entry
  // carries its row's code, so the per-partition passes below read codes
  // sequentially instead of chasing scattered row ids back into the
  // column (which would re-pay the monolithic CSR's cache miss per row).
  // On the probe side, rows the pre-filter rejects are dropped first.
  // DomainRemap::kNoCode doubles as kRadixSkipCode, so a remapped-code
  // array is already in PartitionByCode's input form; when the domains
  // are shared and nothing is pre-filtered, the column's own code array
  // is, and the remap pass disappears entirely.
  const DomainRemap remap(lcol.domain(), rcol.domain());
  const uint32_t n_left = left.num_rows();
  RadixPartitions rparts;
  RadixPartitions lparts;
  {
    obs::ScopedLatency latency(join_internal::PartitionLatency,
                               &cost.partition_ns);
    rparts = PartitionByCode(rcol.codes(), lay.shift, lay.num_partitions,
                             options.num_threads);
    if (remap.identity() && !use_bloom) {
      lparts = PartitionByCode(lcol.codes(), lay.shift, lay.num_partitions,
                               options.num_threads);
    } else if (remap.identity()) {
      // Shared domain + Bloom: the pre-filter's verdicts fit in one bit
      // per row, so hand the partitioner a keep-bitmap over the column's
      // own code array instead of rewriting a full uint32 code copy —
      // the filter's whole point is touching less memory per dropped
      // row. Each parallel work item owns whole 64-bit words, so no two
      // threads write the same word.
      const std::vector<uint32_t>& codes = lcol.codes();
      std::vector<uint64_t> keep((n_left + 63) / 64);
      ParallelFor(static_cast<uint32_t>(keep.size()), options.num_threads,
                  [&](uint32_t word) {
                    const uint32_t begin = word * 64;
                    const uint32_t end = std::min(n_left, begin + 64);
                    uint64_t bits = 0;
                    for (uint32_t row = begin; row < end; ++row) {
                      const uint32_t c = codes[row];
                      if (c != Domain::kNoCode && bloom.MayContain(c)) {
                        bits |= uint64_t{1} << (row - begin);
                      }
                    }
                    keep[word] = bits;
                  });
      lparts = PartitionByCodeMasked(codes, keep, lay.shift,
                                     lay.num_partitions, options.num_threads);
    } else {
      std::vector<uint32_t> rc(n_left);
      ParallelFor(n_left, options.num_threads, [&](uint32_t row) {
        const uint32_t c = remap[lcol.code(row)];
        rc[row] = c != DomainRemap::kNoCode && use_bloom &&
                          !bloom.MayContain(c)
                      ? kRadixSkipCode
                      : c;
      });
      lparts = PartitionByCode(rc, lay.shift, lay.num_partitions,
                               options.num_threads);
    }
  }

  // Build side: a CSR per partition. Bucket (p, sub) holds exactly the
  // rows of code p * sub_count + sub in ascending row order — the
  // monolithic CSR's bucket for that code. Partition p's sub-range
  // offsets live at offsets[p * stride] (values relative to the
  // partition's slice of rparts), its rows at rows[rparts.offsets[p]..].
  // Stride sub_count + 2 makes room for the destructive-cursor trick:
  // counts land at off[sub + 2], the prefix sum turns off[k + 1] into
  // bucket k's start, and the scatter's off[sub + 1]++ walks each
  // cursor forward until it equals the NEXT bucket's start — leaving
  // off[k] = bucket k's start and off[k + 1] = its end, exactly the
  // probe's read layout, without a separate cursor copy of the offsets.
  const size_t stride = static_cast<size_t>(lay.sub_count) + 2;
  std::vector<uint32_t> offsets;
  // Default-initialized storage: the per-partition counting sorts tile
  // [0, n) exactly, so every slot is written before it is read.
  std::vector<uint32_t, UninitAllocator<uint32_t>> rows;
  {
    obs::ScopedLatency latency(join_internal::BuildLatency, &cost.build_ns);
    offsets.assign(static_cast<size_t>(lay.num_partitions) * stride, 0);
    rows.resize(right.num_rows());
    ParallelFor(lay.num_partitions, options.num_threads, [&](uint32_t p) {
      uint32_t* off = &offsets[p * stride];
      const uint32_t begin = rparts.offsets[p];
      const uint32_t end = rparts.offsets[p + 1];
      for (uint32_t i = begin; i < end; ++i) {
        ++off[(RadixEntryCode(rparts.entries[i]) & sub_mask) + 2];
      }
      for (uint32_t k = 0; k < lay.sub_count; ++k) off[k + 2] += off[k + 1];
      for (uint32_t i = begin; i < end; ++i) {
        const uint64_t e = rparts.entries[i];
        rows[begin + off[(RadixEntryCode(e) & sub_mask) + 1]++] =
            RadixEntryRow(e);
      }
    });
  }

  const uint64_t skipped = n_left - lparts.entries.size();
  join_internal::ProbeSkippedCounter().Add(skipped);
  if (span.active()) span.AddAttr("probe_skipped", skipped);

  // Probe in three deterministic passes that reproduce the monolithic
  // CSR path's left-row-major output exactly. Within a partition,
  // consecutive entries sit ~fanout rows apart, so the row-indexed
  // scatters below walk their arrays in ascending page order instead of
  // jumping randomly.
  std::vector<uint32_t> l_rows, r_rows;
  {
    obs::ScopedLatency latency(join_internal::ProbeLatency, &cost.probe_ns);
    if (lparts.entries.size() * 8 < n_left) {
      // Sparse path: the pre-filter (or a disjoint key domain) dropped
      // most probe rows, so the dense path's row-indexed count and
      // prefix-sum arrays — which cost a fixed sweep per LEFT row no
      // matter how few survive — would dominate. Collect the surviving
      // matches, order them by left row (rows are unique across
      // partitions, so a plain sort reproduces the dense path's
      // left-row-major output exactly), and emit serially.
      struct Match {
        uint32_t row;
        uint32_t start;  // Global index into rows.
        uint32_t count;
      };
      std::vector<Match> ms;
      ms.reserve(lparts.entries.size());
      for (uint32_t p = 0; p < lay.num_partitions; ++p) {
        const uint32_t* off = &offsets[p * stride];
        const uint32_t rbase = rparts.offsets[p];
        const uint32_t begin = lparts.offsets[p];
        const uint32_t end = lparts.offsets[p + 1];
        for (uint32_t i = begin; i < end; ++i) {
          const uint64_t entry = lparts.entries[i];
          const uint32_t sub = RadixEntryCode(entry) & sub_mask;
          const uint32_t b = off[sub];
          const uint32_t e = off[sub + 1];
          if (b == e) continue;
          ms.push_back(Match{RadixEntryRow(entry), rbase + b, e - b});
        }
      }
      std::sort(ms.begin(), ms.end(),
                [](const Match& a, const Match& b) { return a.row < b.row; });
      uint64_t total = 0;
      for (const Match& m : ms) total += m.count;
      l_rows.resize(total);
      r_rows.resize(total);
      uint64_t pos = 0;
      for (const Match& m : ms) {
        for (uint32_t k = 0; k < m.count; ++k) {
          l_rows[pos] = m.row;
          r_rows[pos] = rows[m.start + k];
          ++pos;
        }
      }
    } else {
      // Pass 1: per-partition bucket lookup against the partition's own
      // cache-resident offsets slice, recording each left row's match
      // count.
      std::vector<uint32_t> cnt(n_left, 0);
      ParallelFor(lay.num_partitions, options.num_threads, [&](uint32_t p) {
        const uint32_t* off = &offsets[p * stride];
        const uint32_t begin = lparts.offsets[p];
        const uint32_t end = lparts.offsets[p + 1];
        for (uint32_t i = begin; i < end; ++i) {
          const uint64_t entry = lparts.entries[i];
          const uint32_t sub = RadixEntryCode(entry) & sub_mask;
          cnt[RadixEntryRow(entry)] = off[sub + 1] - off[sub];
        }
      });
      // Pass 2: row-ordered prefix sum fixes every match's output
      // position.
      std::vector<uint64_t, UninitAllocator<uint64_t>> out_pos;
      out_pos.resize(n_left + 1);
      out_pos[0] = 0;
      for (uint32_t row = 0; row < n_left; ++row) {
        out_pos[row + 1] = out_pos[row] + cnt[row];
      }
      const uint64_t total = out_pos[n_left];
      l_rows.resize(total);
      r_rows.resize(total);
      // Pass 3: per-partition emit. Each matched row owns a disjoint
      // output range, and the right rows it copies live in the
      // partition's own rows slice — the gather that costs a random
      // full-array access per output row in the monolithic path stays
      // inside the partition's cache-resident window here.
      ParallelFor(lay.num_partitions, options.num_threads, [&](uint32_t p) {
        const uint32_t* off = &offsets[p * stride];
        const uint32_t rbase = rparts.offsets[p];
        const uint32_t begin = lparts.offsets[p];
        const uint32_t end = lparts.offsets[p + 1];
        for (uint32_t i = begin; i < end; ++i) {
          const uint64_t entry = lparts.entries[i];
          const uint32_t row = RadixEntryRow(entry);
          const uint32_t sub = RadixEntryCode(entry) & sub_mask;
          const uint32_t b = off[sub];
          const uint32_t e = off[sub + 1];
          uint64_t pos = out_pos[row];
          for (uint32_t k = b; k < e; ++k) {
            l_rows[pos] = row;
            r_rows[pos] = rows[rbase + k];
            ++pos;
          }
        }
      });
    }
  }
  return join_internal::FinishHashJoin(kRadixJoinOp, left, right, r_idx,
                                       l_rows, r_rows, options, span, cost);
}

}  // namespace hamlet
