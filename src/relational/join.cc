#include "relational/join.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/bloom.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "common/string_util.h"
#include "relational/join_internal.h"
#include "relational/radix_join.h"

namespace hamlet {

namespace {

obs::Counter& RowsBuiltCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("join.rows_built");
  return counter;
}

obs::Counter& RowsProbedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("join.rows_probed");
  return counter;
}

obs::Counter& RowsEmittedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("join.rows_emitted");
  return counter;
}

obs::Histogram& MaterializeLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("join.materialize_ns");
  return h;
}

// Lowest index for which a parallel work item reported failure, or
// UINT32_MAX. The min makes the reported error independent of thread
// count and timing.
class FirstFailure {
 public:
  void Report(uint32_t index) {
    uint32_t seen = index_.load(std::memory_order_relaxed);
    while (index < seen &&
           !index_.compare_exchange_weak(seen, index,
                                         std::memory_order_relaxed)) {
    }
  }
  uint32_t index() const { return index_.load(std::memory_order_relaxed); }
  bool failed() const { return index() != UINT32_MAX; }

 private:
  std::atomic<uint32_t> index_{UINT32_MAX};
};

// Records one join's cost-profile observation (only while collecting:
// the join's span is active exactly then). The total is the span's age,
// so it covers the whole operator.
void RecordCost(const char* op, const Table& probe, const Table& build,
                uint32_t rows_out, uint32_t distinct_keys,
                uint32_t num_threads, const obs::TraceSpan& span,
                obs::CostObservation cost) {
  if (!span.active()) return;
  obs::OperatorFeatures features;
  features.op = op;
  features.rows_in = probe.num_rows();
  features.rows_out = rows_out;
  features.build_rows = build.num_rows();
  features.distinct_keys = distinct_keys;
  features.num_threads = join_internal::ResolvedThreads(num_threads);
  cost.total_ns = span.ElapsedNanos();
  obs::CostProfileStore::Global().Record(features, cost);
}

}  // namespace

namespace join_internal {

uint32_t ResolvedThreads(uint32_t num_threads) {
  return num_threads == 0 ? ThreadPool::Global().DefaultShards()
                          : num_threads;
}

obs::Counter& ProbeSkippedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("join.probe_skipped");
  return counter;
}

obs::Histogram& BuildLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("join.build_ns");
  return h;
}

obs::Histogram& ProbeLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("join.probe_ns");
  return h;
}

obs::Histogram& PartitionLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("join.partition_ns");
  return h;
}

obs::Histogram& BloomBuildLatency() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("join.bloom_build_ns");
  return h;
}

void BeginHashJoin(obs::TraceSpan& span, const Table& left,
                   const Table& right, const char* algorithm) {
  if (span.active()) {
    span.AddAttr("rows_built", right.num_rows());
    span.AddAttr("rows_probed", left.num_rows());
    span.AddAttr("algorithm", algorithm);
  }
  RowsBuiltCounter().Add(right.num_rows());
  RowsProbedCounter().Add(left.num_rows());
}

Result<Table> FinishHashJoin(const char* op, const Table& left,
                             const Table& right, uint32_t r_idx,
                             const std::vector<uint32_t>& l_rows,
                             const std::vector<uint32_t>& r_rows,
                             const JoinOptions& options,
                             obs::TraceSpan& span, obs::CostObservation cost) {
  RowsEmittedCounter().Add(l_rows.size());
  if (span.active()) {
    span.AddAttr("rows_emitted", static_cast<uint64_t>(l_rows.size()));
  }
  for (uint32_t c = 0; c < right.num_columns(); ++c) {
    const std::string& name = right.schema().column(c).name;
    if (c != r_idx && left.schema().Contains(name)) {
      return Status::InvalidArgument(
          StringFormat("column name collision on '%s'", name.c_str()));
    }
  }
  std::vector<ColumnSpec> out_specs = left.schema().columns();
  std::vector<Column> out_cols;
  {
    obs::ScopedLatency latency(MaterializeLatency, &cost.materialize_ns);
    for (uint32_t c = 0; c < left.num_columns(); ++c) {
      out_cols.push_back(left.column(c).Gather(l_rows, options.num_threads));
    }
    for (uint32_t c = 0; c < right.num_columns(); ++c) {
      if (c == r_idx) continue;
      out_specs.push_back(right.schema().column(c));
      out_cols.push_back(right.column(c).Gather(r_rows, options.num_threads));
    }
  }
  Table result(left.name() + "_join_" + right.name(),
               Schema(std::move(out_specs)), std::move(out_cols));
  RecordCost(op, left, right, result.num_rows(),
             right.column(r_idx).domain_size(), options.num_threads, span,
             cost);
  return result;
}

}  // namespace join_internal

Result<std::vector<uint32_t>> BuildFkRowIndex(const Column& fk,
                                              const Column& rid) {
  std::vector<uint32_t> rid_to_row(fk.domain_size(), kNoFkRow);
  const DomainRemap remap(rid.domain(), fk.domain());
  for (uint32_t row = 0; row < rid.size(); ++row) {
    const uint32_t fk_code = remap[rid.code(row)];
    if (fk_code == DomainRemap::kNoCode) continue;  // Never referenced by S.
    if (fk_code >= rid_to_row.size()) continue;
    if (rid_to_row[fk_code] != kNoFkRow) {
      return Status::InvalidArgument(StringFormat(
          "duplicate RID '%s' in attribute table", rid.label(row).c_str()));
    }
    rid_to_row[fk_code] = row;
  }
  return rid_to_row;
}

std::vector<uint64_t> GroupCountByCode(const std::vector<uint32_t>& key_codes,
                                       uint32_t num_codes,
                                       const std::vector<uint32_t>& groups,
                                       uint32_t num_groups,
                                       const std::vector<uint32_t>& rows,
                                       uint32_t num_threads) {
  const size_t cells = static_cast<size_t>(num_codes) * num_groups;
  std::vector<uint64_t> counts(cells, 0);

  // Sharding only pays when the row subset dwarfs the table each shard
  // must allocate and merge; small inputs count serially.
  const uint32_t effective =
      num_threads == 0
          ? static_cast<uint32_t>(ThreadPool::Global().num_workers() + 1)
          : num_threads;
  const uint32_t max_shards =
      cells == 0 ? 1
                 : static_cast<uint32_t>(std::min<size_t>(
                       effective, std::max<size_t>(1, rows.size() / cells)));
  const uint32_t num_shards =
      rows.size() < (1u << 14) ? 1 : std::max(1u, max_shards);
  if (num_shards <= 1) {
    for (uint32_t r : rows) {
      ++counts[static_cast<size_t>(key_codes[r]) * num_groups + groups[r]];
    }
    return counts;
  }

  const size_t chunk = (rows.size() + num_shards - 1) / num_shards;
  std::vector<std::vector<uint64_t>> partial(num_shards);
  ParallelFor(num_shards, num_threads, [&](uint32_t shard) {
    const size_t begin = static_cast<size_t>(shard) * chunk;
    const size_t end = std::min(rows.size(), begin + chunk);
    std::vector<uint64_t>& local = partial[shard];
    local.assign(cells, 0);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t r = rows[i];
      ++local[static_cast<size_t>(key_codes[r]) * num_groups + groups[r]];
    }
  });
  // Serial shard-ordered merge; integer sums, so the result is identical
  // at any thread count.
  for (const std::vector<uint64_t>& local : partial) {
    for (size_t i = 0; i < cells; ++i) counts[i] += local[i];
  }
  return counts;
}

Result<Table> KfkJoin(const Table& s, const Table& r,
                      const std::string& fk_column,
                      const JoinOptions& options) {
  obs::TraceSpan span("join.kfk");
  if (span.active()) {
    span.AddAttr("entity", s.name());
    span.AddAttr("attribute_table", r.name());
    span.AddAttr("rows_built", r.num_rows());
    span.AddAttr("rows_probed", s.num_rows());
    span.AddAttr("algorithm", "csr");
  }
  RowsBuiltCounter().Add(r.num_rows());
  RowsProbedCounter().Add(s.num_rows());

  HAMLET_ASSIGN_OR_RETURN(uint32_t fk_idx, s.schema().IndexOf(fk_column));
  const ColumnSpec& fk_spec = s.schema().column(fk_idx);
  if (fk_spec.role != ColumnRole::kForeignKey) {
    return Status::InvalidArgument(StringFormat(
        "column '%s' of '%s' is not a foreign key", fk_column.c_str(),
        s.name().c_str()));
  }
  HAMLET_ASSIGN_OR_RETURN(uint32_t rid_idx, r.schema().PrimaryKeyIndex());

  // Phase timings feed both the join.*_ns histograms and the operator
  // cost profile.
  obs::CostObservation cost;
  const Column& fk = s.column(fk_idx);
  const Column& rid = r.column(rid_idx);
  std::vector<uint32_t> rid_to_row;
  {
    obs::ScopedLatency latency(join_internal::BuildLatency, &cost.build_ns);
    HAMLET_ASSIGN_OR_RETURN(rid_to_row, BuildFkRowIndex(fk, rid));
  }

  // Match every S row to its unique R row: a pure per-index gather, so
  // the probe shards freely. The lowest unmatched row (if any) names the
  // referential-integrity error, independent of thread count.
  std::vector<uint32_t> matched(s.num_rows());
  FirstFailure failure;
  {
    obs::ScopedLatency latency(join_internal::ProbeLatency, &cost.probe_ns);
    ParallelFor(s.num_rows(), options.num_threads, [&](uint32_t row) {
      const uint32_t m = rid_to_row[fk.code(row)];
      if (m == kNoFkRow) failure.Report(row);
      matched[row] = m;
    });
  }
  if (failure.failed()) {
    return Status::InvalidArgument(StringFormat(
        "referential integrity violation: FK value '%s' has no matching "
        "RID in '%s'",
        fk.label(failure.index()).c_str(), r.name().c_str()));
  }
  RowsEmittedCounter().Add(s.num_rows());
  if (span.active()) span.AddAttr("rows_emitted", s.num_rows());

  for (uint32_t c = 0; c < r.num_columns(); ++c) {
    const std::string& name = r.schema().column(c).name;
    // RID is represented by FK in the output.
    if (c != rid_idx && s.schema().Contains(name)) {
      return Status::InvalidArgument(StringFormat(
          "column name collision on '%s' between '%s' and '%s'",
          name.c_str(), s.name().c_str(), r.name().c_str()));
    }
  }
  std::vector<ColumnSpec> out_specs = s.schema().columns();
  std::vector<Column> out_cols;
  out_cols.reserve(s.num_columns() + r.num_columns() - 1);
  for (uint32_t c = 0; c < s.num_columns(); ++c) out_cols.push_back(s.column(c));
  {
    obs::ScopedLatency latency(MaterializeLatency, &cost.materialize_ns);
    for (uint32_t c = 0; c < r.num_columns(); ++c) {
      if (c == rid_idx) continue;
      out_specs.push_back(r.schema().column(c));
      out_cols.push_back(r.column(c).Gather(matched, options.num_threads));
    }
  }
  Table result(s.name() + "_join_" + r.name(), Schema(std::move(out_specs)),
               std::move(out_cols));
  RecordCost("join.kfk", s, r, result.num_rows(), fk.domain_size(),
             options.num_threads, span, cost);
  return result;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_column,
                       const std::string& right_column,
                       const JoinOptions& options) {
  if (options.algorithm != JoinAlgorithm::kCsr) {
    const Result<uint32_t> dispatch_idx = right.schema().IndexOf(right_column);
    if (dispatch_idx.ok() &&
        ResolveJoinAlgorithm(options, left.num_rows(), right.num_rows(),
                             right.column(*dispatch_idx).domain_size()) ==
            JoinAlgorithm::kRadix) {
      return RadixHashJoin(left, right, left_column, right_column, options);
    }
  }
  obs::TraceSpan span(kHashJoinOp);
  join_internal::BeginHashJoin(span, left, right, "csr");

  HAMLET_ASSIGN_OR_RETURN(uint32_t l_idx, left.schema().IndexOf(left_column));
  HAMLET_ASSIGN_OR_RETURN(uint32_t r_idx,
                          right.schema().IndexOf(right_column));
  const Column& lcol = left.column(l_idx);
  const Column& rcol = right.column(r_idx);
  obs::CostObservation cost;

  // Build side: a CSR-style counting sort of right rows by key code —
  // bucket k holds rows offsets[k]..offsets[k+1] in ascending row order
  // (the order the old per-key vectors accumulated). One allocation per
  // side, no hash map, no per-key vectors.
  const uint32_t n_buckets = rcol.domain_size();
  std::vector<uint32_t> offsets(n_buckets + 1, 0);
  std::vector<uint32_t> bucket_rows(right.num_rows());
  {
    obs::ScopedLatency latency(join_internal::BuildLatency, &cost.build_ns);
    for (uint32_t row = 0; row < right.num_rows(); ++row) {
      ++offsets[rcol.code(row) + 1];
    }
    for (uint32_t k = 0; k < n_buckets; ++k) offsets[k + 1] += offsets[k];
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (uint32_t row = 0; row < right.num_rows(); ++row) {
      bucket_rows[cursor[rcol.code(row)]++] = row;
    }
  }

  // Optional semi-join pre-filter: an L1-resident membership test that
  // lets selective probes skip both random offsets reads for rows whose
  // key the build side provably never saw.
  BlockedBloomFilter bloom;
  const bool use_bloom =
      ResolveBloomFilter(options.bloom, right.num_rows(), n_buckets);
  if (use_bloom) {
    obs::ScopedLatency latency(join_internal::BloomBuildLatency,
                               &cost.bloom_build_ns);
    bloom = BlockedBloomFilter::FromCodes(rcol.codes(), options.num_threads);
  }

  // Probe side: translate left codes into right codes once, then emit
  // matches in two deterministic passes — count matches per left row,
  // prefix-sum into output positions, write each row's slice. Output
  // order is left-row-major with right rows ascending, exactly the
  // label-keyed implementation's order.
  const DomainRemap remap(lcol.domain(), rcol.domain());
  const uint32_t n_left = left.num_rows();
  std::vector<uint32_t> l_rows, r_rows;
  // Bloom-skipped probe rows, counted per shard and only while
  // collecting: each shard writes its slot once, never a shared line
  // per row.
  const bool collect = span.active();
  const uint32_t shards = join_internal::ResolvedThreads(options.num_threads);
  const uint64_t chunk = (static_cast<uint64_t>(n_left) + shards - 1) / shards;
  std::vector<uint64_t> skipped(shards, 0);
  {
    obs::ScopedLatency latency(join_internal::ProbeLatency, &cost.probe_ns);
    std::vector<uint64_t> out_pos(n_left + 1, 0);
    ParallelFor(shards, options.num_threads, [&](uint32_t shard) {
      const uint64_t end = std::min<uint64_t>(n_left, (shard + 1) * chunk);
      uint64_t shard_skipped = 0;
      for (uint64_t row = shard * chunk; row < end; ++row) {
        const uint32_t rc = remap[lcol.code(static_cast<uint32_t>(row))];
        if (rc == DomainRemap::kNoCode) {
          out_pos[row + 1] = 0;
        } else if (use_bloom && !bloom.MayContain(rc)) {
          out_pos[row + 1] = 0;
          if (collect) ++shard_skipped;
        } else {
          out_pos[row + 1] = offsets[rc + 1] - offsets[rc];
        }
      }
      skipped[shard] = shard_skipped;
    });
    for (uint32_t row = 0; row < n_left; ++row) {
      out_pos[row + 1] += out_pos[row];
    }
    const uint64_t total = out_pos[n_left];
    l_rows.resize(total);
    r_rows.resize(total);
    ParallelFor(n_left, options.num_threads, [&](uint32_t row) {
      if (out_pos[row + 1] == out_pos[row]) return;
      const uint32_t rc = remap[lcol.code(row)];
      uint64_t pos = out_pos[row];
      for (uint32_t k = offsets[rc]; k < offsets[rc + 1]; ++k) {
        l_rows[pos] = row;
        r_rows[pos] = bucket_rows[k];
        ++pos;
      }
    });
  }
  if (use_bloom && collect) {
    const uint64_t n_skipped =
        std::accumulate(skipped.begin(), skipped.end(), uint64_t{0});
    join_internal::ProbeSkippedCounter().Add(n_skipped);
    span.AddAttr("probe_skipped", n_skipped);
  }
  return join_internal::FinishHashJoin(kHashJoinOp, left, right, r_idx,
                                       l_rows, r_rows, options, span, cost);
}

}  // namespace hamlet
