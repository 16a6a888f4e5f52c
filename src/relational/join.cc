#include "relational/join.h"

#include <algorithm>
#include <atomic>

#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "common/string_util.h"
#include "obs/cost_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"

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

// Shards a join actually runs with (0 = pool default), recorded as a
// cost-profile feature so timings calibrate against real parallelism.
uint32_t ResolvedThreads(uint32_t num_threads) {
  return num_threads == 0 ? ThreadPool::Global().DefaultShards()
                          : num_threads;
}

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
  features.num_threads = ResolvedThreads(num_threads);
  cost.total_ns = span.ElapsedNanos();
  obs::CostProfileStore::Global().Record(features, cost);
}

}  // namespace

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
    obs::ScopedLatency latency(BuildLatency, &cost.build_ns);
    HAMLET_ASSIGN_OR_RETURN(rid_to_row, BuildFkRowIndex(fk, rid));
  }

  // Match every S row to its unique R row: a pure per-index gather, so
  // the probe shards freely. The lowest unmatched row (if any) names the
  // referential-integrity error, independent of thread count.
  std::vector<uint32_t> matched(s.num_rows());
  FirstFailure failure;
  {
    obs::ScopedLatency latency(ProbeLatency, &cost.probe_ns);
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

}  // namespace hamlet
