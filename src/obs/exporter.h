#ifndef HAMLET_OBS_EXPORTER_H_
#define HAMLET_OBS_EXPORTER_H_

/// \file exporter.h
/// Structured metric export: turns a MetricsSnapshot (plus, optionally,
/// a TraceSummary) into machine-readable text so runs can be scraped and
/// diffed instead of eyeballed.
///
/// Two formats:
///
///  - JSONL: WriteSnapshotJsonl emits ONE JSON object per call, on one
///    line — a flush. A JsonlExporter appends successive flushes to a
///    stream/file, stamping each with a monotonically increasing `seq`,
///    so a long-running process (the serving loop) produces an
///    append-only log whose consecutive lines are directly diffable:
///    every counter and histogram count is cumulative, so line N+1
///    minus line N is the activity of that window. Histogram
///    buckets are emitted sparsely (index/count pairs for non-empty
///    buckets only — the log-linear layout has 1408 buckets, almost all
///    empty) along with precomputed p50/p90/p99.
///
///  - Prometheus text exposition: DumpPrometheusText renders the same
///    snapshot as `# TYPE`-annotated counter and histogram families
///    (cumulative `le` buckets, `_sum`, `_count`), names prefixed
///    `hamlet_` with dots mapped to underscores, for anything that
///    speaks the scrape format.
///
/// Both renderings are deterministic for a given snapshot: metrics are
/// emitted in sorted-name order and derived numbers are integers.

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace hamlet::obs {

/// Writes one snapshot as a single '\n'-terminated JSONL line.
/// `summary` adds a "stages" array (depth-first) when non-null; `seq`
/// stamps the line.
void WriteSnapshotJsonl(const MetricsSnapshot& snapshot,
                        const TraceSummary* summary, uint64_t seq,
                        std::ostream& os);

/// Renders a snapshot in the Prometheus text exposition format (see
/// \file block for the naming/bucket mapping).
void DumpPrometheusText(const MetricsSnapshot& snapshot, std::ostream& os);

/// Append-only JSONL metrics log: each Flush() writes one line with the
/// next sequence number. Open() truncates the target: a flush sequence
/// belongs to one process run. A caller that keeps one line per run
/// across runs (RunPipeline) appends WriteSnapshotJsonl to its own
/// stream instead.
class JsonlExporter {
 public:
  JsonlExporter() = default;

  JsonlExporter(const JsonlExporter&) = delete;
  JsonlExporter& operator=(const JsonlExporter&) = delete;

  /// Opens (truncates) the output file. Fails if unwritable.
  Status Open(const std::string& path);

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }
  uint64_t lines_written() const { return seq_; }

  /// Writes one snapshot line and flushes the stream so lines survive a
  /// crash. No-op (ok) when not open, so callers can flush
  /// unconditionally behind a config flag.
  Status Flush(const MetricsSnapshot& snapshot,
               const TraceSummary* summary = nullptr);

 private:
  std::ofstream out_;
  std::string path_;
  uint64_t seq_ = 0;
};

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_EXPORTER_H_
