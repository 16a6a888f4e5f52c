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
///    line, stamped with the caller's `seq`. RunPipeline and
///    hamlet_serve_cli append one line per run to a file, so the file is
///    an append-only log of runs. Every counter and histogram count is
///    cumulative within its collection window, so two lines written
///    from one window differ by the activity between them. Histogram
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
#include <ostream>
#include <string>

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

}  // namespace hamlet::obs

#endif  // HAMLET_OBS_EXPORTER_H_
