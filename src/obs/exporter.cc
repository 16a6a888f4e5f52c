#include "obs/exporter.h"

#include "common/json_writer.h"

namespace hamlet::obs {

namespace {

/// Prometheus metric name: hamlet_ prefix, dots to underscores (every
/// hamlet metric name is already [a-z0-9._]-safe).
std::string PromName(const std::string& name) {
  std::string out = "hamlet_";
  out.reserve(out.size() + name.size());
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

void WriteHistogramJson(JsonWriter& w, const HistogramSnapshot& h) {
  w.BeginObject();
  w.Key("count");
  w.UInt(h.count);
  w.Key("sum_ns");
  w.UInt(h.sum_nanos);
  w.Key("p50_ns");
  w.UInt(h.PercentileNanos(0.50));
  w.Key("p90_ns");
  w.UInt(h.PercentileNanos(0.90));
  w.Key("p99_ns");
  w.UInt(h.PercentileNanos(0.99));
  // Sparse buckets: [index, count] pairs for non-empty buckets only.
  // Indices are into the shared log-linear layout
  // (common/histogram_buckets.h); lower bound = BucketLowerBound(index).
  w.Key("buckets");
  w.BeginArray();
  for (uint32_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    w.BeginArray();
    w.UInt(b);
    w.UInt(h.buckets[b]);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteSnapshotJsonl(const MetricsSnapshot& snapshot,
                        const TraceSummary* summary, uint64_t seq,
                        std::ostream& os) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("seq");
  w.UInt(seq);
  w.Key("counters");
  w.BeginObject();
  for (const CounterSnapshot& c : snapshot.counters) {
    w.Key(c.name);
    w.UInt(c.value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    w.Key(h.name);
    WriteHistogramJson(w, h);
  }
  w.EndObject();
  if (summary != nullptr) {
    w.Key("stages");
    w.BeginArray();
    for (const StageStat& stage : summary->stages) {
      w.BeginObject();
      w.Key("name");
      w.String(stage.name);
      w.Key("depth");
      w.UInt(stage.depth);
      w.Key("count");
      w.UInt(stage.count);
      w.Key("total_seconds");
      w.Double(stage.total_seconds);
      w.Key("self_seconds");
      w.Double(stage.self_seconds);
      if (!stage.numeric_attrs.empty()) {
        w.Key("attrs");
        w.BeginObject();
        for (const auto& [key, value] : stage.numeric_attrs) {
          w.Key(key);
          w.Int(value);
        }
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  os << '\n';
}

void DumpPrometheusText(const MetricsSnapshot& snapshot, std::ostream& os) {
  for (const CounterSnapshot& c : snapshot.counters) {
    const std::string name = PromName(c.name);
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c.value << "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    // Histogram names end in _ns by convention; the exposition keeps
    // nanosecond units explicit rather than rescaling to seconds.
    const std::string name = PromName(h.name);
    os << "# TYPE " << name << " histogram\n";
    // Sparse cumulative buckets: emit an le edge only where the
    // cumulative count changes (plus the mandatory +Inf), otherwise the
    // 1408-bucket layout would dump 1408 lines per histogram.
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      const uint64_t upper = Histogram::BucketUpperBound(b);
      os << name << "_bucket{le=\"";
      if (upper == UINT64_MAX) {
        os << "+Inf";
      } else {
        // The bucket holds [lower, upper); the largest contained
        // integer value is upper - 1, which is the le edge.
        os << upper - 1;
      }
      os << "\"} " << cumulative << "\n";
    }
    if (h.buckets.empty() || cumulative == 0 ||
        h.buckets.back() == 0) {
      os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    }
    os << name << "_sum " << h.sum_nanos << "\n";
    os << name << "_count " << h.count << "\n";
  }
}

}  // namespace hamlet::obs
