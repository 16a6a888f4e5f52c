#ifndef HAMLET_PERFBENCH_SUPPORT_H_
#define HAMLET_PERFBENCH_SUPPORT_H_

/// \file support.h
/// The benchmark's own measurement plumbing: clocks, order statistics,
/// process counters (getrusage, VmHWM), the host fingerprint, the output
/// checker, and the benchmark-side span recorder. Nothing here reaches
/// into the library: layers are timed from outside, around public calls.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"

namespace perfbench {

/// Monotonic clock (steady_clock) in nanoseconds / seconds.
uint64_t NowNs();
double NowSeconds();

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// getrusage(RUSAGE_SELF) snapshot.
struct ProcUsage {
  double user_cpu_s = 0;
  double sys_cpu_s = 0;
  double vol_ctx_switches = 0;
};
ProcUsage ReadProcUsage();

/// User + system CPU seconds this process has used, all threads. Time
/// the hypervisor steals from a vCPU is not in it.
double ProcessCpuSeconds();

/// Hands the allocator's free pages back to the kernel (malloc_trim),
/// then resets the kernel's resident-set high-water mark to the current
/// RSS (writes 5 to /proc/self/clear_refs). False when the kernel refuses.
bool ResetPeakRss();

/// VmHWM / VmRSS of this process in MiB (0 when /proc is unreadable).
double PeakRssMb();
double RssMb();

/// Writes the host fingerprint object — nproc, CPU model, cache sizes,
/// kernel, build type, seed — so a result is never read against a run
/// from another machine.
void WriteHostFingerprint(hamlet::JsonWriter* w, uint64_t seed);

/// Named metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// Writes {"<name>": {"value": v, "unit": u}, ...}, in the order set,
  /// for every metric whose name `keep` accepts.
  void WriteJson(hamlet::JsonWriter* w,
                 const std::function<bool(const std::string&)>& keep) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Counts operations and failed output checks. Every check is one
/// attempted operation; a failed one is logged to stderr.
class Checker {
 public:
  /// Records one operation; returns `ok`.
  bool Expect(bool ok, const std::string& what);
  /// Records `attempted` operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Benchmark-side spans: name, start, end, parent. Kept in memory and
/// written once, at exit, as a Chrome trace_event file.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;
  };

  /// Opens a span under the innermost open one; returns its id.
  int32_t Begin(const std::string& name);
  void End(int32_t id);
  /// Records an already-measured child span of `parent`.
  int32_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int32_t parent);

  double Seconds(int32_t id) const;
  /// Duration minus the part its child spans cover.
  double SelfSeconds(int32_t id) const;
  hamlet::Status WriteChromeTrace(const std::string& path) const;

  /// RAII wrapper around Begin/End.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name)
        : recorder_(recorder), id_(recorder->Begin(name)) {}
    ~Scope() { recorder_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int32_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    int32_t id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // HAMLET_PERFBENCH_SUPPORT_H_
