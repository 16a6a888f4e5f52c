#include "support.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNs()) / 1e9; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t i = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  return values[std::min(i, values.size() - 1)];
}

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_cpu_s = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.vol_ctx_switches = static_cast<double>(ru.ru_nvcsw);
  return u;
}

double ProcessCpuSeconds() {
  const ProcUsage u = ReadProcUsage();
  return u.user_cpu_s + u.sys_cpu_s;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f.is_open()) return false;
  f << "5";
  f.flush();
  return f.good();
}

namespace {

/// A "<key> <n> kB" line of /proc/self/status, in MiB.
double StatusMb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RssMb() { return StatusMb("VmRSS:"); }

void WriteHostFingerprint(hamlet::JsonWriter* w, uint64_t seed) {
  w->BeginObject();
  w->Key("nproc");
  w->UInt(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w->Key("hardware_concurrency");
  w->UInt(std::thread::hardware_concurrency());
  w->Key("cpu_model");
  w->String(CpuModel());
  // Data/unified caches of cpu0, by level ("L1d", "L2", "L3").
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadFirstLine(dir + "/level");
    if (level.empty()) break;
    const std::string type = ReadFirstLine(dir + "/type");
    if (type == "Instruction") continue;
    w->Key("cache_L" + level + (type == "Data" ? "d" : ""));
    w->String(ReadFirstLine(dir + "/size"));
  }
  utsname u{};
  uname(&u);
  w->Key("kernel");
  w->String(std::string(u.sysname) + " " + u.release);
  w->Key("build_type");
#ifdef NDEBUG
  w->String("release");
#else
  w->String("debug");
#endif
  w->Key("seed");
  w->UInt(seed);
  w->EndObject();
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = {value, unit};
}

double MetricSet::Get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.value;
}

void MetricSet::WriteJson(
    hamlet::JsonWriter* w,
    const std::function<bool(const std::string&)>& keep) const {
  w->BeginObject();
  for (const std::string& name : order_) {
    if (!keep(name)) continue;
    const Entry& e = entries_.at(name);
    w->Key(name);
    w->BeginObject();
    w->Key("value");
    w->Double(e.value);
    w->Key("unit");
    w->String(e.unit);
    w->EndObject();
  }
  w->EndObject();
}

bool Checker::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Checker::Count(uint64_t attempted, uint64_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu %s failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
  }
}

int32_t SpanRecorder::Begin(const std::string& name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t SpanRecorder::Add(const std::string& name, uint64_t start_ns,
                          uint64_t end_ns, int32_t parent) {
  spans_.push_back({name, start_ns, end_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanRecorder::Seconds(int32_t id) const {
  const Span& s = spans_[id];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

double SpanRecorder::SelfSeconds(int32_t id) const {
  double self = Seconds(id);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) self -= Seconds(static_cast<int32_t>(i));
  }
  return self;
}

hamlet::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return hamlet::Status::IOError("cannot open " + path);
  hamlet::JsonWriter w(out);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.UInt(1);
    w.Key("tid");
    w.UInt(1);
    w.Key("ts");
    w.Double(static_cast<double>(s.start_ns - origin) / 1e3);
    w.Key("dur");
    w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.UInt(i);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("self_s");
    w.Double(SelfSeconds(static_cast<int32_t>(i)));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << '\n';
  return out.good() ? hamlet::Status::OK()
                    : hamlet::Status::IOError("write failed: " + path);
}

}  // namespace perfbench
