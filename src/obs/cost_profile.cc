#include "obs/cost_profile.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/string_util.h"

namespace hamlet::obs {

namespace fs = std::filesystem;

std::string OperatorFeatures::Key() const {
  return StringFormat(
      "%s|%llu|%llu|%llu|%llu|%u|%u", op.c_str(),
      static_cast<unsigned long long>(rows_in),
      static_cast<unsigned long long>(rows_out),
      static_cast<unsigned long long>(build_rows),
      static_cast<unsigned long long>(distinct_keys), num_threads, shards);
}

void CostRecord::Add(const CostObservation& obs) {
  if (observations == 0) {
    total_ns_min = obs.total_ns;
    total_ns_max = obs.total_ns;
  } else {
    total_ns_min = std::min(total_ns_min, obs.total_ns);
    total_ns_max = std::max(total_ns_max, obs.total_ns);
  }
  ++observations;
  total_ns_sum += obs.total_ns;
  build_ns_sum += obs.build_ns;
  probe_ns_sum += obs.probe_ns;
  materialize_ns_sum += obs.materialize_ns;
  partition_ns_sum += obs.partition_ns;
  bloom_build_ns_sum += obs.bloom_build_ns;
}

void CostRecord::Merge(const CostRecord& other) {
  if (other.observations == 0) return;
  if (observations == 0) {
    total_ns_min = other.total_ns_min;
    total_ns_max = other.total_ns_max;
  } else {
    total_ns_min = std::min(total_ns_min, other.total_ns_min);
    total_ns_max = std::max(total_ns_max, other.total_ns_max);
  }
  observations += other.observations;
  total_ns_sum += other.total_ns_sum;
  build_ns_sum += other.build_ns_sum;
  probe_ns_sum += other.probe_ns_sum;
  materialize_ns_sum += other.materialize_ns_sum;
  partition_ns_sum += other.partition_ns_sum;
  bloom_build_ns_sum += other.bloom_build_ns_sum;
}

void CostProfile::Add(const OperatorFeatures& features,
                      const CostObservation& obs) {
  CostRecord& record = records_[features.Key()];
  if (record.observations == 0) record.features = features;
  record.Add(obs);
}

void CostProfile::Merge(const CostProfile& other) {
  for (const auto& [key, record] : other.records_) {
    auto it = records_.find(key);
    if (it == records_.end()) {
      records_.emplace(key, record);
    } else {
      it->second.Merge(record);
    }
  }
}

void CostProfile::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("hamlet_cost_profile_version");
  w.Int(kSchemaVersion);
  w.Key("operators");
  w.BeginObject();
  for (const auto& [key, r] : records_) {
    w.Key(key);
    w.BeginObject();
    w.Key("op");
    w.String(r.features.op);
    w.Key("rows_in");
    w.UInt(r.features.rows_in);
    w.Key("rows_out");
    w.UInt(r.features.rows_out);
    w.Key("build_rows");
    w.UInt(r.features.build_rows);
    w.Key("distinct_keys");
    w.UInt(r.features.distinct_keys);
    w.Key("num_threads");
    w.UInt(r.features.num_threads);
    w.Key("shards");
    w.UInt(r.features.shards);
    w.Key("observations");
    w.UInt(r.observations);
    w.Key("total_ns_sum");
    w.UInt(r.total_ns_sum);
    w.Key("total_ns_min");
    w.UInt(r.total_ns_min);
    w.Key("total_ns_max");
    w.UInt(r.total_ns_max);
    w.Key("build_ns_sum");
    w.UInt(r.build_ns_sum);
    w.Key("probe_ns_sum");
    w.UInt(r.probe_ns_sum);
    w.Key("materialize_ns_sum");
    w.UInt(r.materialize_ns_sum);
    w.Key("partition_ns_sum");
    w.UInt(r.partition_ns_sum);
    w.Key("bloom_build_ns_sum");
    w.UInt(r.bloom_build_ns_sum);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  os << '\n';
}

Status CostProfile::SaveToFile(const std::string& path) const {
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::IOError(StringFormat(
          "cannot create cost-profile directory: %s", path.c_str()));
    }
  }
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError(StringFormat(
          "cannot open cost-profile tmp file: %s", tmp_path.c_str()));
    }
    WriteJson(out);
    out.flush();
    if (!out.good()) {
      return Status::IOError(
          StringFormat("cost-profile write failed: %s", tmp_path.c_str()));
    }
  }
  fs::rename(tmp_path, target, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::IOError(StringFormat(
        "cannot publish cost profile: rename to %s failed", path.c_str()));
  }
  return Status::OK();
}

Status CostProfile::ParseJsonText(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error)) {
    return Status::InvalidArgument("cost profile: " + error);
  }
  const JsonValue* version = doc.Find("hamlet_cost_profile_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument(
        "cost profile: missing hamlet_cost_profile_version");
  }
  if (version->AsInt() > kSchemaVersion) {
    return Status::InvalidArgument(StringFormat(
        "cost profile: schema version %lld is newer than supported %d",
        static_cast<long long>(version->AsInt()), kSchemaVersion));
  }
  const JsonValue* operators = doc.Find("operators");
  if (operators == nullptr || !operators->is_object()) {
    return Status::InvalidArgument(
        "cost profile: missing 'operators' object");
  }
  std::map<std::string, CostRecord> records;
  for (const auto& [key, value] : operators->AsObject()) {
    if (!value.is_object()) {
      return Status::InvalidArgument(
          StringFormat("cost profile: record '%s' is not an object",
                       key.c_str()));
    }
    const auto field = [&value](const char* name) -> uint64_t {
      const JsonValue* v = value.Find(name);
      return v == nullptr ? 0 : v->AsUInt();
    };
    CostRecord r;
    const JsonValue* op = value.Find("op");
    r.features.op = op != nullptr ? op->AsString() : "";
    r.features.rows_in = field("rows_in");
    r.features.rows_out = field("rows_out");
    r.features.build_rows = field("build_rows");
    r.features.distinct_keys = field("distinct_keys");
    r.features.num_threads = static_cast<uint32_t>(field("num_threads"));
    // Absent in pre-shard files (schema v1 kept): defaults to 0.
    r.features.shards = static_cast<uint32_t>(field("shards"));
    r.observations = field("observations");
    r.total_ns_sum = field("total_ns_sum");
    r.total_ns_min = field("total_ns_min");
    r.total_ns_max = field("total_ns_max");
    r.build_ns_sum = field("build_ns_sum");
    r.probe_ns_sum = field("probe_ns_sum");
    r.materialize_ns_sum = field("materialize_ns_sum");
    // Absent in pre-radix files (schema v1 kept): they default to 0.
    r.partition_ns_sum = field("partition_ns_sum");
    r.bloom_build_ns_sum = field("bloom_build_ns_sum");
    // Re-derive the key from the parsed features rather than trusting
    // the file: a hand-edited key would silently split records.
    records.emplace(r.features.Key(), std::move(r));
  }
  records_ = std::move(records);
  return Status::OK();
}

double CostProfile::MeanNsPerProbeRow(std::string_view op,
                                      uint64_t build_rows,
                                      uint32_t num_threads) const {
  const uint64_t lo = build_rows / 4;
  const uint64_t hi =
      build_rows > UINT64_MAX / 4 ? UINT64_MAX : build_rows * 4;
  uint64_t ns = 0;
  uint64_t rows = 0;
  for (const auto& [key, r] : records_) {
    if (r.features.op != op || r.features.num_threads != num_threads) {
      continue;
    }
    if (r.observations == 0 || r.features.rows_in == 0) continue;
    if (r.features.build_rows < lo || r.features.build_rows > hi) continue;
    ns += r.total_ns_sum;
    rows += r.features.rows_in * r.observations;
  }
  return rows == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(rows);
}

Status CostProfile::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::in);
  if (!in.is_open()) {
    return Status::NotFound(
        StringFormat("cost profile not found: %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError(
        StringFormat("cost profile read failed: %s", path.c_str()));
  }
  return ParseJsonText(buffer.str());
}

CostProfileStore& CostProfileStore::Global() {
  static CostProfileStore* store = new CostProfileStore();
  return *store;
}

void CostProfileStore::Record(const OperatorFeatures& features,
                              const CostObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  profile_.Add(features, obs);
}

CostProfile CostProfileStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

void CostProfileStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = CostProfile();
}

Status CostProfileStore::MergeIntoFile(const std::string& path) const {
  CostProfile merged;
  const Status load = merged.LoadFromFile(path);
  if (!load.ok() && load.code() != StatusCode::kNotFound) return load;
  merged.Merge(Snapshot());
  return merged.SaveToFile(path);
}

Status CostProfileStore::SeedCalibrationFromFile(const std::string& path) {
  CostProfile loaded;
  HAMLET_RETURN_NOT_OK(loaded.LoadFromFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  calibration_ = std::move(loaded);
  return Status::OK();
}

void CostProfileStore::ClearCalibration() {
  std::lock_guard<std::mutex> lock(mu_);
  calibration_ = CostProfile();
}

double CostProfileStore::MeanNsPerProbeRow(std::string_view op,
                                           uint64_t build_rows,
                                           uint32_t num_threads) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double live = profile_.MeanNsPerProbeRow(op, build_rows, num_threads);
  if (live > 0.0) return live;
  return calibration_.MeanNsPerProbeRow(op, build_rows, num_threads);
}

}  // namespace hamlet::obs
