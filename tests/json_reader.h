#ifndef HAMLET_TESTS_JSON_READER_H_
#define HAMLET_TESTS_JSON_READER_H_

/// \file json_reader.h
/// A small hand-rolled JSON parser — the read-side counterpart of
/// common/json_writer.h, so exported JSON (the metrics JSONL lines of
/// obs/exporter.h) can be parsed back without pulling in a dependency.
/// The library itself parses none, so this lives with the tests and is
/// linked into the test binaries only.
///
/// Scope: strict RFC 8259 JSON (objects, arrays, strings with the
/// standard escapes, numbers, true/false/null), recursive descent, whole
/// document at once. Integers that fit int64 are kept exact (exported
/// nanosecond sums must not pass through a double); everything else
/// numeric falls back to double. Object members keep insertion order
/// irrelevant: they land in a std::map, which matches the writer's
/// sorted emission. Not built for speed or for streaming gigabyte
/// documents — the files it reads are kilobytes.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hamlet {

/// A parsed JSON document node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  /// Typed accessors. Wrong-kind access returns the neutral value
  /// (0 / "" / empty container) rather than throwing, so lookups on
  /// hand-written or truncated files degrade instead of aborting.
  bool AsBool(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kDouble) return static_cast<int64_t>(double_);
    return fallback;
  }
  uint64_t AsUInt(uint64_t fallback = 0) const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble
               ? static_cast<uint64_t>(AsInt(0))
               : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    if (kind_ == Kind::kDouble) return double_;
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return fallback;
  }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const {
    return object_;
  }

  /// Member lookup on an object; returns nullptr when absent or when
  /// this value is not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Builders (used by the parser; handy in tests).
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeInt(int64_t v);
  static JsonValue MakeDouble(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(std::map<std::string, JsonValue> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document. Returns false (and fills `error` with a
/// position-prefixed message, when non-null) on malformed input or
/// trailing garbage; `out` is unspecified on failure.
bool ParseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace hamlet

#endif  // HAMLET_TESTS_JSON_READER_H_
