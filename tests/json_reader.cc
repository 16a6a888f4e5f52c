#include "json_reader.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"

namespace hamlet {

namespace {

/// Recursive-descent parser over a raw character range. Depth is capped
/// so a pathological file cannot blow the stack.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool ParseDocument(JsonValue* out, std::string* error) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) {
      Fill(error);
      return false;
    }
    SkipWhitespace();
    if (p_ != end_) {
      Set("trailing characters after JSON value");
      Fill(error);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Set("nesting too deep");
    if (p_ == end_) return Set("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true")) return false;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!Literal("false")) return false;
        *out = JsonValue::MakeBool(false);
        return true;
      case 'n':
        if (!Literal("null")) return false;
        *out = JsonValue::MakeNull();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++p_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (p_ == end_ || *p_ != '"') return Set("expected object key");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (p_ == end_ || *p_ != ':') return Set("expected ':' after key");
      ++p_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      members.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (p_ == end_) return Set("unterminated object");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Set("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++p_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      items.push_back(std::move(value));
      SkipWhitespace();
      if (p_ == end_) return Set("unterminated array");
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        *out = JsonValue::MakeArray(std::move(items));
        return true;
      }
      return Set("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++p_;  // '"'
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return true;
      }
      if (c == '\\') {
        ++p_;
        if (p_ == end_) return Set("unterminated escape");
        switch (*p_) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            ++p_;
            uint32_t code = 0;
            if (!ParseHex4(&code)) return false;
            // Surrogate pairs combine into one code point; surrogate
            // halves on their own are not encodable code points.
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
                return Set("unpaired high surrogate");
              }
              p_ += 2;
              uint32_t low = 0;
              if (!ParseHex4(&low)) return false;
              if (low >= 0xDC00 && low <= 0xDFFF) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              } else {
                return Set("invalid low surrogate");
              }
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Set("unpaired low surrogate");
            }
            AppendUtf8(code, out);
            continue;  // ParseHex4 already advanced p_.
          }
          default:
            return Set("invalid escape character");
        }
        ++p_;
        continue;
      }
      if (c < 0x20) return Set("raw control character in string");
      out->push_back(static_cast<char>(c));
      ++p_;
    }
    return Set("unterminated string");
  }

  bool ParseHex4(uint32_t* out) {
    if (end_ - p_ < 4) return Set("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Set("invalid hex digit in \\u escape");
      }
    }
    *out = value;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    bool is_integer = p_ != start && (*start != '-' || p_ - start > 1);
    if (!is_integer) return Set("invalid number");
    const char* digits = *start == '-' ? start + 1 : start;
    if (p_ - digits > 1 && *digits == '0') {
      return Set("leading zeros are not allowed");
    }
    if (p_ != end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      is_integer = false;
      if (*p_ == '.') {
        ++p_;
        if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
          return Set("digits required after decimal point");
        }
        while (p_ != end_ &&
               std::isdigit(static_cast<unsigned char>(*p_))) {
          ++p_;
        }
      }
      if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
        ++p_;
        if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
        if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
          return Set("digits required in exponent");
        }
        while (p_ != end_ &&
               std::isdigit(static_cast<unsigned char>(*p_))) {
          ++p_;
        }
      }
    }
    const std::string token(start, p_);
    if (is_integer) {
      errno = 0;
      char* parse_end = nullptr;
      const long long v = std::strtoll(token.c_str(), &parse_end, 10);
      // Integers keep exact int64 form; out-of-range falls back to
      // double below (losing precision, as any JSON reader must).
      if (errno != ERANGE && parse_end != nullptr && *parse_end == '\0') {
        *out = JsonValue::MakeInt(v);
        return true;
      }
    }
    errno = 0;
    char* parse_end = nullptr;
    const double d = std::strtod(token.c_str(), &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') {
      return Set("invalid number");
    }
    *out = JsonValue::MakeDouble(d);
    return true;
  }

  bool Literal(const char* word) {
    const char* w = word;
    const char* p = p_;
    while (*w != '\0') {
      if (p == end_ || *p != *w) return Set("invalid literal");
      ++p;
      ++w;
    }
    p_ = p;
    return true;
  }

  void SkipWhitespace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Set(const char* message) {
    if (error_.empty()) {
      error_ = message;
      error_offset_ = p_;
    }
    return false;
  }

  void Fill(std::string* error) const {
    if (error == nullptr) return;
    *error = StringFormat("JSON parse error at offset %zu: %s",
                          static_cast<size_t>(error_offset_ - begin_),
                          error_.c_str());
  }

  const char* p_;
  const char* end_;
  const char* begin_ = p_;
  std::string error_;
  const char* error_offset_ = p_;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::MakeInt(int64_t v) {
  JsonValue j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

JsonValue JsonValue::MakeDouble(double v) {
  JsonValue j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(v);
  return j;
}

bool ParseJson(const std::string& text, JsonValue* out,
               std::string* error) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument(out, error);
}

}  // namespace hamlet
