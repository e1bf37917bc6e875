// Minimal JSON helpers shared by the trace exporter, the run-manifest
// writer, and the telemetry heartbeat. Emission plus a small strict
// parser (JsonValue / json_parse) used by sb_top and tests to read back
// the status/manifest files the library writes — not a general-purpose
// JSON library.
#pragma once

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace shrinkbench::obs {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_str(const std::string& s) {
  const std::string body = json_escape(s);
  std::string out;
  out.reserve(body.size() + 2);
  out.append(1, '"').append(body).append(1, '"');
  return out;
}

/// Doubles formatted round-trippably; NaN/inf (invalid JSON) become null.
inline std::string json_num(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------
// Parsing — strict recursive descent over the subset this library emits
// (no comments, no trailing commas; \uXXXX escapes collapse to '?').
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  /// Throws std::out_of_range on a missing key, like map::at.
  const JsonValue& at(const std::string& key) const { return object.at(key); }
  /// Missing or non-numeric key -> fallback (convenience for optional
  /// status fields).
  double num_or(const std::string& key, double fallback) const {
    const auto it = object.find(key);
    return it != object.end() && it->second.kind == Kind::Number ? it->second.number : fallback;
  }
  std::string str_or(const std::string& key, const std::string& fallback) const {
    const auto it = object.find(key);
    return it != object.end() && it->second.kind == Kind::String ? it->second.string : fallback;
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* why) {
    throw std::runtime_error("json parse error at " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'b': v.string += '\b'; break;
          case 'f': v.string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            v.string += '?';  // callers only need presence, not code points
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        v.string += c;
      }
    }
  }

  JsonValue number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace detail

/// Parses `text` strictly; throws std::runtime_error on malformed input.
inline JsonValue json_parse(const std::string& text) { return detail::JsonParser(text).parse(); }

}  // namespace shrinkbench::obs
