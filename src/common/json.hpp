// Minimal JSON value tree: parser + serializer, no dependencies.
//
// Exists for the observability layer (docs/OBSERVABILITY.md): the trace
// schema test parses the profiler's Chrome-trace output back, and the
// `acsr_prof --diff` regression mode reads committed metric baselines.
// Strictness over features: UTF-8 pass-through, no comments, no trailing
// commas — exactly RFC 8259 minus \u surrogate-pair decoding (escapes are
// kept verbatim as their source text).
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.hpp"

namespace acsr::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps keys ordered: serialisation is deterministic, which the
/// committed-baseline diffs rely on.
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}                  // NOLINT
  Value(bool b) : v_(b) {}                                // NOLINT
  Value(double d) : v_(d) {}                              // NOLINT
  /// Any integral type (covers int, long long, uint64_t, size_t without
  /// caring which of them are distinct types on this platform).
  template <class I>
    requires(std::is_integral_v<I> && !std::is_same_v<I, bool>)
  Value(I i) : v_(static_cast<double>(i)) {}              // NOLINT
  Value(const char* s) : v_(std::string(s)) {}            // NOLINT
  Value(std::string s) : v_(std::move(s)) {}              // NOLINT
  Value(Array a) : v_(std::move(a)) {}                    // NOLINT
  Value(Object o) : v_(std::move(o)) {}                   // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = as_object().find(key);
    return it == as_object().end() ? nullptr : &it->second;
  }
  /// Member that must exist (ACSR_CHECK on absence).
  const Value& at(const std::string& key) const {
    const Value* v = find(key);
    ACSR_CHECK_MSG(v != nullptr, "json: missing key '" << key << "'");
    return *v;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

namespace detail {

class Parser {
 public:
  Parser(const std::string& text, std::string* err)
      : s_(text), err_(err) {}

  bool parse(Value* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (err_ != nullptr && err_->empty())
      *err_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    ++pos_;
    std::string r;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("dangling escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': r += '"'; break;
          case '\\': r += '\\'; break;
          case '/': r += '/'; break;
          case 'b': r += '\b'; break;
          case 'f': r += '\f'; break;
          case 'n': r += '\n'; break;
          case 'r': r += '\r'; break;
          case 't': r += '\t'; break;
          case 'u':
            // Keep \uXXXX verbatim; nothing in this repo emits them.
            if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
            r += "\\u";
            r.append(s_, pos_, 4);
            pos_ += 4;
            break;
          default:
            return fail("bad escape");
        }
      } else {
        r += c;
      }
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    *out = std::move(r);
    return true;
  }

  bool number(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected number");
    try {
      std::size_t used = 0;
      const double d = std::stod(s_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) return fail("bad number");
      *out = Value(d);
    } catch (const std::exception&) {
      return fail("bad number");
    }
    return true;
  }

  bool value(Value* out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      std::string str;
      if (!string(&str)) return false;
      *out = Value(std::move(str));
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      *out = Value(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      *out = Value(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      *out = Value(nullptr);
      return true;
    }
    return number(out);
  }

  bool object(Value* out) {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      *out = Value(std::move(obj));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      Value v;
      if (!value(&v)) return false;
      obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        *out = Value(std::move(obj));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value* out) {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      *out = Value(std::move(arr));
      return true;
    }
    for (;;) {
      Value v;
      if (!value(&v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        *out = Value(std::move(arr));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& s_;
  std::string* err_;
  std::size_t pos_ = 0;
};

inline void escape_into(const std::string& s, std::string& out) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline void number_into(double d, std::string& out) {
  if (!std::isfinite(d)) {  // JSON has no inf/nan; null is the convention
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", d);
  out += buf;
}

inline void dump_into(const Value& v, std::string& out, int indent,
                      int depth) {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const std::string pad1 =
      indent > 0
          ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
          : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    number_into(v.as_number(), out);
  } else if (v.is_string()) {
    escape_into(v.as_string(), out);
  } else if (v.is_array()) {
    const Array& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < a.size(); ++i) {
      out += pad1;
      dump_into(a[i], out, indent, depth + 1);
      if (i + 1 < a.size()) out += ',';
      out += nl;
    }
    out += pad;
    out += ']';
  } else {
    const Object& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [k, val] : o) {
      out += pad1;
      escape_into(k, out);
      out += indent > 0 ? ": " : ":";
      dump_into(val, out, indent, depth + 1);
      if (++i < o.size()) out += ',';
      out += nl;
    }
    out += pad;
    out += '}';
  }
}

}  // namespace detail

/// Parse `text`; returns false and sets *err (when non-null) on malformed
/// input.
inline bool parse(const std::string& text, Value* out, std::string* err) {
  if (err != nullptr) err->clear();
  detail::Parser p(text, err);
  return p.parse(out);
}

/// Serialise. indent = 0 gives the compact single-line form.
inline std::string dump(const Value& v, int indent = 0) {
  std::string out;
  detail::dump_into(v, out, indent, 0);
  return out;
}

}  // namespace acsr::json
