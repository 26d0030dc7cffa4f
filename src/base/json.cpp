#include "base/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace uwbams::base {

namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  throw JsonError(std::string("json: expected ") + wanted + ", got " +
                  kind_name(got));
}

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void append_number(std::string* out, double v) {
  if (!std::isfinite(v))
    throw JsonError("json: non-finite number cannot be serialized");
  char buf[32];
  // %.17g round-trips every double exactly -> byte-stable artifacts.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The artifacts are ASCII; encode BMP code points as UTF-8 so the
          // parser is still total over valid input.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("bad number");
    const std::string tok = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      return JsonValue(v);
    } catch (const std::exception&) {
      pos_ = start;
      fail("bad number '" + tok + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return str_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return arr_;
}

const JsonObject& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return obj_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return kind_ == Kind::kObject && obj_.count(key) > 0;
}

void JsonValue::dump_to(std::string* out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) *
                            static_cast<std::size_t>(depth + 1),
                        ' ');
  const std::string close_pad(
      static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: *out += "null"; break;
    case Kind::kBool: *out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[";
      *out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        *out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) *out += ",";
        *out += nl;
      }
      *out += close_pad;
      *out += "]";
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{";
      *out += nl;
      std::size_t i = 0;
      for (const auto& [k, v] : obj_) {
        *out += pad;
        append_escaped(out, k);
        *out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
        if (++i < obj_.size()) *out += ",";
        *out += nl;
      }
      *out += close_pad;
      *out += "}";
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(&out, indent, 0);
  if (indent > 0) out += "\n";
  return out;
}

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace uwbams::base
