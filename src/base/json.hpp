/// @file json.hpp
/// @brief Minimal JSON value model + parser for the artifact formats (surrogate tables, golden stats).
///
/// The PHY surrogate table (surrogate.hpp) is a *cached calibration
/// artifact*: one run fits it from the full-physics TWR engine, later runs
/// load it back. That round trip needs a JSON reader the repo did not have
/// (sinks only ever wrote JSON). This is a deliberately small recursive-
/// descent parser over the full JSON grammar — objects, arrays, strings
/// with escapes, numbers, booleans, null — sufficient for artifacts this
/// repo writes and strict enough to reject truncated or hand-mangled files
/// loudly instead of mis-calibrating a 10k-node simulation silently.
///
/// Numbers are stored as double (the only numeric type the artifacts use)
/// and serialized with %.17g so a write -> parse -> write cycle is
/// byte-stable — the property the CI jobs-determinism gates byte-compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace uwbams::base {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
// std::map keeps object keys sorted, so serialization order is canonical
// regardless of insertion order — part of the byte-stability contract.
using JsonObject = std::map<std::string, JsonValue>;

/// Thrown by parse_json / the typed accessors on malformed input.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double v) : kind_(Kind::kNumber), num_(v) {}
  JsonValue(int v) : kind_(Kind::kNumber), num_(v) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(JsonArray a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  JsonValue(JsonObject o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw JsonError on a kind mismatch (a schema error
  /// in the artifact being read).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; throws JsonError when the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  bool has(const std::string& key) const;

  /// Canonical serialization: sorted keys, %.17g numbers, `indent` spaces
  /// per nesting level (0 = compact single line).
  std::string dump(int indent = 2) const;

 private:
  void dump_to(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// "0x%016llx" rendering used for 64-bit values inside JSON artifacts (JSON
/// numbers are doubles; a seed or hash above 2^53 would lose bits).
std::string hex_u64(std::uint64_t v);

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws JsonError with an offset-annotated message.
JsonValue parse_json(const std::string& text);

}  // namespace uwbams::base
