#include "serve/protocol.hpp"

#include <cmath>
#include <set>

#include "core/canonical.hpp"

namespace uwbams::serve {

namespace {

using base::JsonObject;
using base::JsonValue;

std::uint64_t parse_seed(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kString) {
    const std::string& s = v.as_string();
    if (s.size() < 3 || s[0] != '0' || s[1] != 'x')
      throw ProtocolError("seed: expected a 0x-prefixed hex string");
    std::size_t pos = 0;
    unsigned long long out = 0;
    try {
      out = std::stoull(s.substr(2), &pos, 16);
    } catch (const std::exception&) {
      throw ProtocolError("seed: bad hex string '" + s + "'");
    }
    if (pos != s.size() - 2)
      throw ProtocolError("seed: bad hex string '" + s + "'");
    return out;
  }
  const double d = v.as_number();
  // 2^53 itself is excluded: any integer >= 2^53 may already have been
  // rounded to it by the double-typed JSON number path.
  if (std::nearbyint(d) != d || d < 0 || d >= 9007199254740992.0)
    throw ProtocolError(
        "seed: expected an exact non-negative integer below 2^53 (use a "
        "\"0x...\" string for larger seeds)");
  return static_cast<std::uint64_t>(d);
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kRun: return "run";
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Request Request::parse(const std::string& line) {
  if (line.size() > kMaxRequestBytes)
    throw ProtocolError("request exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes");
  JsonValue doc;
  try {
    doc = base::parse_json(line);
  } catch (const base::JsonError& e) {
    throw ProtocolError(std::string("malformed request: ") + e.what());
  }
  const JsonObject* obj;
  try {
    obj = &doc.as_object();
  } catch (const base::JsonError&) {
    throw ProtocolError("request must be a JSON object");
  }

  std::set<std::string> seen;
  const auto field = [&](const char* name) -> const JsonValue* {
    const auto it = obj->find(name);
    if (it == obj->end()) return nullptr;
    seen.insert(name);
    return &it->second;
  };

  try {
    const JsonValue* schema = field("schema");
    if (schema == nullptr) throw ProtocolError("missing key 'schema'");
    if (schema->as_string() != kProtocolSchema)
      throw ProtocolError("unsupported schema '" + schema->as_string() +
                          "' (this server speaks " + kProtocolSchema + ")");

    Request req;
    if (const JsonValue* op = field("op")) {
      const std::string& s = op->as_string();
      if (s == "run") req.op = Op::kRun;
      else if (s == "ping") req.op = Op::kPing;
      else if (s == "stats") req.op = Op::kStats;
      else if (s == "shutdown") req.op = Op::kShutdown;
      else throw ProtocolError("unknown op '" + s + "'");
    }
    if (const JsonValue* scenario = field("scenario"))
      req.scenario = scenario->as_string();
    if (const JsonValue* scale = field("scale")) {
      if (!runner::parse_scale(scale->as_string(), &req.scale))
        throw ProtocolError("unknown scale '" + scale->as_string() + "'");
    }
    if (const JsonValue* tier = field("tier")) {
      if (!core::parse_exactness_tier(tier->as_string(), &req.tier))
        throw ProtocolError("unknown tier '" + tier->as_string() + "'");
    }
    if (const JsonValue* seed = field("seed")) req.seed = parse_seed(*seed);

    for (const auto& [key, value] : *obj)
      if (seen.count(key) == 0)
        throw ProtocolError("unknown key '" + key + "'");

    if (req.op == Op::kRun && req.scenario.empty())
      throw ProtocolError("op 'run' needs a 'scenario'");
    return req;
  } catch (const base::JsonError& e) {
    // Typed-accessor kind mismatches (e.g. a boolean scale) surface here.
    throw ProtocolError(std::string("bad request: ") + e.what());
  }
}

std::string Request::to_line() const {
  JsonObject obj;
  obj["schema"] = JsonValue(std::string(kProtocolSchema));
  obj["op"] = JsonValue(std::string(to_string(op)));
  if (!scenario.empty()) obj["scenario"] = JsonValue(scenario);
  obj["scale"] = JsonValue(std::string(runner::to_string(scale)));
  obj["tier"] = JsonValue(std::string(core::to_string(tier)));
  obj["seed"] = JsonValue(base::hex_u64(seed));
  return JsonValue(std::move(obj)).dump(0);
}

std::uint64_t Request::content_key() const {
  JsonObject obj;
  obj["scenario"] = JsonValue(scenario);
  obj["scale"] = JsonValue(std::string(runner::to_string(scale)));
  obj["seed"] = JsonValue(base::hex_u64(seed));
  obj["tier"] = JsonValue(std::string(core::to_string(tier)));
  return core::canonical::content_key("uwbams-serve-run/1", std::move(obj));
}

std::string error_line(const std::string& message) {
  JsonObject obj;
  obj["schema"] = JsonValue(std::string(kProtocolSchema));
  obj["status"] = JsonValue(std::string("error"));
  obj["error"] = JsonValue(message);
  return JsonValue(std::move(obj)).dump(0);
}

}  // namespace uwbams::serve
