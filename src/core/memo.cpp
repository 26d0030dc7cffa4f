#include "core/memo.hpp"

#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>

#include "base/json.hpp"
#include "base/single_flight.hpp"
#include "core/canonical.hpp"
#include "serve/cache.hpp"

namespace uwbams::core::memo {

namespace {

using base::JsonArray;
using base::JsonObject;
using base::JsonValue;

constexpr const char* kResultSchema = "uwbams-characterize-result-v1";

struct MemoState {
  // Null without UWBAMS_CACHE; set once, and internally synchronized. One
  // memory entry: `mem` already holds every value, so the store only
  // needs its disk level.
  std::unique_ptr<serve::ResultCache> disk;
  std::mutex mu;  // guards mem and stats
  std::map<std::uint64_t, detail::Erased> mem;
  Stats stats;
  base::SingleFlight<std::uint64_t, detail::Erased> flights;

  MemoState() {
    if (const char* dir = std::getenv("UWBAMS_CACHE"))
      if (dir[0] != '\0')
        disk = std::make_unique<serve::ResultCache>(dir, 1);
  }
};

MemoState& state() {
  static MemoState s;
  return s;
}

}  // namespace

bool enabled() {
  static const bool on = [] {
    const char* v = std::getenv("UWBAMS_MEMO");
    return v == nullptr || std::string(v) != "0";
  }();
  return on;
}

detail::Erased detail::lookup(
    std::uint64_t key, const std::function<Erased(const std::string&)>& decode,
    const std::function<Erased()>& compute,
    const std::function<std::string(const void*)>& encode) {
  MemoState& s = state();
  const auto find = [&]() -> Erased {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.mem.find(key);
    if (it == s.mem.end()) return nullptr;
    ++s.stats.mem_hits;
    return it->second;
  };
  if (Erased hit = find()) return hit;
  // One caller per key decodes or computes, outside the memo's lock: a
  // characterization or a calibration takes seconds and other threads may
  // be memoizing other keys. Callers racing on the same key wait for that
  // caller's value and count as memory hits — they get its object.
  const auto produce = [&]() -> Erased {
    // A flight that ended since find() left its value in `mem`.
    if (Erased hit = find()) return hit;
    std::string text;
    if (s.disk != nullptr && s.disk->get(key, &text)) {
      try {
        Erased decoded = decode(text);
        std::lock_guard<std::mutex> lock(s.mu);
        ++s.stats.disk_hits;
        return s.mem.emplace(key, std::move(decoded)).first->second;
      } catch (const std::exception&) {
        // Undecodable entry: a miss; the put below overwrites it.
      }
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      ++s.stats.misses;
    }
    Erased computed = compute();
    if (s.disk != nullptr) s.disk->put(key, encode(computed.get()));
    std::lock_guard<std::mutex> lock(s.mu);
    return s.mem.emplace(key, std::move(computed)).first->second;
  };
  bool produced = false;
  Erased value;
  try {
    value = s.flights.run(key, produce, &produced);
  } catch (...) {
    // A waiter on a failed computation missed, like its producer.
    if (!produced) {
      std::lock_guard<std::mutex> lock(s.mu);
      ++s.stats.misses;
    }
    throw;
  }
  if (!produced) {
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.stats.mem_hits;
  }
  return value;
}

std::uint64_t characterize_content_key(const spice::ItdSizing& sizing,
                                       const CharacterizeOptions& options) {
  JsonObject fields;
  fields["options"] = canonical::to_json(options);
  fields["sizing"] = canonical::to_json(sizing);
  return canonical::content_key("uwbams-characterize/1", std::move(fields));
}

std::string characterization_to_json(const ItdCharacterization& ch) {
  JsonObject ac;
  ac["dc_gain_db"] = JsonValue(ch.ac.dc_gain_db);
  ac["f_pole1"] = JsonValue(ch.ac.f_pole1);
  ac["f_pole2"] = JsonValue(ch.ac.f_pole2);
  ac["rms_error_db"] = JsonValue(ch.ac.rms_error_db);
  JsonArray sweep;
  sweep.reserve(ch.sweep.points.size());
  for (const spice::AcPoint& p : ch.sweep.points) {
    JsonArray triple;
    triple.emplace_back(p.freq);
    triple.emplace_back(p.value.real());
    triple.emplace_back(p.value.imag());
    sweep.emplace_back(std::move(triple));
  }
  JsonObject obj;
  obj["schema"] = JsonValue(std::string(kResultSchema));
  obj["ac"] = JsonValue(std::move(ac));
  obj["unity_gain_freq"] = JsonValue(ch.unity_gain_freq);
  obj["input_linear_range"] = JsonValue(ch.input_linear_range);
  obj["slew_rate"] = JsonValue(ch.slew_rate);
  obj["sweep"] = JsonValue(std::move(sweep));
  return JsonValue(std::move(obj)).dump(0);
}

ItdCharacterization characterization_from_json(const std::string& text) {
  const JsonValue doc = base::parse_json(text);
  const JsonObject& obj = doc.as_object();
  if (obj.at("schema").as_string() != kResultSchema)
    throw base::JsonError("memo: unexpected characterization schema '" +
                          obj.at("schema").as_string() + "'");
  ItdCharacterization ch;
  const JsonObject& ac = obj.at("ac").as_object();
  ch.ac.dc_gain_db = ac.at("dc_gain_db").as_number();
  ch.ac.f_pole1 = ac.at("f_pole1").as_number();
  ch.ac.f_pole2 = ac.at("f_pole2").as_number();
  ch.ac.rms_error_db = ac.at("rms_error_db").as_number();
  ch.unity_gain_freq = obj.at("unity_gain_freq").as_number();
  ch.input_linear_range = obj.at("input_linear_range").as_number();
  ch.slew_rate = obj.at("slew_rate").as_number();
  for (const JsonValue& row : obj.at("sweep").as_array()) {
    const JsonArray& triple = row.as_array();
    if (triple.size() != 3)
      throw base::JsonError("memo: sweep row is not a [f, re, im] triple");
    spice::AcPoint p;
    p.freq = triple[0].as_number();
    p.value = {triple[1].as_number(), triple[2].as_number()};
    ch.sweep.points.push_back(p);
  }
  return ch;
}

ItdCharacterization characterize_itd_cached(
    const spice::ItdSizing& sizing, const CharacterizeOptions& options) {
  if (options.ac_workspace != nullptr) return characterize_itd(sizing, options);
  return memoize(characterize_content_key(sizing, options),
                 Codec<ItdCharacterization>{&characterization_to_json,
                                            &characterization_from_json},
                 [&] { return characterize_itd(sizing, options); });
}

Stats stats() {
  MemoState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.stats;
}

void reset_for_tests() {
  MemoState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.mem.clear();
  s.stats = Stats{};
}

}  // namespace uwbams::core::memo
