#include "base/faults.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "base/json.hpp"
#include "base/random.hpp"

namespace uwbams::base {

std::uint64_t fnv1a64(std::string_view text, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Rule-key vocabulary is closed so a typo in a hand-written plan fails the
// parse instead of silently never firing.
const char* const kRuleKeys[] = {"site",       "rate",      "fail_attempts",
                                 "action",     "fire_after", "max_fires",
                                 "message"};

double require_number(const JsonValue& v, const char* what, double lo,
                      double hi) {
  const double x = v.as_number();
  if (!(x >= lo && x <= hi))
    throw std::runtime_error(std::string("FaultPlan: ") + what +
                             " out of range");
  return x;
}

}  // namespace

FaultPlan FaultPlan::from_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  if (!doc.has("schema") || doc.at("schema").as_string() != kSchema)
    throw std::runtime_error(
        std::string("FaultPlan: expected schema \"") + kSchema + "\"");
  FaultPlan plan;
  if (doc.has("seed"))
    plan.seed = static_cast<std::uint64_t>(
        require_number(doc.at("seed"), "seed", 0.0, 9.007199254740992e15));
  const auto& known = faults::known_sites();
  for (const JsonValue& rv : doc.at("rules").as_array()) {
    const JsonObject& obj = rv.as_object();
    for (const auto& [key, unused] : obj) {
      (void)unused;
      bool ok = false;
      for (const char* k : kRuleKeys) ok = ok || key == k;
      if (!ok)
        throw std::runtime_error("FaultPlan: unknown rule key '" + key + "'");
    }
    FaultRule rule;
    rule.site = rv.at("site").as_string();
    bool site_known = false;
    for (const auto& s : known) site_known = site_known || s == rule.site;
    if (!site_known)
      throw std::runtime_error("FaultPlan: unknown site '" + rule.site + "'");
    if (rv.has("rate"))
      rule.rate = require_number(rv.at("rate"), "rate", 0.0, 1.0);
    if (rv.has("fail_attempts")) {
      rule.fail_attempts = static_cast<int>(
          require_number(rv.at("fail_attempts"), "fail_attempts", 1.0, 1e6));
    }
    if (rv.has("action")) {
      const std::string& action = rv.at("action").as_string();
      if (action == "abort")
        rule.abort = true;
      else if (action != "throw")
        throw std::runtime_error("FaultPlan: action must be throw|abort, got '" +
                                 action + "'");
    }
    if (rv.has("fire_after"))
      rule.fire_after = static_cast<std::uint64_t>(
          require_number(rv.at("fire_after"), "fire_after", 0.0, 1e15));
    if (rv.has("max_fires"))
      rule.max_fires = static_cast<std::int64_t>(
          require_number(rv.at("max_fires"), "max_fires", 1.0, 1e15));
    if (rv.has("message")) rule.message = rv.at("message").as_string();
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

std::string FaultPlan::to_json() const {
  JsonArray rule_values;
  for (const FaultRule& r : rules) {
    JsonObject obj;
    obj["site"] = r.site;
    obj["rate"] = r.rate;
    if (r.fail_attempts >= 0) obj["fail_attempts"] = r.fail_attempts;
    obj["action"] = r.abort ? "abort" : "throw";
    if (r.fire_after > 0) obj["fire_after"] = static_cast<double>(r.fire_after);
    if (r.max_fires >= 0) obj["max_fires"] = static_cast<double>(r.max_fires);
    if (!r.message.empty()) obj["message"] = r.message;
    rule_values.push_back(JsonValue(std::move(obj)));
  }
  JsonObject doc;
  doc["schema"] = kSchema;
  doc["seed"] = static_cast<double>(seed);
  doc["rules"] = JsonValue(std::move(rule_values));
  return JsonValue(std::move(doc)).dump(2) + "\n";
}

namespace faults {

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "runner.task",        // every tolerant ParallelRunner task
      "spice.nonconverge",  // characterize_itd entry (OP-solve failure)
      "sink.write",         // ResultSink artifact writes
      "net.calibrate",      // surrogate calibration/validation exchanges
      "netscale.measure",   // NetScaleEngine per-tag measurement
      "checkpoint.shard",   // CheckpointStore::record (kill-mid-run faults)
  };
  return sites;
}

namespace {

struct Installed {
  FaultPlan plan;
  // Process-wide match counters for fire_after/max_fires (arrival order;
  // see the header's determinism caveat).
  std::unique_ptr<std::atomic<std::uint64_t>[]> matches;
};

std::mutex g_mu;
std::shared_ptr<const Installed> g_plan;
std::atomic<bool> g_active{false};

thread_local int t_attempt = 0;

std::shared_ptr<const Installed> snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_plan;
}

}  // namespace

void install(const FaultPlan& plan) {
  auto inst = std::make_shared<Installed>();
  inst->plan = plan;
  inst->matches =
      std::make_unique<std::atomic<std::uint64_t>[]>(plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) inst->matches[i] = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan = std::move(inst);
  g_active.store(true, std::memory_order_release);
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan.reset();
  g_active.store(false, std::memory_order_release);
}

bool active() { return g_active.load(std::memory_order_acquire); }

void check(const char* site, std::uint64_t key) {
  if (!g_active.load(std::memory_order_acquire)) return;
  const auto inst = snapshot();
  if (!inst) return;
  const std::uint64_t site_hash = fnv1a64(site);
  for (std::size_t ri = 0; ri < inst->plan.rules.size(); ++ri) {
    const FaultRule& rule = inst->plan.rules[ri];
    if (rule.site != site) continue;
    if (rule.fail_attempts >= 0 && t_attempt >= rule.fail_attempts) continue;
    if (rule.rate < 1.0) {
      // The fire decision depends on (plan seed, site, rule index, key)
      // alone — identical for any worker count or execution order.
      Rng rng(derive_seed(derive_seed(derive_seed(inst->plan.seed, site_hash),
                                      static_cast<std::uint64_t>(ri)),
                          key));
      if (rng.uniform() >= rule.rate) continue;
    }
    if (rule.fire_after > 0 || rule.max_fires >= 0) {
      const std::uint64_t n = ++inst->matches[ri];
      if (n <= rule.fire_after) continue;
      if (rule.max_fires >= 0 &&
          n > rule.fire_after + static_cast<std::uint64_t>(rule.max_fires))
        continue;
    }
    if (rule.abort) {
      // Simulated kill: no destructors, no stream flushes — partial state
      // on disk is exactly what a real SIGKILL leaves behind.
      std::fprintf(stderr, "faults: aborting at site %s (injected)\n", site);
      std::_Exit(43);
    }
    std::string msg =
        rule.message.empty() ? std::string("injected fault") : rule.message;
    msg += std::string(" [site=") + site + "]";
    throw FaultInjected(msg);
  }
}

int current_attempt() { return t_attempt; }

AttemptScope::AttemptScope(int attempt) : prev_(t_attempt) {
  t_attempt = attempt;
}

AttemptScope::~AttemptScope() { t_attempt = prev_; }

}  // namespace faults

}  // namespace uwbams::base
