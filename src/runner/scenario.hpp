// scenario.hpp — declarative experiment specs for the unified scenario API.
//
// The paper's whole point is one environment that exercises the same system
// at many fidelities and workloads. ScenarioSpec is the experiment-description
// layer that makes that uniform: a scenario states its name, scale tier,
// seeds, sweep axes and system configuration once, and the runner expands it
// into deterministic, independently-seeded sweep points that a thread pool
// can execute in any order with bit-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/parallel.hpp"
#include "core/equiv.hpp"
#include "core/experiment.hpp"
#include "uwb/config.hpp"

namespace uwbams::runner {

// Workload tier. Replaces the UWBAMS_FAST / UWBAMS_FULL env-var hack that
// each bench used to re-implement (the deprecated CLI fallback honoring
// those variables was retired in PR 9 — --scale is the only control now).
enum class Scale { kFast, kDefault, kFull };

const char* to_string(Scale scale);
// Accepts "fast" / "default" / "full" (case-insensitive).
bool parse_scale(const std::string& text, Scale* out);

// Scale-tier dispatch shared by ScenarioSpec::pick and RunContext::pick —
// the declarative replacement for the per-bench switch statements over the
// old env-var scale.
template <typename T>
T pick_by_scale(Scale scale, T fast, T def, T full) {
  switch (scale) {
    case Scale::kFast: return fast;
    case Scale::kFull: return full;
    case Scale::kDefault: break;
  }
  return def;
}

// One named parameter dimension of a sweep.
struct SweepAxis {
  std::string name;
  std::vector<double> values;

  bool operator==(const SweepAxis&) const = default;
};

// One expanded grid point. `seed` is derived from the spec's base seed and
// the point's linear index alone (base::derive_seed), so it does not depend
// on execution order or worker count — the property that makes
// --jobs=8 reproduce --jobs=1 bit for bit.
struct SweepPoint {
  std::size_t index = 0;   // linear index over grid x repetitions
  int repetition = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> params;  // axis name -> value

  double at(const std::string& axis) const {
    for (const auto& [k, v] : params)
      if (k == axis) return v;
    throw std::out_of_range("SweepPoint: no axis named '" + axis + "'");
  }
};

// Declarative experiment description with a fluent builder over
// uwb::SystemConfig / core::SystemRunConfig.
//
//   auto spec = ctx.spec()
//                   .dt(0.2e-9)
//                   .integrator(core::IntegratorKind::kSpice)
//                   .axis("ebn0_db", {0, 4, 8, 12, 16})
//                   .repetitions(ctx.pick(3, 10, 10));
//   auto results = ctx.pool.map<R>(spec.point_count(), [&](std::size_t i) {
//     const auto pt = spec.point(i); ...
//   });
class ScenarioSpec {
 public:
  explicit ScenarioSpec(std::string name, Scale scale = Scale::kDefault,
                        std::uint64_t seed = 1,
                        core::ExactnessTier tier = core::ExactnessTier::kBitExact)
      : name_(std::move(name)), scale_(scale), tier_(tier) {
    sys_.seed = seed;
  }

  const std::string& name() const { return name_; }
  Scale scale() const { return scale_; }
  ScenarioSpec& with_scale(Scale s) { scale_ = s; return *this; }

  // Declared exactness contract of this run: bit_exact keeps the byte-
  // compare gates, stat_equiv trades them for golden-stats equivalence and
  // unlocks the optimized engine profile (core::variant_for_tier).
  core::ExactnessTier tier() const { return tier_; }
  ScenarioSpec& with_tier(core::ExactnessTier t) { tier_ = t; return *this; }

  template <typename T>
  T pick(T fast, T def, T full) const {
    return pick_by_scale(scale_, fast, def, full);
  }

  // --- seeds ------------------------------------------------------------
  std::uint64_t base_seed() const { return sys_.seed; }
  ScenarioSpec& seed(std::uint64_t s) { sys_.seed = s; return *this; }

  // --- system configuration (fluent over uwb::SystemConfig) -------------
  uwb::SystemConfig& system() { return sys_; }
  const uwb::SystemConfig& system() const { return sys_; }
  ScenarioSpec& system(const uwb::SystemConfig& sys) { sys_ = sys; return *this; }
  ScenarioSpec& dt(double dt_s) { sys_.dt = dt_s; return *this; }
  ScenarioSpec& distance(double meters) { sys_.distance = meters; return *this; }
  ScenarioSpec& multipath(bool on) { sys_.multipath = on; return *this; }
  // Arbitrary adjustments without breaking the fluent chain.
  ScenarioSpec& tune(const std::function<void(uwb::SystemConfig&)>& fn) {
    fn(sys_);
    return *this;
  }

  // --- run configuration (fluent over core::SystemRunConfig) ------------
  ScenarioSpec& integrator(core::IntegratorKind kind) { kind_ = kind; return *this; }
  ScenarioSpec& duration(double seconds) { duration_ = seconds; return *this; }
  ScenarioSpec& ebn0(double db) { ebn0_db_ = db; return *this; }
  core::IntegratorKind integrator() const { return kind_; }
  double duration() const { return duration_; }
  double ebn0() const { return ebn0_db_; }
  core::SystemRunConfig run_config() const {
    core::SystemRunConfig cfg;
    cfg.sys = sys_;
    cfg.kind = kind_;
    cfg.duration = duration_;
    cfg.ebn0_db = ebn0_db_;
    return cfg;
  }

  // --- sweep axes and expansion ------------------------------------------
  ScenarioSpec& axis(std::string axis_name, std::vector<double> values);
  ScenarioSpec& repetitions(int n);
  const std::vector<SweepAxis>& axes() const { return axes_; }
  int repetitions() const { return repetitions_; }

  // Product of axis sizes (1 when no axes are declared).
  std::size_t grid_size() const;
  // grid_size() * repetitions(): the task count a runner fans out.
  std::size_t point_count() const { return grid_size() * static_cast<std::size_t>(repetitions_); }
  // The i-th point of the row-major expansion (last axis fastest,
  // repetition innermost). Deterministic in i alone.
  SweepPoint point(std::size_t i) const;
  std::vector<SweepPoint> points() const;

  // Exact member-wise equality — the canonical JSON round-trip contract
  // (`spec_from_json(spec_to_json(s)) == s`, runner/spec_json.hpp).
  bool operator==(const ScenarioSpec& other) const {
    return name_ == other.name_ && scale_ == other.scale_ &&
           tier_ == other.tier_ && sys_ == other.sys_ &&
           kind_ == other.kind_ && duration_ == other.duration_ &&
           ebn0_db_ == other.ebn0_db_ && axes_ == other.axes_ &&
           repetitions_ == other.repetitions_;
  }

 private:
  std::string name_;
  Scale scale_;
  core::ExactnessTier tier_ = core::ExactnessTier::kBitExact;
  uwb::SystemConfig sys_;
  core::IntegratorKind kind_ = core::IntegratorKind::kIdeal;
  double duration_ = 30e-6;
  double ebn0_db_ = 10.0;
  std::vector<SweepAxis> axes_;
  int repetitions_ = 1;
};

class ResultSink;

// Everything a scenario body receives: the resolved scale/seed/jobs plus
// the sink that collects its artifacts and the pool that fans its sweeps.
struct RunContext {
  std::string scenario_name;
  Scale scale = Scale::kDefault;
  int jobs = 1;
  std::uint64_t seed = 1;
  ResultSink& sink;
  base::ParallelRunner& pool;
  core::ExactnessTier tier = core::ExactnessTier::kBitExact;
  // Fault-tolerant execution (PR 8): retry/quarantine policy for the
  // scenario's tolerant sweeps, plus the per-scenario checkpoint directory
  // ("" disables checkpointing) and whether to resume from it.
  base::TaskPolicy policy{};
  std::string checkpoint_dir{};
  bool resume = false;

  template <typename T>
  T pick(T fast, T def, T full) const {
    return pick_by_scale(scale, fast, def, full);
  }

  // Engine options matching this run's declared exactness tier.
  core::VariantOptions variant() const { return core::variant_for_tier(tier); }

  // A spec pre-loaded with this run's name, scale, base seed and tier.
  ScenarioSpec spec() const {
    return ScenarioSpec(scenario_name, scale, seed, tier);
  }
};

}  // namespace uwbams::runner
