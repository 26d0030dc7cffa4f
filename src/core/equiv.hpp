/// @file equiv.hpp
/// @brief Statistical-equivalence harness: exactness tiers, golden-stats
/// artifacts and the acceptance checks behind the `stat_equiv` gate.
///
/// PRs 2-3 hit the perf wall named in ROADMAP: fig6 is ~93% spice engine,
/// and the hot loop cannot be reordered while byte-identical CSV gates pin
/// the exact iteration sequence. The way out is to make exactness a
/// *declared, tested contract* per run instead of an implicit byte
/// comparison — the same move AMS sign-off makes when it replaces
/// waveform-matching with property-level checks and explicit tolerances.
///
/// Two tiers:
///  - `bit_exact` (default): today's contract. Same seed, any --jobs, any
///    engine build => byte-identical CSV/JSON artifacts. CI `cmp` gates.
///  - `stat_equiv`: results must be statistically indistinguishable from a
///    pinned golden, checked per metric: Wilson 95% CI overlap for binomial
///    BER counts, relative/absolute tolerance for fitted scalars, a
///    two-sample Kolmogorov-Smirnov test for Monte-Carlo populations. This
///    tier is what lets the engine enable optimizations that flip marginal
///    bits (chord_tol_scale=1.0, fused device commits, multirate
///    co-simulation, cross-trial AC reuse) without weakening verification
///    to "looks fine".
///
/// The artifact format (`golden_stats.json`) is schema-versioned and
/// byte-stable (sorted keys, %.17g numbers — same discipline as
/// surrogate.json), so a golden regenerated from an identical run is
/// byte-identical, and `git diff` on an intentional refresh reads cleanly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uwbams::core {

// ------------------------------------------------------------------ tiers

/// Declared exactness contract of a scenario run.
enum class ExactnessTier { kBitExact, kStatEquiv };

const char* to_string(ExactnessTier tier);
/// Accepts "bit_exact" / "stat_equiv" (case-insensitive).
bool parse_exactness_tier(const std::string& text, ExactnessTier* out);

// ------------------------------------------------------- acceptance checks

/// One named acceptance check inside a golden-stats artifact.
struct StatCheck {
  enum class Kind { kBer, kScalar, kSample };
  Kind kind = Kind::kScalar;

  // kBer: binomial count; candidate passes when the two Wilson 95%
  // confidence intervals overlap.
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;

  // kScalar: candidate passes when
  //   |candidate - value| <= abs_tol + rel_tol * max(|value|, |candidate|).
  // Tolerances are taken from the *golden* side of a comparison.
  double value = 0.0;
  double rel_tol = 0.0;
  double abs_tol = 0.0;

  // kSample: population of per-trial values; candidate passes a two-sample
  // KS test at significance `alpha` (golden side's alpha governs).
  std::vector<double> values;
  double alpha = 0.01;
};

/// Schema-versioned container for a run's acceptance checks; serializes to
/// the canonical `golden_stats.json` artifact.
class StatArtifact {
 public:
  static constexpr const char* kSchema = "uwbams-golden-stats-v1";

  StatArtifact() = default;
  StatArtifact(std::string scenario, std::string scale)
      : scenario_(std::move(scenario)), scale_(std::move(scale)) {}

  void add_ber(const std::string& name, std::uint64_t errors,
               std::uint64_t bits);
  void add_scalar(const std::string& name, double value, double rel_tol,
                  double abs_tol = 0.0);
  void add_sample(const std::string& name, std::vector<double> values,
                  double alpha = 0.01);

  const std::string& scenario() const { return scenario_; }
  const std::string& scale() const { return scale_; }
  const std::map<std::string, StatCheck>& checks() const { return checks_; }

  /// Canonical byte-stable rendering (sorted keys, %.17g numbers).
  std::string to_json() const;
  /// Throws base::JsonError on malformed input or a schema mismatch.
  static StatArtifact from_json(const std::string& text);

 private:
  std::string scenario_;
  std::string scale_;
  std::map<std::string, StatCheck> checks_;  // sorted => canonical order
};

// -------------------------------------------------------------- comparison

/// Outcome of one check of an equivalence comparison.
struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;  // the numbers behind the verdict, human-readable
};

/// Full pass/fail report of golden-vs-candidate; serializes to
/// `equiv_report.json` and prints as the CLI narration.
struct EquivReport {
  bool passed = false;
  std::string golden_scenario;
  std::string candidate_scenario;
  std::vector<CheckResult> checks;

  std::string to_json() const;
  std::string to_text() const;
};

/// Compares a candidate run's stats against a pinned golden. Checks are
/// matched by name; a check present on only one side fails (the golden's
/// check set is part of the contract), as do scenario or kind mismatches.
EquivReport compare_stats(const StatArtifact& golden,
                          const StatArtifact& candidate);

// ----------------------------------------------- shared bench gate limits
//
// Acceptance-check tolerances used by the bench gates (and therefore by the
// CI jobs that run them). One definition here instead of magic numbers
// scattered through bench/ranging.cpp and bench/netscale.cpp.
namespace accept {

// twr_clock: fitted drift-bias slope must land within a factor-of-two band
// of the -0.5*c*PT theory value, and ppm compensation must remove at least
// 70% of it.
inline constexpr double kTwrSlopeBandLow = 0.5;
inline constexpr double kTwrSlopeBandHigh = 2.0;
inline constexpr double kTwrCompensatedSlopeMax = 0.3;

// ranging_network: at most a quarter of the pairs may fail to range, and
// the trilaterated position RMSE must stay below 2 m.
inline constexpr double kRangingMaxFailedPairFraction = 0.25;
inline constexpr double kRangingMaxPositionRmseM = 2.0;

// surrogate_fit: at least 90% of the validation cells must pass.
inline constexpr double kSurrogateMinCellPassFraction = 0.9;

// netscale_static / netscale_mobility: minimum round availability and the
// position-RMSE ceilings (fast scale is looser; fault injection looser
// still).
inline constexpr double kNetscaleMinAvailability = 0.95;
inline constexpr double kNetscaleMinAvailabilityFaulted = 0.80;
inline constexpr double kNetscaleRmseGateFastM = 2.0;
inline constexpr double kNetscaleRmseGateM = 1.75;
inline constexpr double kNetscaleRmseGateFaultedM = 2.5;

/// True when num/den >= frac, evaluated in exact integer arithmetic (the
/// idiom behind the surrogate validation gate `10*passed >= 9*checked`).
inline constexpr bool fraction_at_least(std::uint64_t num, std::uint64_t den,
                                        double frac) {
  return static_cast<double>(num) >= frac * static_cast<double>(den);
}

}  // namespace accept

}  // namespace uwbams::core
