/// @file calibrate.hpp
/// @brief Fits the PHY surrogate against the full-physics TWR engine.
///
/// The calibration pipeline sweeps TwoWayRanging over a (range, noise PSD,
/// |delta-ppm|, channel class) grid — every exchange an independent
/// realization of the cell's CM class and its own noise stream — and fits
/// each cell's ToA-error mixture (surrogate.hpp).
/// Exchange seeds derive from (calibration seed, cell, sample) alone via
/// fixed-purpose base::derive_seed sub-streams, so fanning the sweep over
/// base::ParallelRunner is bit-identical for any --jobs.
///
/// validate_surrogate() is the honesty gate: it runs *held-out* exchanges
/// from a disjoint seed stream and checks, per cell, that the held-out
/// inlier mean lands inside the fitted bias's confidence interval, the
/// spreads agree to a chi-square-style ratio band, and the held-out
/// outlier and failure counts sit inside binomial bounds around the fitted
/// rates. CI runs it on every push so the surrogate can never drift away
/// from the waveform engine silently.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/parallel.hpp"
#include "core/block_variant.hpp"
#include "core/canonical.hpp"
#include "net/surrogate.hpp"
#include "uwb/ranging.hpp"

namespace uwbams::net {

struct CalibrationConfig {
  /// TWR template: distance, noise_psd and the two clock ppm values are
  /// overridden per cell; everything else (dt, packet structure,
  /// compensate_ppm, processing time) is the operating point being
  /// calibrated. fresh_channel_per_iteration is forced on — every sample
  /// must see its own CM1 realization or the fit would model one draw.
  uwb::TwrConfig twr;

  std::vector<double> ranges_m = {5.0, 8.0, 11.0};
  std::vector<double> noise_psd = {8e-19};
  std::vector<double> dppm = {0.0};
  /// uwb::ChannelClass integer codes (0 = CM1 ... 3 = CM4) as doubles, the
  /// same encoding the SurrogateTable axis uses. Each cell's exchanges run
  /// with that class's multipath statistics *and* path-loss law
  /// (uwb::apply_channel_class).
  std::vector<double> channel_class = {0.0};
  int samples_per_cell = 16;
  /// Inlier/outlier split: |error| above this is a wrong-slot outlier
  /// (half a 128 ns symbol is ~9.6 m; half of that separates the clusters).
  double outlier_threshold_m = 4.8;
  std::uint64_t seed = 1;

  CalibrationConfig() {
    twr.compensate_ppm = true;
    twr.fresh_channel_per_iteration = true;
  }

  std::size_t cell_count() const {
    return ranges_m.size() * noise_psd.size() * dppm.size() *
           channel_class.size();
  }
};

/// One full-physics exchange of a calibration cell, usable on its own (the
/// test suite drives it directly). `purpose` selects the seed stream:
/// kCalibratePurpose for fitting, kValidatePurpose for held-out samples.
uwb::TwrIteration run_calibration_exchange(const CalibrationConfig& cfg,
                                           std::size_t cell_index, int sample,
                                           std::uint64_t purpose,
                                           const uwb::IntegratorFactory& fact);

/// Fixed purpose tags of the calibration seed streams.
inline constexpr std::uint64_t kCalibratePurpose = 0x6e63616cULL;  // "ncal"
inline constexpr std::uint64_t kValidatePurpose = 0x6e76616cULL;   // "nval"

/// Runs samples_per_cell exchanges per cell (fanned over `pool` when
/// given; bit-identical for any job count) and fits the surrogate table.
/// Exchanges run tolerantly: one that still fails after retries is
/// quarantined as a non-acquisition (it feeds the cell's p_fail honestly)
/// and counted into *quarantined when non-null.
SurrogateTable calibrate_surrogate(const CalibrationConfig& cfg,
                                   const uwb::IntegratorFactory& fact,
                                   const base::ParallelRunner* pool = nullptr,
                                   int* quarantined = nullptr);

/// Content key of one calibration run: every visited knob of `cfg`, its
/// full TWR operating point and the integrator kind, canonical.
std::uint64_t surrogate_content_key(const CalibrationConfig& cfg,
                                    core::IntegratorKind kind);

/// calibrate_surrogate through core::memo under surrogate_content_key: an
/// identical earlier calibration is returned bit-identically instead of
/// re-running the sweep. *quarantined is set only when the calibration
/// runs, so it stays empty on a memo hit.
SurrogateTable load_or_calibrate_surrogate(
    const CalibrationConfig& cfg, core::IntegratorKind kind,
    const base::ParallelRunner* pool,
    std::optional<int>* quarantined = nullptr);

/// Held-out comparison of one cell. `checked` is false when either side
/// has too few successful exchanges for the bounds to mean anything (the
/// cell is skipped, not failed).
struct CellValidation {
  std::size_t cell_index = 0;
  double range_m = 0.0, noise_psd = 0.0, dppm = 0.0, channel_class = 0.0;
  int samples = 0;       ///< held-out exchanges run
  int ok = 0;            ///< held-out acquisitions
  int outliers = 0;      ///< held-out wrong-slot errors
  double held_bias_m = 0.0;    ///< held-out inlier mean error
  double held_spread_m = 0.0;  ///< held-out inlier stddev
  double bias_delta_m = 0.0;   ///< |held_bias - table bias|
  double bias_bound_m = 0.0;   ///< 3-sigma two-sample bound (+ floor)
  bool checked = false;
  bool bias_ok = false;
  bool spread_ok = false;
  bool outlier_ok = false;
  bool fail_rate_ok = false;
  bool pass() const {
    return !checked || (bias_ok && spread_ok && outlier_ok && fail_rate_ok);
  }
};

struct ValidationReport {
  std::vector<CellValidation> cells;
  int checked = 0;      ///< cells with enough samples to judge
  int passed = 0;       ///< checked cells inside every bound
  int quarantined = 0;  ///< held-out exchanges that failed after retries
  bool pass() const { return checked > 0 && passed == checked; }
};

/// Runs `held_out_samples` exchanges per cell from the kValidatePurpose
/// stream (disjoint from every calibration draw) and checks each cell
/// against the table's statistics. Deterministic for any job count.
ValidationReport validate_surrogate(const SurrogateTable& table,
                                    const CalibrationConfig& cfg,
                                    int held_out_samples,
                                    const uwb::IntegratorFactory& fact,
                                    const base::ParallelRunner* pool = nullptr);

}  // namespace uwbams::net

namespace uwbams::core::canonical {

/// The scalar knobs of a calibration; the nested TWR operating point is
/// keyed as a sub-object (net::surrogate_content_key).
template <typename V>
void visit_fields(net::CalibrationConfig& c, V&& v) {
  v("ranges_m", c.ranges_m);
  v("noise_psd", c.noise_psd);
  v("dppm", c.dppm);
  v("channel_class", c.channel_class);
  v("samples_per_cell", c.samples_per_cell);
  v("outlier_threshold_m", c.outlier_threshold_m);
  v("seed", c.seed);
}

}  // namespace uwbams::core::canonical
