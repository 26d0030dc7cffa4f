/// @file characterize.hpp
/// @brief Phase III -> Phase IV: measure the transistor-level block and
/// calibrate its behavioral model.
///
/// The paper derives the Phase-IV VHDL-AMS model "through its transfer
/// function": the AC response of the Eldo netlist yields the DC gain and the
/// two poles of the coupled-ODE model. This module automates that step:
///   * run the small-signal AC sweep of the I&D cell,
///   * fit a two-pole transfer function to the magnitude response,
///   * extract the DC input linear range and the output slew limit from
///     transient sweeps (the non-idealities the linear model misses),
///   * emit TwoPoleParams for uwb::TwoPoleIntegrator.
#pragma once

#include <span>
#include <vector>

#include "spice/ac.hpp"
#include "spice/itd_builder.hpp"
#include "spice/transient.hpp"
#include "uwb/integrator.hpp"

namespace uwbams::core {

struct TwoPoleFit {
  double dc_gain_db = 0.0;
  double f_pole1 = 0.0;
  double f_pole2 = 0.0;
  double rms_error_db = 0.0;  ///< fit residual over the sweep
};

/// Least-squares fit of |H| = K / sqrt((1+(f/f1)^2)(1+(f/f2)^2)) to a
/// measured magnitude response (dB). Requires f1 < f2 separated responses
/// (integrator-like), which the I&D cell satisfies.
TwoPoleFit fit_two_pole(std::span<const double> freqs_hz,
                        std::span<const double> mag_db);

struct ItdCharacterization {
  TwoPoleFit ac;                 ///< fitted gain/poles
  double unity_gain_freq = 0.0;  ///< |H| = 0 dB crossing [Hz]
  double input_linear_range = 0.0;  ///< DC input range before >10% gain
                                    ///< compression [V]; 0 when the 10 mV
                                    ///< reference does not integrate
  double slew_rate = 0.0;           ///< output ramp limit [V/s]
  spice::AcSweep sweep;             ///< raw AC data (for Fig. 4 overlays)
};

/// Measurement setup of characterize_itd. The defaults are the historical
/// full-fidelity sweep — characterize_itd(sizing) is bit-identical to what
/// it always produced — while Monte-Carlo loops (core/montecarlo.hpp) can
/// coarsen the AC grid or skip the transient measurements to trade fidelity
/// for trial throughput.
struct CharacterizeOptions {
  double f_start = 1e3;          ///< AC sweep start [Hz]
  double f_stop = 50e9;          ///< AC sweep stop [Hz]
  int points_per_decade = 12;    ///< AC grid density
  double dt = 0.2e-9;            ///< transient step of the DC-range/slew runs
  /// 1-16 integrations of 50 ns (a 10 mV reference, then probes from
  /// 20 mV up to the 0.5 V bound until the slope compresses; 11 on the
  /// nominal cell), each restored from one shared post-dump checkpoint.
  bool measure_linear_range = true;
  bool measure_slew = true;  ///< 1 integration of 50 ns
  /// Engine profile of the DC-range/slew transient runs (`dt` above still
  /// wins). Defaults keep the historical bit-exact behavior; stat_equiv
  /// callers pass spice::apply_stat_equiv_profile-configured options.
  spice::TransientOptions transient;
  /// AC pivot-order reuse across the frequency grid (spice::AcOptions::
  /// reuse_factorization). Different elimination rounding — stat_equiv only.
  bool reuse_ac_factorization = false;
  /// Optional cross-call AC workspace (spice::AcOptions::workspace): lets a
  /// Monte-Carlo block reuse one pivot order across its trials. The caller
  /// owns lifetime and thread confinement.
  linalg::LuFactor<std::complex<double>>* ac_workspace = nullptr;
};

/// Full characterization of the 31-transistor cell.
ItdCharacterization characterize_itd(const spice::ItdSizing& sizing = {},
                                     const CharacterizeOptions& options = {});

/// The calibrated Phase-IV model parameters. `with_clamp` additionally
/// transfers the measured linear range into the model (our extension; the
/// paper's model is linear, which is exactly why its Fig. 5 transient
/// deviates from Eldo).
uwb::TwoPoleParams to_behavioral_params(const ItdCharacterization& ch,
                                        bool with_clamp);

}  // namespace uwbams::core
