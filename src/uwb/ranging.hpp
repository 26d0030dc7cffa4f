/// @file ranging.hpp
/// @brief The Two-Way Ranging experiment engine (Table 2).
///
/// "A request packet is sent by a first transceiver and is replied by a
/// second after a known processing time (PT). The replied packet is received
/// again by the first transceiver which estimates the RTT by subtracting the
/// PT" (paper §5). Both nodes run the full acquisition FSM; the ToA biases
/// of both sides therefore enter the distance estimate exactly as they do in
/// the paper's mixed-level simulations.
#pragma once

#include <cstdint>
#include <vector>

#include "base/random.hpp"
#include "base/stats.hpp"
#include "uwb/channel.hpp"
#include "uwb/clock.hpp"
#include "uwb/config.hpp"
#include "uwb/receiver.hpp"

namespace uwbams::uwb {

struct TwrConfig {
  SystemConfig sys;               ///< shared system parameters
  double processing_time = 12e-6; ///< PT: reply pulse leaves PT after the
                                  ///< estimated request ToA [s]
  int iterations = 10;            ///< paper: 10 TWR iterations
  double noise_psd = 2e-19;       ///< receiver-input N0 [V^2/Hz]
  /// Paper setup: "10 TWR iterations at a single distance point" — one CM1
  /// realization, noise re-drawn per iteration, so the spread isolates the
  /// estimator jitter. Set true to also re-draw the channel.
  bool fresh_channel_per_iteration = false;

  /// Per-node oscillator nonidealities (clock.hpp). Defaults are ideal
  /// clocks — the bit-exact historical TWR path. When the two node_ids are
  /// left equal (the default), they are forced to 0 (A, the initiator) and
  /// 1 (B, the responder) so each side's jitter stream is a distinct
  /// derive_seed sub-stream of the iteration seed; callers that assign
  /// their own per-node ids (RangingNetwork) keep them.
  ClockConfig clock_a;
  ClockConfig clock_b;
  /// Corrects the classic PT-scaling drift bias out of the reported
  /// distance (rtt -= PT (delta_a - delta_b)), using the *configured* ppm
  /// values — the role a carrier-frequency-offset tracker plays in a real
  /// ranging DSP, which measures the remote clock rate against its own.
  /// The raw estimate stays available in TwrIteration::distance_raw.
  bool compensate_ppm = false;

  TwrConfig() {
    // Acquire-mode packets need a preamble long enough for the full
    // NE/PS/AGC/coarse/fine sequence (~65 symbols with the defaults).
    sys.preamble_symbols = 80;
    sys.payload_bits = 4;
    sys.noise_est_windows = 16;
    // The ranging link operates with limited gain headroom: the AGC
    // "cannot ensure both amplitude matching for the integrator input
    // range and energy matching for the ADC input range because of the
    // limited gain" (paper §5) — with spare headroom the AGC would simply
    // out-amplify the circuit integrator's lower output and hide the
    // effect Table 2 demonstrates.
    // (40 dB keeps acquisition robust; the 8x noise floor sets the jitter)
    noise_psd = 8e-19;
  }

  /// Installs a caller-provided system template while preserving the
  /// acquire-mode packet structure the constructor curates (preamble
  /// length, payload size, NE windows) — the knobs the TWR sequencing
  /// depends on. Use this instead of assigning `sys` wholesale.
  void apply_system_template(const SystemConfig& s) {
    const int preamble = sys.preamble_symbols;
    const int payload = sys.payload_bits;
    const int ne_windows = sys.noise_est_windows;
    sys = s;
    sys.preamble_symbols = preamble;
    sys.payload_bits = payload;
    sys.noise_est_windows = ne_windows;
  }

  /// Fixed purpose tags of the TWR sub-streams (base::derive_seed). Any
  /// distinct constants work — derive_seed mixes them through splitmix64 —
  /// but they must never change once results are published.
  static constexpr std::uint64_t kChannelPurpose = 0x74777263ULL;  // "twrc"
  static constexpr std::uint64_t kNoisePurpose = 0x7477726eULL;    // "twrn"

  /// Per-iteration seeds. run() and any parallel fan-out derive them from
  /// here so a sharded run reproduces the serial one bit for bit. Channel
  /// and noise draws come from fixed-purpose derive_seed sub-streams of
  /// sys.seed, so the two streams can never collide or correlate for any
  /// (seed, iteration) pair — the additive arithmetic this replaces
  /// (sys.seed + 17 + 7919 i) could alias the channel stream of one seed
  /// with the noise stream of another.
  std::uint64_t channel_seed(int iteration) const {
    const std::uint64_t stream = base::derive_seed(sys.seed, kChannelPurpose);
    return fresh_channel_per_iteration
               ? base::derive_seed(stream,
                                   static_cast<std::uint64_t>(iteration))
               : stream;
  }
  std::uint64_t noise_seed(int iteration) const {
    return base::derive_seed(base::derive_seed(sys.seed, kNoisePurpose),
                             static_cast<std::uint64_t>(iteration));
  }
};

struct TwrIteration {
  double distance_estimate = -1.0;  ///< [m]; negative = acquisition failure.
                                    ///< ppm-compensated when
                                    ///< TwrConfig::compensate_ppm is set.
  double distance_raw = -1.0;       ///< estimate before ppm compensation [m]
  double toa_bias_a = 0.0;          ///< diagnostic: per-side sync bias [s]
  double toa_bias_b = 0.0;
  bool ok = false;
};

struct TwrResult {
  std::vector<TwrIteration> iterations;
  int failures = 0;
  double mean() const;
  /// The paper's Table 2 reports mean + "variance" in meters, i.e. the
  /// standard deviation; both accessors are provided.
  double variance() const;
  double stddev() const;
};

class TwoWayRanging {
 public:
  /// Both nodes use integrators built by `make_integrator` (the paper swaps
  /// the same block fidelity in both devices).
  TwoWayRanging(const TwrConfig& cfg, IntegratorFactory make_integrator);

  TwrResult run();
  /// Single exchange with explicit seeds (used by tests): the channel seed
  /// draws the CM1 realizations, the noise seed the AWGN and payload. The
  /// exchange simulates only what its result can observe: it ends once
  /// both sides have synced, and the A->B link stops at B's sync; a side
  /// that never syncs runs it to the full-length deadline
  /// (docs/ranging.md, "What an exchange simulates").
  TwrIteration run_iteration(std::uint64_t channel_seed,
                             std::uint64_t noise_seed);

 private:
  TwrConfig cfg_;
  IntegratorFactory make_integrator_;
};

/// One TWR exchange as a standalone call: builds the engine and derives the
/// channel/noise sub-streams of exchange index `exchange` from cfg.sys.seed
/// exactly as TwoWayRanging::run() does. The shared single-exchange entry
/// point of the network layer (RangingNetwork) and the PHY-surrogate
/// calibration pipeline (net/calibrate.hpp), so both sample identical
/// physics for a given (seed, exchange).
TwrIteration run_twr_exchange(const TwrConfig& cfg,
                              const IntegratorFactory& make_integrator,
                              int exchange);

}  // namespace uwbams::uwb
