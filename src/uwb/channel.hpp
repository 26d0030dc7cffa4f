/// @file channel.hpp
/// @brief IEEE 802.15.4a channel classes (CM1–CM4) + AWGN propagation block.
///
/// The TWR experiments of the paper use "the TG4a UWB channel model CM1 LOS
/// with the recommended path loss". All four TG4a environment classes share
/// one Saleh-Valenzuela draw: Poisson cluster arrivals with exponential
/// inter-cluster decay, mixed-Poisson ray arrivals with exponential
/// intra-cluster decay, Nakagami-m small-scale fading per ray (lognormal m,
/// enhanced first-path m for LOS classes only), and a d^n path-loss law.
/// The per-class parameter table (channel_class_params) carries the TG4a
/// final-report values; the `SalehValenzuelaParams` defaults ARE the CM1
/// column, so `ChannelClass::kCm1` is the bit-exact historical identity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ams/kernel.hpp"
#include "base/random.hpp"
#include "uwb/config.hpp"

namespace uwbams::uwb {

struct SalehValenzuelaParams {
  double cluster_rate = 0.047e9;   ///< Lambda [1/s]
  double ray_rate1 = 1.54e9;       ///< lambda_1 [1/s] (mixed Poisson)
  double ray_rate2 = 0.15e9;       ///< lambda_2 [1/s]
  double ray_mix_beta = 0.095;     ///< P(ray uses rate 1)
  double cluster_decay = 22.61e-9; ///< Gamma [s]
  double ray_decay = 12.53e-9;     ///< gamma [s]
  double mean_clusters = 3.0;      ///< E[L], Poisson
  double nakagami_m_median = 0.67; ///< lognormal m-factor median
  double nakagami_m_sigma = 0.28;  ///< lognormal sigma (natural log domain)
  double nakagami_m_first = 3.0;   ///< LOS first path fades much less (4a
                                   ///< report: stronger m for the first
                                   ///< component)
  /// LOS class: the zero-delay ray of the first cluster gets the enhanced
  /// nakagami_m_first. NLOS classes (CM2/CM4) have no deterministic strong
  /// first component, so every ray fades with the lognormal m.
  bool los = true;
  double max_excess_delay = 120e-9;  ///< truncation of the power-delay profile
  int max_taps = 64;               ///< keep this many strongest taps

  bool operator==(const SalehValenzuelaParams&) const = default;
};

/// TG4a final-report cluster/ray parameters for an environment class. The
/// kCm1 column equals `SalehValenzuelaParams{}` exactly (pinned by
/// test_channel) — the refactor hinges on that identity.
SalehValenzuelaParams channel_class_params(ChannelClass cls);

/// Per-class d^n path-loss law: exponent n and PL0 [dB at 1 m] (TG4a
/// final report; CM1 matches the SystemConfig defaults).
void channel_class_path_loss(ChannelClass cls, double* exponent,
                             double* pl0_db);

/// Installs a class on a SystemConfig: sets `channel_class` plus the
/// class's recommended path-loss law. kCm1 leaves a default config
/// bit-identical.
void apply_channel_class(SystemConfig* sys, ChannelClass cls);

/// Exact-match parse of the canonical names ("cm1".."cm4").
bool parse_channel_class(const std::string& text, ChannelClass* out);

struct ChannelTap {
  double delay = 0.0;  ///< excess delay relative to the first path [s]
  double gain = 0.0;   ///< amplitude gain (signed)
};

struct ChannelRealization {
  std::vector<ChannelTap> taps;  ///< sorted by delay; unit total energy before
                                 ///< the path-loss scale is applied
  double total_energy() const;
  /// RMS delay spread of the tap powers [s].
  double rms_delay_spread() const;
  /// First moment of the power-delay profile (mean excess delay) [s].
  double mean_excess_delay() const;
  /// Peak |gain|.
  double peak_gain() const;
};

/// Draws one Saleh-Valenzuela realization with unit energy (before path
/// loss). The draw order is pinned — tests byte-compare downstream CSVs.
ChannelRealization generate_sv(base::Rng& rng,
                               const SalehValenzuelaParams& params);

/// Historical CM1 entry point; with default params this is bit-identical
/// to generate_sv(rng, channel_class_params(ChannelClass::kCm1)).
inline ChannelRealization generate_cm1(base::Rng& rng,
                                       const SalehValenzuelaParams& params = {}) {
  return generate_sv(rng, params);
}

/// The multi-realization draw the link-level code uses for channel draws
/// keyed by (params, seed): a fresh Rng(seed) and `count` sequential
/// generate_sv calls — bit-identical to the historical
/// `Rng chan_rng(seed); generate_cm1(...) x count` pattern. `cls` names the
/// class `params` describes; the draw itself reads only `params`.
std::vector<ChannelRealization> draw_realizations(
    ChannelClass cls, const SalehValenzuelaParams& params, std::uint64_t seed,
    int count);

/// Free-space-style distance attenuation: PL(d) = PL0 + 10 n log10(d/1m) [dB].
double path_loss_db(double distance_m, double pl0_db, double exponent);

/// Propagation + noise block: delays the transmit waveform by distance/c,
/// convolves with the tap set, adds white Gaussian noise of PSD N0/2.
///
/// step_block() writes the whole input batch into the delay line first (the
/// ring keeps kMaxBatch slots of headroom beyond the longest tap so no
/// pending history is overwritten), then accumulates tap contributions per
/// sample in tap order and draws the per-sample Gaussian noise in sample
/// order — the same operation and RNG sequence at any batch cut, with the
/// ring-index modulo hoisted out of the inner loops. A batch whose taps all
/// read silent slots skips the tap sums, which are exactly +0.0 there
/// (docs/channels.md, "Silent delay line").
class ChannelBlock : public ams::AnalogBlock {
 public:
  /// `input` is the transmitter output signal; it may be null at
  /// construction (treated as silence) and wired later with set_input(),
  /// which breaks the construction cycle of two-node full-duplex setups.
  /// The tap set defaults to a single unit tap (pure AWGN channel).
  ChannelBlock(const SystemConfig& cfg, const double* input);
  void set_input(const double* input) { in_ = input; }

  /// --- tap-set reconfiguration ------------------------------------------
  /// Installing a realization, switching to AWGN-only or changing the
  /// distance rebuilds the sampled delay line and **clears the propagation
  /// history to silence** (write position reset, all line samples zeroed).
  /// Contract: call these between packets only, when the line has drained —
  /// an in-flight waveform (any nonzero line sample) is dropped on the
  /// floor, which the block records in history_discards() as a guard (a
  /// mid-burst rebuild is almost always a testbench sequencing bug).
  void set_realization(const ChannelRealization& realization,
                       double amplitude_scale);
  void set_awgn_only(double amplitude_scale);
  void set_distance(double meters);
  /// Number of rebuilds that discarded non-silent delay-line history.
  std::uint64_t history_discards() const { return history_discards_; }

  /// Extra whole-sample delay applied to every tap on top of the
  /// propagation delay (rebuilds the line). A full-duplex testbench that
  /// registers this block *after* the transmitter it listens to (forward
  /// dataflow, as the batched kernel requires) passes 1 to reproduce, bit
  /// for bit, the classic channel-before-transmitter registration in which
  /// the channel reads the previous sample of its input.
  void set_input_delay(int samples);
  int input_delay() const { return input_delay_; }

  void set_noise_psd(double n0) { n0_ = n0; }
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  struct SampledTap {
    int delay_samples;
    double gain;
  };
  void rebuild_taps();

  SystemConfig cfg_;
  const double* in_;
  double n0_;
  double distance_;
  int input_delay_ = 0;
  std::vector<ChannelTap> taps_;   ///< continuous-time description
  double scale_ = 1.0;
  std::vector<SampledTap> sampled_;
  int max_delay_ = 0;               ///< longest tap delay [samples]
  std::vector<double> delay_line_;  ///< ring buffer (+ kMaxBatch headroom)
  std::size_t write_pos_ = 0;
  /// Newest ring slots known to hold zero (the trailing run of zero
  /// writes; the whole line after a rebuild, which zeroes it).
  std::size_t silent_ = 0;
  std::uint64_t history_discards_ = 0;
  base::Rng rng_;
  double out_[ams::kMaxBatch] = {};
};

}  // namespace uwbams::uwb
