/// @file interference.hpp
/// @brief In-band interference sources + the rf summing wiring.
///
/// Two source families from InterferenceConfig (uwb/config.hpp):
///
///  * CwTone — a narrowband continuous-wave blocker (a victim of the UWB
///    band's overlay character: fixed tone inside the detector bandwidth).
///  * PiconetInterferer — an uncoordinated concurrent-piconet transmitter:
///    a continuous 2-PPM burst stream reusing the victim's pulse shape but
///    running on its own (incommensurate) symbol clock with its own random
///    start phase, slot choices and burst polarity.
///
/// InterferenceSet owns the sources of one receiver's antenna node and the
/// SummingJunction that merges them with the victim channel output. The
/// contract that keeps every historical scenario byte-identical: when
/// `cfg.interference.any()` is false the set registers NOTHING with the
/// kernel and out() aliases the original rf pointer.
///
/// Seeding contract (docs/channels.md): every stochastic choice derives
/// from fixed-purpose sub-streams of
///   derive_seed(derive_seed(cfg.seed, kInterferencePurpose), node_id)
/// so the two sides of a TWR exchange (distinct node_id) see independent
/// interference, re-runs are bit-identical at any --jobs, and per-symbol
/// slot draws are random-access (hash of the symbol index, no sequential
/// RNG state) — so batch cuts trivially cannot perturb the waveform.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ams/kernel.hpp"
#include "uwb/config.hpp"
#include "uwb/frontend.hpp"
#include "uwb/pulse.hpp"

namespace uwbams::uwb {

/// Fixed purpose tag of the interference seed domain.
inline constexpr std::uint64_t kInterferencePurpose = 0x69666e74;  // "ifnt"

/// Narrowband CW blocker: out(t) = A sin(2 pi f t + phase), a pure time
/// function.
class CwTone : public ams::AnalogBlock {
 public:
  CwTone(double amplitude, double freq, double phase);

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  double amplitude_;
  double omega_;
  double phase_;
  double out_[ams::kMaxBatch] = {};
};

/// One uncoordinated concurrent-piconet transmitter, seen at the victim's
/// antenna with a fixed amplitude (its path loss is folded into
/// cfg.interference.uwb_amplitude). It transmits continuously: every
/// symbol of its own clock carries a burst in a pseudo-randomly chosen
/// 2-PPM slot, with the victim's pulse shape, burst length and spacing.
class PiconetInterferer : public ams::AnalogBlock {
 public:
  PiconetInterferer(const SystemConfig& cfg, std::uint64_t seed);

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  double sample_at(double t) const;

  GaussianMonocycle pulse_;
  double symbol_period_;
  double slot_period_;
  double pulse_offset_;
  double pulse_spacing_;
  int pulses_per_symbol_;
  double start_offset_;  ///< random phase of the interferer's clock [0, Ts)
  std::uint64_t seed_;   ///< per-symbol slot sub-stream
  double out_[ams::kMaxBatch] = {};
};

/// The antenna-node wiring of one receiver: victim rf + interference
/// sources -> SummingJunction -> out(). Empty interference set = identity
/// (no blocks registered, out() == rf).
class InterferenceSet {
 public:
  InterferenceSet(ams::Kernel& kernel, const SystemConfig& cfg,
                  const double* rf);

  const double* out() const { return out_; }
  bool active() const { return sum_ != nullptr; }
  /// Unregisters every block this set registered (none when empty).
  void retire(ams::Kernel& kernel);

 private:
  std::unique_ptr<CwTone> cw_;
  std::vector<std::unique_ptr<PiconetInterferer>> piconets_;
  std::unique_ptr<SummingJunction> sum_;
  const double* out_;
};

}  // namespace uwbams::uwb
