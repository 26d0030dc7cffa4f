/// @file frontend.hpp
/// @brief Analog front-end blocks: LNA/VGA amplifier and squarer.
///
/// Phase-II behavioral models: linear gain with hard saturation (the paper
/// keeps "saturation in the various stages" among the modeled
/// non-idealities) and an optional single-pole bandwidth limit. The VGA is
/// an Amplifier whose gain code is written by the AGC through a quantizing
/// DAC (uwb/dac in adc.hpp).
///
/// out() returns the base of a kMaxBatch sample buffer, and step_block()
/// runs the per-sample arithmetic in one tight loop (the gain/clamp path with no bandwidth limit
/// auto-vectorizes; the one-pole recurrence stays serial but branch-free).
#pragma once

#include <vector>

#include "ams/kernel.hpp"
#include "ams/ode.hpp"

namespace uwbams::uwb {

class Amplifier : public ams::AnalogBlock {
 public:
  /// gain_db: initial gain; sat: output clamp (|v| <= sat); bw: -3 dB
  /// single-pole bandwidth in Hz (0 = unlimited).
  Amplifier(const double* input, double gain_db, double sat, double bw = 0.0);

  void set_gain_db(double gain_db);
  double gain_db() const { return gain_db_; }

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  const double* in_;
  double gain_db_;
  double gain_lin_;
  double sat_;
  double bw_;
  ams::OnePoleState pole_;
  double out_[ams::kMaxBatch] = {};
};

/// N-source summing junction at the rf node: out = sum of its inputs,
/// accumulated in registration order (the floating-point sum order is part
/// of the bit-exactness contract). Used by uwb/interference to merge the
/// victim channel output with CW / concurrent-piconet interferers in front
/// of the receiver chain; with a single input it is the identity map, but
/// the interference layer skips it entirely in that case so the historical
/// single-source wiring stays byte-identical.
class SummingJunction : public ams::AnalogBlock {
 public:
  explicit SummingJunction(std::vector<const double*> inputs);

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  std::vector<const double*> in_;
  double out_[ams::kMaxBatch] = {};
};

/// Square-law device: out = k * v^2 (the "( )^2" block of Fig. 1). The
/// output is intrinsically non-negative; it feeds the I&D differential
/// input.
class Squarer : public ams::AnalogBlock {
 public:
  Squarer(const double* input, double k);
  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  const double* in_;
  double k_;
  double out_[ams::kMaxBatch] = {};
};

}  // namespace uwbams::uwb
