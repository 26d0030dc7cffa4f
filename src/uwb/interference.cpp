#include "uwb/interference.hpp"

#include <algorithm>
#include <cmath>

#include "base/random.hpp"
#include "base/units.hpp"

namespace uwbams::uwb {

CwTone::CwTone(double amplitude, double freq, double phase)
    : amplitude_(amplitude), omega_(2.0 * units::pi * freq), phase_(phase) {}

void CwTone::step_block(const double* t, double /*dt*/, int n) {
  for (int i = 0; i < n; ++i)
    out_[i] = amplitude_ * std::sin(omega_ * t[i] + phase_);
}

PiconetInterferer::PiconetInterferer(const SystemConfig& cfg,
                                     std::uint64_t seed)
    : pulse_(2, cfg.pulse_sigma, cfg.interference.uwb_amplitude),
      symbol_period_(cfg.interference.uwb_symbol_period),
      slot_period_(cfg.interference.uwb_symbol_period / 2.0),
      pulse_offset_(std::max(3.5 * cfg.pulse_sigma, 2e-9)),
      pulse_spacing_(cfg.pulse_spacing),
      pulses_per_symbol_(cfg.pulses_per_symbol),
      seed_(seed) {
  // One ctor-time draw: the interferer's clock phase relative to the
  // victim. The stream is already mid-flight at t = 0 (start_offset_ > 0
  // shifts the waveform left), as an uncoordinated piconet would be.
  base::Rng rng(base::derive_seed(seed, 0));
  start_offset_ = rng.uniform(0.0, symbol_period_);
}

double PiconetInterferer::sample_at(double t) const {
  const double rel = t + start_offset_;
  if (rel < 0.0) return 0.0;
  const std::uint64_t sym = static_cast<std::uint64_t>(rel / symbol_period_);
  // Random-access per-symbol slot draw: a hash of the symbol index, not a
  // sequential RNG — evaluation order cannot perturb the waveform.
  const int slot =
      static_cast<int>(base::derive_seed(seed_, sym + 1) & 1ULL);
  const double slot_start =
      static_cast<double>(sym) * symbol_period_ + slot * slot_period_;
  const double sym_rel = rel - slot_start;
  const double half = pulse_.half_duration();
  int jlo = 0;
  int jhi = pulses_per_symbol_ - 1;
  if (pulse_spacing_ > 0.0) {
    const double off = sym_rel - pulse_offset_;
    jlo = std::max(
        jlo, static_cast<int>(std::floor((off - half) / pulse_spacing_)) - 1);
    jhi = std::min(
        jhi, static_cast<int>(std::ceil((off + half) / pulse_spacing_)) + 1);
  }
  double acc = 0.0;
  for (int j = jlo; j <= jhi; ++j) {
    const double t_rel = sym_rel - (pulse_offset_ + j * pulse_spacing_);
    if (std::abs(t_rel) <= half)
      acc += ((j & 1) != 0 ? -1.0 : 1.0) * pulse_.value(t_rel);
  }
  return acc;
}

void PiconetInterferer::step_block(const double* t, double /*dt*/, int n) {
  for (int i = 0; i < n; ++i) out_[i] = sample_at(t[i]);
}

InterferenceSet::InterferenceSet(ams::Kernel& kernel, const SystemConfig& cfg,
                                 const double* rf)
    : out_(rf) {
  const InterferenceConfig& ic = cfg.interference;
  if (!ic.any()) return;  // identity: nothing registered, out_ == rf

  std::vector<const double*> inputs;
  inputs.push_back(rf);
  const std::uint64_t base = base::derive_seed(
      base::derive_seed(cfg.seed, kInterferencePurpose),
      static_cast<std::uint64_t>(cfg.clock.node_id));
  if (ic.cw_amplitude != 0.0) {
    cw_ = std::make_unique<CwTone>(ic.cw_amplitude, ic.cw_freq, ic.cw_phase);
    kernel.add_analog(*cw_);
    inputs.push_back(cw_->out());
  }
  if (ic.uwb_amplitude != 0.0) {
    for (int k = 0; k < ic.uwb_count; ++k) {
      piconets_.push_back(std::make_unique<PiconetInterferer>(
          cfg, base::derive_seed(base, static_cast<std::uint64_t>(k) + 1)));
      kernel.add_analog(*piconets_.back());
      inputs.push_back(piconets_.back()->out());
    }
  }
  sum_ = std::make_unique<SummingJunction>(std::move(inputs));
  kernel.add_analog(*sum_);
  out_ = sum_->out();
}

void InterferenceSet::retire(ams::Kernel& kernel) {
  if (cw_) kernel.remove_analog(*cw_);
  for (auto& p : piconets_) kernel.remove_analog(*p);
  if (sum_) kernel.remove_analog(*sum_);
}

}  // namespace uwbams::uwb
