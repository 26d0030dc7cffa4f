#include "uwb/transmitter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uwbams::uwb {

Transmitter::Transmitter(const SystemConfig& cfg)
    : cfg_(cfg), clock_(cfg.clock, cfg.seed),
      pulse_(2, cfg.pulse_sigma, cfg.pulse_amplitude),
      // Center the first pulse early in the slot, leaving room for the
      // burst and the multipath tail inside the integration window.
      pulse_offset_(std::max(3.5 * cfg.pulse_sigma, 2e-9)) {}

void Transmitter::send(const Packet& packet, double t_start) {
  packet_ = packet;
  t_start_ = t_start;
  // One phase-noise draw per transmission on the start edge; the symbol
  // cadence inside the packet stays coherent with the (offset/drifting)
  // local oscillator.
  start_jitter_ = clock_.jitter_at(t_start);
}

double Transmitter::packet_time(double t) const {
  return clock_.local_time(t) - t_start_ - start_jitter_;
}

bool Transmitter::busy(double t) const {
  if (!packet_.has_value()) return false;
  const double rel = packet_time(t);
  return rel >= 0.0 && rel < packet_->duration(cfg_.symbol_period);
}

double Transmitter::first_pulse_time() const {
  if (!packet_.has_value())
    throw std::logic_error("Transmitter::first_pulse_time: nothing queued");
  return t_start_ + pulse_offset_;  // preamble symbol 0, slot 0
}

double Transmitter::sample_at(double t) const {
  if (!packet_.has_value()) return 0.0;
  // The waveform runs on the node's local timebase: identity clocks keep
  // rel == t - t_start_ bit for bit; a ppm-offset clock stretches the pulse
  // cadence, and the start-edge jitter shifts the whole packet.
  const double rel = packet_time(t);
  if (rel < 0.0) return 0.0;
  const int sym = static_cast<int>(rel / cfg_.symbol_period);
  if (sym >= packet_->total_symbols()) return 0.0;
  const int slot = packet_->slot_of_symbol(sym);
  const double slot_start =
      sym * cfg_.symbol_period + slot * cfg_.slot_period();
  // Burst of pulses_per_symbol monocycles at pulse_spacing. Alternating
  // polarity (a fixed scrambling sequence) keeps neighbouring pulse tails
  // from interfering coherently; the energy detector is polarity-blind.
  const double first_center = slot_start + pulse_offset_;
  const double half = pulse_.half_duration();
  // Only pulses whose support can overlap this sample; the +/-1 widening
  // absorbs the floor/ceil rounding and the exact |t_rel| test below keeps
  // the accumulated sum identical to scanning the whole burst.
  int jlo = 0;
  int jhi = cfg_.pulses_per_symbol - 1;
  if (cfg_.pulse_spacing > 0.0) {
    const double off = rel - first_center;
    jlo = std::max(
        jlo, static_cast<int>(std::floor((off - half) / cfg_.pulse_spacing)) - 1);
    jhi = std::min(
        jhi, static_cast<int>(std::ceil((off + half) / cfg_.pulse_spacing)) + 1);
  }
  double acc = 0.0;
  for (int j = jlo; j <= jhi; ++j) {
    const double t_rel = rel - (first_center + j * cfg_.pulse_spacing);
    if (std::abs(t_rel) <= half)
      acc += ((j & 1) != 0 ? -1.0 : 1.0) * pulse_.value(t_rel);
  }
  return acc;
}

void Transmitter::step_block(const double* t, double /*dt*/, int n) {
  for (int i = 0; i < n; ++i) out_[i] = sample_at(t[i]);
}

}  // namespace uwbams::uwb
