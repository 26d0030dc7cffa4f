/// @file transmitter.hpp
/// @brief Pulse generator + 2-PPM modulator.
///
/// Produces the antenna voltage sample by sample: one monocycle per symbol,
/// placed in the slot selected by the payload bit (preamble pulses always in
/// slot 0). The pulse is centered inside its slot at a fixed offset so the
/// whole waveform fits the receiver's integration window.
///
/// step_block() evaluates the per-sample waveform expression sample_at()
/// for each batch sample, which restricts the burst scan to the pulses whose support can overlap the
/// sample (the exact |t_rel| test is still applied, so the summation — and
/// therefore the waveform — is bit-identical to the full per-pulse scan).
///
/// Clock domain: send() start times and first_pulse_time() are in the
/// node's *local* clock (cfg.clock); the waveform is generated against that
/// local timebase by mapping the kernel's true time through
/// ClockModel::local_time per sample, plus one white-jitter draw per send()
/// on the packet start edge (the pulse clock's phase noise). The node's
/// digital counter records the *intended* local first-pulse time, so clock
/// error shows up in the ranging estimate exactly as it does on silicon.
/// An identity clock (the default) reproduces the historical waveform bit
/// for bit.
#pragma once

#include <optional>

#include "ams/kernel.hpp"
#include "uwb/clock.hpp"
#include "uwb/config.hpp"
#include "uwb/packet.hpp"
#include "uwb/pulse.hpp"

namespace uwbams::uwb {

class Transmitter : public ams::AnalogBlock {
 public:
  explicit Transmitter(const SystemConfig& cfg);

  /// Queues a packet whose first symbol starts at absolute time t_start.
  void send(const Packet& packet, double t_start);
  /// Whether kernel time t lies in the queued packet, [start, start +
  /// duration), on the local clock with the start-edge jitter applied, as
  /// the waveform is.
  bool busy(double t) const;
  /// Time of the first pulse center of the queued packet (for ranging
  /// bookkeeping). Only valid after send().
  double first_pulse_time() const;
  /// Offset of the pulse center within its slot.
  double pulse_offset_in_slot() const { return pulse_offset_; }
  /// This node's oscillator model (built from cfg.clock + cfg.seed).
  const ClockModel& clock() const { return clock_; }

  void step_block(const double* t, double dt, int n) override;
  const double* out() const { return out_; }

 private:
  /// The antenna voltage at absolute time t.
  double sample_at(double t) const;
  /// Packet-relative local time of kernel time t (start jitter applied).
  double packet_time(double t) const;

  SystemConfig cfg_;
  ClockModel clock_;
  GaussianMonocycle pulse_;
  double pulse_offset_;  ///< pulse center relative to slot start
  std::optional<Packet> packet_;
  double t_start_ = 0.0;      ///< local-clock packet start
  double start_jitter_ = 0.0; ///< phase-noise draw of the start edge [s]
  double out_[ams::kMaxBatch] = {};
};

}  // namespace uwbams::uwb
