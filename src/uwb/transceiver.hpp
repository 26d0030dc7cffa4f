/// @file transceiver.hpp
/// @brief A full UWB node: transmitter + receiver + TWR counter.
///
/// Mirrors the SoC of Fig. 1 at the node level. The antenna switch is
/// implicit: the receiver's acquisition is started only while the node is
/// not transmitting (half-duplex), and the node does not hear its own
/// transmitter (separate channel blocks carry each direction).
///
/// The Counter block of Fig. 1 is the ranging timestamp machinery: it
/// records when the node's first preamble pulse left the antenna and folds
/// round-trip intervals by whole symbol periods (the counter counts symbol
/// ticks; the fine ToA supplies the fraction).
#pragma once

#include <functional>
#include <memory>

#include "ams/kernel.hpp"
#include "uwb/config.hpp"
#include "uwb/interference.hpp"
#include "uwb/receiver.hpp"
#include "uwb/transmitter.hpp"

namespace uwbams::uwb {

class Transceiver {
 public:
  /// `rf_input` is the output of the channel block feeding this node's
  /// receiver. The transmitter output must be wired by the caller into the
  /// outgoing channel block. This one-shot constructor registers the
  /// transmit and receive chains back to back — use it when the rf_input
  /// producer is already registered.
  Transceiver(ams::Kernel& kernel, const SystemConfig& cfg,
              const double* rf_input, const IntegratorFactory& make_integrator);

  /// Two-phase construction for full-duplex testbenches that need forward
  /// dataflow registration (transmitters -> channels -> receivers), the
  /// order the batched kernel requires: this constructor registers only the
  /// transmitter; call build_rx() after registering the channel blocks.
  Transceiver(ams::Kernel& kernel, const SystemConfig& cfg);
  void build_rx(ams::Kernel& kernel, const double* rf_input,
                const IntegratorFactory& make_integrator);

  Transmitter& tx() { return *tx_; }
  /// @throws std::logic_error when two-phase construction was used and
  /// build_rx() has not run yet (the receive chain does not exist).
  Receiver& rx();
  const double* tx_out() const { return tx_->out(); }
  /// Retires the whole receive path (interference set + receiver chain,
  /// Receiver::retire) from the kernel once nothing downstream can observe
  /// it; the transmitter keeps running. Call between run_until() calls.
  void retire_rx(ams::Kernel& kernel);

  /// Sends a packet and records the counter timestamp of its first pulse.
  void send(const Packet& packet, double t_start);
  double last_tx_pulse_time() const { return t_tx_pulse_; }

  /// Counter arithmetic: folds an estimated round-trip interval into
  /// [0, Ts) — the counter tracks whole symbol periods, the fine ToA the
  /// remainder.
  double fold_by_symbols(double interval) const;

 private:
  SystemConfig cfg_;
  std::unique_ptr<Transmitter> tx_;
  /// Interference sources + summing junction between the channel output
  /// and the receiver chain (empty config: pass-through, no blocks).
  std::unique_ptr<InterferenceSet> interf_;
  std::unique_ptr<Receiver> rx_;
  double t_tx_pulse_ = -1.0;
};

}  // namespace uwbams::uwb
