#include "uwb/transceiver.hpp"

#include <cmath>
#include <stdexcept>

namespace uwbams::uwb {

Receiver& Transceiver::rx() {
  if (!rx_)
    throw std::logic_error(
        "Transceiver::rx: build_rx() has not been called (two-phase "
        "construction registers the receive chain separately)");
  return *rx_;
}

Transceiver::Transceiver(ams::Kernel& kernel, const SystemConfig& cfg,
                         const double* rf_input,
                         const IntegratorFactory& make_integrator)
    : Transceiver(kernel, cfg) {
  build_rx(kernel, rf_input, make_integrator);
}

Transceiver::Transceiver(ams::Kernel& kernel, const SystemConfig& cfg)
    : cfg_(cfg) {
  tx_ = std::make_unique<Transmitter>(cfg);
  kernel.add_analog(*tx_);
}

void Transceiver::build_rx(ams::Kernel& kernel, const double* rf_input,
                           const IntegratorFactory& make_integrator) {
  // Interference enters at the antenna node, between the channel block and
  // the LNA. An empty interference set registers nothing and out() aliases
  // rf_input, keeping the historical wiring byte-identical.
  interf_ = std::make_unique<InterferenceSet>(kernel, cfg_, rf_input);
  rx_ = std::make_unique<Receiver>(kernel, cfg_, interf_->out(),
                                   make_integrator);
}

void Transceiver::retire_rx(ams::Kernel& kernel) {
  Receiver& receiver = rx();  // throws before build_rx()
  interf_->retire(kernel);
  receiver.retire(kernel);
}

void Transceiver::send(const Packet& packet, double t_start) {
  tx_->send(packet, t_start);
  t_tx_pulse_ = tx_->first_pulse_time();
}

double Transceiver::fold_by_symbols(double interval) const {
  const double ts = cfg_.symbol_period;
  double r = std::fmod(interval, ts);
  if (r < 0.0) r += ts;
  return r;
}

}  // namespace uwbams::uwb
