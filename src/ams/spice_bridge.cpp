#include "ams/spice_bridge.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uwbams::ams {

SpiceBridge::SpiceBridge(std::unique_ptr<spice::Circuit> circuit,
                         spice::TransientOptions options)
    : circuit_(std::move(circuit)), opts_(options) {
  if (!circuit_) throw std::invalid_argument("SpiceBridge: null circuit");
}

SpiceBridge::~SpiceBridge() = default;

void SpiceBridge::bind_input(const std::string& vsource_name,
                             const double* signal, double slew_per_ns) {
  if (primed())
    throw std::logic_error("SpiceBridge: bind_input after prime()");
  auto* dev = circuit_->find_device(vsource_name);
  auto* src = dynamic_cast<spice::VoltageSource*>(dev);
  if (src == nullptr)
    throw std::invalid_argument("SpiceBridge: no voltage source '" +
                                vsource_name + "'");
  inputs_.push_back(InputBinding{src, signal, slew_per_ns});
}

const double* SpiceBridge::bind_output(const std::string& node_p,
                                       const std::string& node_m) {
  const spice::NodeId p = circuit_->find_node(node_p);
  const spice::NodeId m = circuit_->find_node(node_m);
  if (p < 0 || m < 0)
    throw std::invalid_argument("SpiceBridge: unknown output node");
  outputs_.push_back(OutputBinding{p, m, std::make_unique<double>(0.0)});
  return outputs_.back().value.get();
}

void SpiceBridge::prime() {
  if (primed()) return;
  // Use the current input signal values as the DC condition for the OP.
  for (auto& in : inputs_) {
    in.last = *in.signal;
    in.has_last = true;
    in.source->set_override(in.last);
  }
  session_ = std::make_unique<spice::TransientSession>(*circuit_, opts_);
  for (auto& out : outputs_)
    *out.value = session_->v(out.p) - session_->v(out.m);
}

void SpiceBridge::step_block(const double* /*t*/, double dt, int n) {
  if (!primed()) prime();
  for (int i = 0; i < n; ++i) {
    for (auto& in : inputs_) {
      double target = *in.signal;
      if (in.slew_per_ns > 0.0 && in.has_last) {
        const double max_delta = in.slew_per_ns * dt * 1e9;
        target = std::clamp(target, in.last - max_delta, in.last + max_delta);
      }
      in.last = target;
      in.source->set_override(target);
    }
    session_->step(dt);
    for (auto& out : outputs_)
      *out.value = session_->v(out.p) - session_->v(out.m);
  }
}

double SpiceBridge::v(const std::string& node) const {
  if (!primed()) throw std::logic_error("SpiceBridge::v before prime()");
  return session_->v(node);
}

const spice::TransientSession& SpiceBridge::session() const {
  if (!primed()) throw std::logic_error("SpiceBridge::session before prime()");
  return *session_;
}

}  // namespace uwbams::ams
