// spice_bridge.hpp — substitute-and-play: a Spice netlist as an AMS block.
//
// This is the mechanism of the paper's Phase III: the system testbench
// stays behavioral, but one block is replaced by its transistor-level
// netlist, co-simulated in lockstep ("the component instantiation defines a
// VHDL-AMS/ELDO co-simulation"). Input bindings drive named voltage sources
// of the embedded circuit from AMS signals; output bindings publish node
// (or differential node) voltages back as AMS signals.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ams/kernel.hpp"
#include "spice/circuit.hpp"
#include "spice/transient.hpp"

namespace uwbams::ams {

class SpiceBridge : public AnalogBlock {
 public:
  // Takes ownership of the circuit. The transient session (with its
  // operating-point solve) starts on first step or explicit prime().
  SpiceBridge(std::unique_ptr<spice::Circuit> circuit,
              spice::TransientOptions options);
  ~SpiceBridge() override;

  // Binds an AMS signal to the named voltage source of the circuit.
  // `slew_per_ns` limits the drive's rate of change (V/ns); 0 = unlimited.
  // Finite slew matches physical drivers and avoids exciting step
  // discontinuities in the embedded solver.
  void bind_input(const std::string& vsource_name, const double* signal,
                  double slew_per_ns = 0.0);
  // Publishes v(node_p) - v(node_m) into an owned output slot; returns a
  // stable pointer to it (wire this into downstream blocks).
  const double* bind_output(const std::string& node_p,
                            const std::string& node_m = "0");

  // Solves the operating point and initializes the transient session using
  // the current values of all bound input signals as DC drives.
  void prime();
  bool primed() const { return session_ != nullptr; }

  // Runs one embedded macro step of length dt per batch sample,
  // re-reading the bound input signals each sample. That is exactly the
  // per-sample sequence when the bound signals are plain scalars (constant
  // over a batch) or driven per sample by a wrapper such as
  // uwb::SpiceIntegrator, which calls this with n = 1. Do NOT wire a bound
  // input directly at a producer's out() buffer — the bridge would re-read
  // sample 0 of the batch; wrap it (as SpiceIntegrator does) instead.
  void step_block(const double* t, double dt, int n) override;

  // Direct probe (valid after prime()).
  double v(const std::string& node) const;
  const spice::TransientSession& session() const;
  spice::Circuit& circuit() { return *circuit_; }

 private:
  struct InputBinding {
    spice::VoltageSource* source;
    const double* signal;
    double slew_per_ns;
    double last = 0.0;
    bool has_last = false;
  };
  struct OutputBinding {
    spice::NodeId p;
    spice::NodeId m;
    std::unique_ptr<double> value;
  };

  std::unique_ptr<spice::Circuit> circuit_;
  spice::TransientOptions opts_;
  std::unique_ptr<spice::TransientSession> session_;
  std::vector<InputBinding> inputs_;
  std::vector<OutputBinding> outputs_;
};

}  // namespace uwbams::ams
