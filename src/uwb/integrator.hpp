/// @file integrator.hpp
/// @brief The Integrate & Dump block in its three fidelities.
///
/// This is the block the paper walks through the methodology:
///
///   * IdealIntegrator   (Phase II):  if sel='1' use vo'Dot == vin*K
///   * SpiceIntegrator   (Phase III): the imported 31-transistor netlist,
///                                    co-simulated through ams::SpiceBridge
///   * TwoPoleIntegrator (Phase IV):  the two coupled ODEs with the DC gain
///                                    and the two poles characterized from
///                                    the netlist (plus an optional input
///                                    linear-range clamp — the non-ideality
///                                    the paper's model deliberately lacks,
///                                    causing the Fig. 5 mismatch)
///
/// All three satisfy IntegrateAndDump, so the system testbench swaps them
/// without any other change (substitute-and-play).
#pragma once

#include <memory>
#include <string>

#include "ams/kernel.hpp"
#include "ams/ode.hpp"
#include "ams/spice_bridge.hpp"
#include "spice/itd_builder.hpp"
#include "uwb/config.hpp"

namespace uwbams::uwb {

class IntegrateAndDump : public ams::AnalogBlock {
 public:
  /// Control phases map to the cell's (Controlp, Controlm) rails:
  ///   kDump      = (1,1): switches closed, reset on — clears the capacitor
  ///                "prior to restart integration" (paper §4)
  ///   kIntegrate = (1,0): switches closed, accumulating
  ///   kHold      = (0,0): capacitor floating for the ADC conversion
  enum class Mode { kDump, kIntegrate, kHold };

  ~IntegrateAndDump() override = default;
  virtual void set_mode(Mode mode) = 0;
  virtual Mode mode() const = 0;
  /// Integrated differential output voltage (what the ADC samples).
  virtual double output() const = 0;
  virtual std::string kind() const = 0;
};

/// Phase II: vo' = K * vin while integrating.
///
/// For all three integrators, mode changes arrive from the
/// window controller's digital events, which the kernel only fires at batch
/// boundaries, so one switch over the mode covers a whole batch and the
/// integrate-phase recurrence runs as a tight loop over the input buffer.
class IdealIntegrator final : public IntegrateAndDump {
 public:
  IdealIntegrator(const double* input, double k);
  void set_mode(Mode mode) override;
  Mode mode() const override { return mode_; }
  double output() const override { return state_.value(); }
  std::string kind() const override { return "IDEAL"; }
  void step_block(const double* t, double dt, int n) override;

 private:
  const double* in_;
  ams::IdealIntegratorState state_;
  Mode mode_ = Mode::kDump;
};

/// Phase IV: two coupled ODEs (gain + two poles), optional input clamp.
struct TwoPoleParams {
  double dc_gain_db = 21.0;
  double f_pole1 = 0.886e6;   ///< [Hz]
  double f_pole2 = 5.895e9;   ///< [Hz]
  double input_clamp = 0.0;   ///< [V]; 0 disables (the paper's linear model)
};

class TwoPoleIntegrator final : public IntegrateAndDump {
 public:
  TwoPoleIntegrator(const double* input, const TwoPoleParams& params);
  void set_mode(Mode mode) override;
  Mode mode() const override { return mode_; }
  double output() const override { return state_.value(); }
  std::string kind() const override { return "VHDL-AMS"; }
  const TwoPoleParams& params() const { return params_; }
  void step_block(const double* t, double dt, int n) override;

 private:
  const double* in_;
  TwoPoleParams params_;
  ams::TwoPoleState state_;
  Mode mode_ = Mode::kDump;
};

/// Phase III: the transistor-level cell through the co-simulation bridge.
class SpiceIntegrator final : public IntegrateAndDump {
 public:
  /// `input` is the differential squarer output; it is applied around the
  /// cell's 0.9 V input common mode. The embedded solver runs at the
  /// kernel's step (options.dt is only the default).
  SpiceIntegrator(const double* input, const spice::ItdSizing& sizing = {},
                  spice::TransientOptions options = {});
  void set_mode(Mode mode) override;
  Mode mode() const override { return mode_; }
  double output() const override { return *out_; }
  std::string kind() const override { return "ELDO"; }
  /// Batching stops at the co-simulation boundary: each batch sample is one
  /// macro step of the embedded solver, driven with that sample's input.
  void step_block(const double* t, double dt, int n) override;

  ams::SpiceBridge& bridge() { return *bridge_; }

 private:
  const double* in_;
  double input_cm_;
  double vdd_;
  std::unique_ptr<ams::SpiceBridge> bridge_;
  const double* out_;
  /// Signals driven into the embedded circuit.
  double vinp_ = 0.9, vinm_ = 0.9, ctrlp_ = 1.8, ctrlm_ = 1.8;
  Mode mode_ = Mode::kDump;
  /// Multirate co-simulation (TransientOptions::cosim_decimation): one
  /// embedded solver step per `decim_` macro samples, at step size dt*N
  /// with the latest sample held as the drive. set_mode() flushes pending
  /// samples so the integrate/dump window edges stay sample-accurate.
  int decim_ = 1;
  int pend_n_ = 0;
  double pend_t_ = 0.0;
  double pend_dt_ = 0.0;
  void flush_pending();
};

}  // namespace uwbams::uwb
