/// @file devices.hpp
/// @brief Linear and source devices: R, C, L, V, I, VCVS, VCCS.
///
/// Node connections are stored as MNA matrix indices (node id - 1; ground
/// is -1). Dynamic devices keep trapezoidal/backward-Euler companion
/// history that is updated by commit() after each accepted time step.
/// Every device declares its exact stamp footprint for the structure-locked
/// fast path.
#pragma once

#include <string>
#include <vector>

#include "spice/device.hpp"

namespace uwbams::spice {

/// Converts a NodeId to an MNA matrix index (-1 = ground).
inline int mna_index(int node_id) { return node_id - 1; }

/// Ideal linear resistor.
class Resistor final : public Device {
 public:
  /// Resistor of `ohms` ohms between nodes n1 and n2 (NodeIds).
  /// @throws std::invalid_argument when ohms <= 0.
  Resistor(std::string name, int n1, int n2, double ohms);
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  /// Resistance [ohm].
  double resistance() const { return ohms_; }
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_;
  double ohms_;
  double g_;  // precomputed 1/ohms, the per-stamp value
};

/// Ideal linear capacitor (trapezoidal/BE companion in transient).
class Capacitor final : public Device {
 public:
  /// Capacitor of `farads` farads between nodes n1 and n2 (NodeIds).
  /// @throws std::invalid_argument when farads <= 0.
  Capacitor(std::string name, int n1, int n2, double farads);
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  void init_state(const std::vector<double>& op) override;
  void commit(const std::vector<double>& x, double t, double dt) override;
  void save_state(std::vector<double>& out) const override;
  const double* load_state(const double* in) override;
  /// Capacitance [F].
  double capacitance() const { return farads_; }
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_;
  double farads_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
};

/// Ideal linear inductor (one branch-current unknown).
class Inductor final : public Device {
 public:
  /// Inductor of `henries` henries between nodes n1 and n2 (NodeIds).
  /// @throws std::invalid_argument when henries <= 0.
  Inductor(std::string name, int n1, int n2, double henries);
  int branches() const override { return 1; }
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  void init_state(const std::vector<double>& op) override;
  void commit(const std::vector<double>& x, double t, double dt) override;
  void save_state(std::vector<double>& out) const override;
  const double* load_state(const double* in) override;
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_;
  double henries_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
};

/// Time-dependent source waveform: DC, PULSE, SIN, PWL — the subset of
/// SPICE source shapes the testbenches need. An external override (used by
/// the AMS co-simulation bridge) takes precedence over the waveform when
/// engaged.
class Waveform {
 public:
  /// Constant value v [V or A].
  static Waveform dc(double v);
  /// SPICE PULSE(v1 v2 delay rise fall width period); times in seconds.
  static Waveform pulse(double v1, double v2, double delay, double rise,
                        double fall, double width, double period);
  /// SPICE SIN(offset amplitude freq) with optional start delay [s].
  static Waveform sine(double offset, double amplitude, double freq,
                       double delay = 0.0);
  /// Piecewise-linear waveform through (times[i], values[i]).
  /// @throws std::invalid_argument on an empty or mismatched point list.
  static Waveform pwl(std::vector<double> times, std::vector<double> values);

  /// Waveform value at time t [s].
  double value(double t) const;
  /// Value at t = 0 (the DC operating-point drive).
  double dc_value() const { return value(0.0); }

 private:
  enum class Kind { kDc, kPulse, kSin, kPwl };
  Kind kind_ = Kind::kDc;
  // dc / pulse / sin parameters (interpretation depends on kind).
  double p_[7] = {0, 0, 0, 0, 0, 0, 0};
  std::vector<double> pwl_t_, pwl_v_;
};

/// Independent voltage source (one branch-current unknown).
class VoltageSource final : public Device {
 public:
  /// Voltage source from n1 (+) to n2 (-) driven by `wf`, with optional
  /// small-signal AC stimulus (magnitude [V], phase [deg]).
  VoltageSource(std::string name, int n1, int n2, Waveform wf,
                double ac_mag = 0.0, double ac_phase_deg = 0.0);
  int branches() const override { return 1; }
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;

  /// External drive used by the AMS co-simulation bridge: once set, the
  /// override value replaces the waveform until clear_override().
  void set_override(double v) {
    override_ = v;
    has_override_ = true;
  }
  /// Re-engages the waveform after an override.
  void clear_override() { has_override_ = false; }
  /// The override (value and whether it is engaged) is this source's
  /// checkpointed state.
  void save_state(std::vector<double>& out) const override;
  const double* load_state(const double* in) override;
  /// Effective drive value at time t [s] (override wins over waveform).
  double value(double t) const;
  /// Branch current in a solution vector (positive current flows from the +
  /// node through the source to the - node).
  double current_in(const std::vector<double>& x) const;
  /// Sets the small-signal AC stimulus (magnitude [V], phase [deg]).
  void set_ac(double mag, double phase_deg) {
    ac_mag_ = mag;
    ac_phase_deg_ = phase_deg;
  }
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_;
  Waveform wf_;
  double ac_mag_;
  double ac_phase_deg_;
  double override_ = 0.0;
  bool has_override_ = false;
};

/// Independent current source (no extra unknowns).
class CurrentSource final : public Device {
 public:
  /// Current source pushing `wf` amps from n1 into n2.
  CurrentSource(std::string name, int n1, int n2, Waveform wf,
                double ac_mag = 0.0);
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_;
  Waveform wf_;
  double ac_mag_;
};

/// Voltage-controlled voltage source: v(a,b) = gain * v(ca, cb).
class Vcvs final : public Device {
 public:
  /// VCVS across (n1, n2) controlled by v(nc1) - v(nc2).
  Vcvs(std::string name, int n1, int n2, int nc1, int nc2, double gain);
  int branches() const override { return 1; }
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_, ca_, cb_;
  double gain_;
};

/// Voltage-controlled current source: i(a->b) = gm * v(ca, cb).
class Vccs final : public Device {
 public:
  /// VCCS from n1 into n2 controlled by v(nc1) - v(nc2), transconductance
  /// gm [S].
  Vccs(std::string name, int n1, int n2, int nc1, int nc2, double gm);
  void stamp(Mna<double>& mna, const StampArgs& args) const override;
  bool supports_residual() const override { return true; }
  void residual(std::vector<double>& f, const StampArgs& args) const override;
  void footprint(MnaPattern& pattern) const override;
  void stamp_ac(Mna<std::complex<double>>& mna, const std::vector<double>& op,
                double omega) const override;
  std::string card(const Circuit& circuit) const override;

 private:
  int a_, b_, ca_, cb_;
  double gm_;
};

}  // namespace uwbams::spice
