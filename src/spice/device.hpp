/// @file device.hpp
/// @brief The device interface of the transistor-level simulator.
///
/// Devices stamp their companion models into an Mna system. Nonlinear
/// devices (MOSFETs) stamp the linearization around the current Newton
/// iterate; dynamic devices (capacitors, inductors, MOS capacitances) stamp
/// the trapezoidal or backward-Euler companion using committed history from
/// the previous accepted time step.
///
/// For the transient fast path every device additionally reports, once,
/// the set of matrix entries its stamp can ever touch (`footprint()`);
/// `Circuit::prepare()` unions those into the structure-locked workspace
/// that `TransientSession` reuses across Newton iterations.
#pragma once

#include <string>
#include <vector>

#include "spice/mna.hpp"

namespace uwbams::spice {

class Circuit;

/// Analysis kind a stamp is being assembled for.
enum class AnalysisMode {
  kOp,         ///< DC operating point: capacitors open, inductors short
  kTransient,  ///< companion models active
};

/// Companion-model integration method for dynamic devices.
enum class Integrator {
  kTrapezoidal,    ///< second order, marginally stable (may ring)
  kBackwardEuler,  ///< first order, L-stable (damped)
};

/// Per-stamp context shared by all devices.
struct StampArgs {
  AnalysisMode mode = AnalysisMode::kOp;       ///< analysis being assembled
  Integrator method = Integrator::kTrapezoidal;  ///< companion method
  /// Current Newton iterate (node voltages then branch currents).
  const std::vector<double>* x = nullptr;
  double t = 0.0;       ///< end time of the step being solved [s]
  double dt = 0.0;      ///< step size [s] (0 during OP)
  double inv_dt = 0.0;  ///< 1/dt, precomputed once per step (0 during OP)
  // Homotopy controls used by the OP solver.
  double gmin = 0.0;          ///< shunt conductance at nonlinear terminals [S]
  double source_scale = 1.0;  ///< scales independent sources (source stepping)
};

/// Base class of every circuit element.
class Device {
 public:
  /// Constructs a device with a unique (per-circuit) name.
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// The netlist name of this device.
  const std::string& name() const { return name_; }

  /// Number of extra branch-current unknowns this device contributes.
  virtual int branches() const { return 0; }
  /// Called by Circuit::prepare() with the matrix index of the first branch.
  void set_branch_base(int base) { branch_base_ = base; }
  /// Matrix index of the first branch unknown (-1 when none assigned).
  int branch_base() const { return branch_base_; }

  /// True if the device requires Newton iteration (its stamp depends on x).
  virtual bool nonlinear() const { return false; }

  /// Large-signal stamp (OP and transient Newton iterations).
  virtual void stamp(Mna<double>& mna, const StampArgs& args) const = 0;

  /// Declares every matrix entry stamp() may ever touch. The default is the
  /// safe dense fallback; all built-in devices override it with their exact
  /// footprint. Must be a superset of stamp()'s add() targets for every
  /// analysis mode and operating region.
  virtual void footprint(MnaPattern& pattern) const { pattern.add_dense(); }

  /// True when residual() is implemented. When every device of a circuit
  /// supports it, the transient solver may run chord (modified-Newton)
  /// iterations that evaluate only device currents between Jacobian
  /// refreshes — the factorization-reuse fast path.
  virtual bool supports_residual() const { return false; }

  /// Adds this device's KCL/branch residual contributions at the iterate
  /// `args.x` into `f`: exactly A_dev(x)·x − b_dev(x) of the stamp() the
  /// same args would produce, but without forming the matrix. Only called
  /// when supports_residual() returns true.
  virtual void residual(std::vector<double>& f, const StampArgs& args) const {
    (void)f;
    (void)args;
  }

  /// Small-signal AC stamp around the committed operating point `op`.
  /// `omega` is the angular frequency [rad/s]. Devices must override (the
  /// DC linearization cannot be reused generically).
  virtual void stamp_ac(Mna<std::complex<double>>& mna,
                        const std::vector<double>& op, double omega) const = 0;

  /// Initialize dynamic state from a converged operating point.
  virtual void init_state(const std::vector<double>& op) { (void)op; }
  /// Accept the step: update history (capacitor charge/current, MOS region).
  virtual void commit(const std::vector<double>& x, double t, double dt) {
    (void)x;
    (void)t;
    (void)dt;
  }

  /// Appends every value a later transient step reads from this device
  /// (companion history, a source override) to `out`. load_state() reads
  /// them back in the same order: TransientSession::checkpoint()/restore()
  /// use the pair. The default is stateless.
  virtual void save_state(std::vector<double>& out) const { (void)out; }
  /// Restores what save_state() appended, reading from `in`; returns the
  /// position just past this device's values.
  virtual const double* load_state(const double* in) { return in; }

  /// Netlist element card for this device (see netlist_writer.hpp).
  virtual std::string card(const Circuit& circuit) const;

 protected:
  /// Reads the voltage at matrix index `idx` (-1 = ground) out of the
  /// iterate.
  static double v_at(const std::vector<double>& x, int idx) {
    return idx >= 0 ? x[static_cast<std::size_t>(idx)] : 0.0;
  }

 private:
  std::string name_;
  int branch_base_ = -1;
};

}  // namespace uwbams::spice
