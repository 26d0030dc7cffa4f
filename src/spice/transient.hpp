/// @file transient.hpp
/// @brief Resumable transient analysis with a reused fast-path workspace.
///
/// TransientSession is the unit the AMS kernel co-simulates with: it owns
/// the Newton state of one circuit and advances one time step at a time,
/// letting ams::SpiceBridge interleave circuit steps with behavioral-model
/// steps — the "substitute-and-play" mechanism of the paper's Phase III.
///
/// Solver configuration follows the paper: fixed time step (0.05 ns in the
/// system benches), Newton–Raphson per step, EPS-style tolerance 1e-6.
///
/// **Fast path.** The session owns one structure-locked Mna workspace and
/// one LuFactor for its whole lifetime: no per-iteration allocation, sparse
/// reset of the stamp pattern, and pivot-order reuse (`LuFactor::refactor`)
/// across Newton iterations and time steps, falling back to a fresh
/// partial-pivoting factorization when the frozen pivot sequence degrades.
/// Circuits with no nonlinear device skip Newton iteration entirely and
/// solve every step with a single cached factorization per (dt, method).
///
/// **Stepping.** step() is the only way time advances: one fixed step of
/// the caller's dt, rescued by backward Euler and then by four BE
/// sub-steps when Newton fails. Each step's Newton iteration starts from
/// the last committed solution.
///
/// **Checkpoints.** checkpoint() copies everything a later step() reads:
/// the committed solution and time, the LU factorization with its pivot
/// order, the cached-Jacobian and linear-path flags, and every device's
/// history (Device::save_state). restore() puts that state back, so the
/// steps after a restore are bit-identical to the steps that followed the
/// checkpoint the first time, and to those of a fresh session driven to
/// the same point. Source overrides are device state and are restored
/// too. stats() is not: it counts work actually done and keeps
/// accumulating across a restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "spice/op.hpp"

namespace uwbams::spice {

class Mosfet;

/// Per-session engine statistics (monotonic over the session's lifetime).
/// Flushed into the process-wide engine_counters on session destruction.
struct TransientStats {
  std::uint64_t steps = 0;               ///< committed macro steps
  std::uint64_t accepted_steps = 0;      ///< accepted step attempts
  std::uint64_t rejected_steps = 0;      ///< Newton rejections
  std::uint64_t fallback_steps = 0;      ///< BE / sub-step rescues
  std::uint64_t newton_iterations = 0;   ///< Newton iterations performed
  std::uint64_t factorizations = 0;      ///< fresh partial-pivot LU factors
  std::uint64_t refactorizations = 0;    ///< pivot-order-reusing refactors
  std::uint64_t solves = 0;              ///< forward/back substitutions
  std::uint64_t singular_failures = 0;   ///< singular-matrix Newton aborts
  std::uint64_t nonconverged_failures = 0;  ///< Newton iteration-cap hits
  /// Human-readable reason of the most recent Newton failure ("" = none):
  /// what failed, at which time, and the pivot ratio observed.
  std::string last_failure;
  /// Pivot ratio of the factorization involved in the last failure
  /// (degraded-column ratio for refused refactors).
  double last_failure_pivot_ratio = 0.0;
};

/// Transient solver configuration.
struct TransientOptions {
  double dt = 0.05e-9;       ///< fixed step size [s] (paper: 0.05 ns)
  Integrator method = Integrator::kTrapezoidal;  ///< companion method
  int max_newton = 60;       ///< Newton iteration cap per step attempt
  double vabstol = 1e-6;     ///< absolute convergence tolerance [V]
  double reltol = 1e-3;      ///< relative convergence tolerance
  double gmin = 1e-12;       ///< shunt at nonlinear terminals [S]
  /// Reuse the LU pivot order when the Jacobian is rebuilt (fresh
  /// partial-pivoting factorization only on pivot degradation). This knob
  /// governs rebuilds only; how often rebuilds happen is `lazy_jacobian`'s
  /// decision. To restore the pre-fast-path engine exactly (full assembly
  /// + fresh full-pivoting factorization every Newton iteration), disable
  /// **both** this and `lazy_jacobian` — as the fast-vs-classic
  /// equivalence tests do.
  bool reuse_factorization = true;
  /// Chord (modified-Newton) iterations: keep the factorized Jacobian
  /// across iterations and steps, evaluating only device currents
  /// (Device::residual) per iteration, and rebuild the Jacobian only when
  /// (dt, method) changes or three chord iterations in a row have not
  /// converged. The converged fixed point is the same nonlinear system
  /// solved to the same tolerances — only the iteration path (and its
  /// cost) differs. Requires every device to support residual();
  /// automatically off otherwise.
  bool lazy_jacobian = true;
  /// Chord iterations accept at `chord_tol_scale` times the Newton
  /// tolerance (vabstol/reltol). Chord convergence is linear rather than
  /// quadratic, so accepting at the plain tolerance leaves a larger
  /// distance-to-solution than full Newton would; tightening the chord
  /// acceptance closes that accuracy gap at the cost of roughly one extra
  /// (cheap) chord iteration per step.
  double chord_tol_scale = 0.1;
  /// Residual-based early acceptance for chord iterations: when every KCL
  /// residual entry is already below `iabstol` [A] *before* the solve, the
  /// iterate is accepted without the confirming solve-and-update. 0 = off
  /// (every acceptance goes through the update-norm test). The stat_equiv
  /// profile enables it at the classic SPICE abstol scale.
  double iabstol = 0.0;
  /// Multirate co-simulation at the bridge boundary: the spice wrapper
  /// (uwb::SpiceIntegrator) holds its input and takes one embedded solver
  /// step per `cosim_decimation` macro samples (step size dt*N), flushing
  /// pending samples at every control-phase edge so integrate/dump window
  /// timing is unchanged. 1 = lockstep (one solve per macro sample, the
  /// bit_exact behavior). Consumed by the co-simulation wrapper, not the
  /// transient engine itself.
  int cosim_decimation = 1;
  /// Mosfet::commit reuses the region recorded by the last device
  /// evaluation instead of recomputing it from the final iterate — can
  /// freeze the neighboring region's Meyer caps for a device landing
  /// exactly on a region boundary, so reserved for stat_equiv runs.
  bool fused_commit = false;
  OpOptions op;              ///< initial operating point options
};

/// The engine profile of the `stat_equiv` exactness tier: chord acceptance
/// at the plain Newton tolerance (the linear-convergence safety margin the
/// bit_exact default buys costs ~20% extra iterations), residual early
/// acceptance with relaxed tolerances, multirate co-simulation and fused
/// device commits. Centralized here so every stat_equiv caller (scenarios,
/// tests, benches) means the same engine.
inline void apply_stat_equiv_profile(TransientOptions* opts) {
  opts->chord_tol_scale = 1.0;
  opts->iabstol = 1e-9;
  opts->vabstol = 1e-5;
  opts->cosim_decimation = 5;
  opts->fused_commit = true;
}

/// Resumable transient analysis of one prepared Circuit.
class TransientSession {
 public:
  /// Prepares the circuit, solves the initial operating point and primes
  /// the dynamic device history.
  /// @throws std::runtime_error if the operating point fails to converge.
  explicit TransientSession(Circuit& circuit, TransientOptions options = {});
  /// Flushes this session's stats into the process-wide engine counters.
  ~TransientSession();
  /// Non-copyable (and, with the user-declared destructor, non-movable):
  /// the destructor's counter flush must run exactly once per session.
  TransientSession(const TransientSession&) = delete;
  TransientSession& operator=(const TransientSession&) = delete;

  /// Current simulation time [s].
  double time() const { return t_; }
  /// The solver configuration this session runs with.
  const TransientOptions& options() const { return opts_; }

  /// Advance one step of options().dt.
  void step() { step(opts_.dt); }
  /// Advance one step of an explicit dt [s], with the fixed-step rescue
  /// ladder (backward Euler, then four BE sub-steps).
  /// @throws std::invalid_argument if dt is not finite and > 0 (the
  ///         session is left unchanged).
  /// @throws std::runtime_error if Newton fails even after the fallbacks
  ///         (the message carries the recorded failure diagnostics).
  void step(double dt);
  /// Advance with fixed opts.dt steps until within half a step of `t_stop`.
  void run_until(double t_stop);

  /// Voltage of `node` in the committed solution [V].
  double v(NodeId node) const { return circuit_->voltage_in(x_, node); }
  /// Voltage of the named node in the committed solution [V].
  /// @throws std::invalid_argument for an unknown node name.
  double v(const std::string& node_name) const;
  /// The committed solution vector (node voltages then branch currents).
  const std::vector<double>& solution() const { return x_; }

  /// Named voltage source handle for external driving (co-simulation).
  /// @throws std::invalid_argument when no such voltage source exists.
  VoltageSource& source(const std::string& name);

  /// Engine statistics accumulated so far.
  const TransientStats& stats() const { return stats_; }

  /// An exact snapshot of the session's stepping state (see the file
  /// comment). Opaque; it restores only into the session that took it.
  class Checkpoint {
   private:
    friend class TransientSession;
    const TransientSession* owner_ = nullptr;
    std::vector<double> x_;
    double t_ = 0.0;
    linalg::LuFactor<double> lu_;
    bool lu_primed_ = false;
    bool linear_lu_fresh_ = false;
    double linear_lu_dt_ = -1.0;
    Integrator linear_lu_method_ = Integrator::kTrapezoidal;
    double jac_dt_ = -1.0;
    Integrator jac_method_ = Integrator::kTrapezoidal;
    std::vector<double> devices_;  // Device::save_state, in device order
  };
  /// Snapshot of the current state.
  Checkpoint checkpoint() const;
  /// Returns the session to `cp`'s state; stats() keeps accumulating.
  /// @throws std::invalid_argument if another session took `cp`.
  void restore(const Checkpoint& cp);

 private:
  bool newton_step(double dt, Integrator method, std::vector<double>& x);
  bool factorize(double t, int newton_iteration);
  void accept(double dt);
  void record_failure(std::string reason, double pivot_ratio);

  Circuit* circuit_;
  TransientOptions opts_;
  std::vector<double> x_;   // current committed solution
  double t_ = 0.0;
  TransientStats stats_;

  // --- reused fast-path workspace (no allocation after construction) ----
  // Devices split by concrete type so the per-iteration loops call
  // Mosfet::residual/stamp directly (devirtualized, inlinable); evaluation
  // order (linear devices first, then MOSFETs in netlist order) is fixed.
  std::vector<const Mosfet*> mosfets_;
  std::vector<const Device*> others_;
  // Devices whose commit()/state matters — stateless element types
  // (R, V, I, VCVS, VCCS) are filtered out of the per-step commit loop.
  std::vector<Device*> stateful_;
  std::shared_ptr<const MnaPattern> pattern_;
  Mna<double> mna_;
  linalg::LuFactor<double> lu_;
  bool lu_primed_ = false;       // lu_ holds a usable pivot order
  bool linear_lu_fresh_ = false; // linear path: factorization matches...
  double linear_lu_dt_ = -1.0;   // ...this (dt, method) pair
  Integrator linear_lu_method_ = Integrator::kTrapezoidal;
  double jac_dt_ = -1.0;         // (dt, method) the cached Jacobian was...
  Integrator jac_method_ = Integrator::kTrapezoidal;  // ...assembled for
  std::vector<double> x_work_;   // step candidate
  std::vector<double> x_new_;    // Newton iterate scratch
  std::vector<double> f_;        // residual / chord update scratch
};

}  // namespace uwbams::spice
