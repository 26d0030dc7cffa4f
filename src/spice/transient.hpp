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
/// **Adaptive stepping.** advance_to() runs a trapezoidal
/// predictor-corrector loop with a local-truncation-error estimate,
/// growing/shrinking the step under accept/reject control and aligning
/// step boundaries to source waveform edges (Device::next_break). Enabled
/// per session through TransientOptions::adaptive; step() remains the
/// paper's fixed-step scheme.
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

/// Adaptive local-truncation-error step control (advance_to()).
///
/// The LTE of each candidate step is estimated from the difference between
/// the solved corrector and a linear history predictor; a step is accepted
/// when the worst normalized component error is below 1.
struct AdaptiveOptions {
  bool enabled = false;       ///< off = advance_to() uses fixed opts.dt steps
  double lte_abstol = 1e-4;   ///< absolute LTE target per component [V or A]
  double lte_reltol = 1e-3;   ///< relative LTE target (vs iterate magnitude)
  double dt_min = 1e-14;      ///< smallest step the controller may take [s]
  double dt_max = 0.0;        ///< largest step [s]; 0 = unlimited
  double grow_limit = 2.0;    ///< max step growth factor per accepted step
  double shrink = 0.25;       ///< smallest shrink factor per rejected step
  double safety = 0.9;        ///< controller safety factor on the LTE ratio
};

/// Per-session engine statistics (monotonic over the session's lifetime).
/// Flushed into the process-wide engine_counters on session destruction.
struct TransientStats {
  std::uint64_t steps = 0;               ///< committed macro steps
  std::uint64_t accepted_steps = 0;      ///< accepted step attempts
  std::uint64_t rejected_steps = 0;      ///< LTE or Newton rejections
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
  /// Warm-start each step's Newton iteration from the linear history
  /// extrapolation instead of the last committed solution. Off by default:
  /// for noise-driven co-simulation inputs the extrapolation is no better
  /// than the committed solution.
  bool predictor = false;
  /// Chord (modified-Newton) iterations: keep the factorized Jacobian
  /// across iterations and steps, evaluating only device currents
  /// (Device::residual) per iteration, and rebuild the Jacobian only when
  /// (dt, method) changes or an attempt needs more than
  /// `jacobian_refresh_every` iterations. The converged fixed point is the
  /// same nonlinear system solved to the same tolerances — only the
  /// iteration path (and its cost) differs. Requires every device to
  /// support residual(); automatically off otherwise.
  bool lazy_jacobian = true;
  /// Chord-iteration budget between Jacobian rebuilds within one step
  /// attempt (>= 1).
  int jacobian_refresh_every = 3;
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
  /// Pack L/U values contiguously after each factorization so chord solves
  /// stream them sequentially (LuFactor::set_packed_solve). Identical
  /// arithmetic; pays off when each factorization serves several solves.
  bool packed_solve = false;
  /// Mosfet::commit reuses the region recorded by the last device
  /// evaluation instead of recomputing it from the final iterate — can
  /// freeze the neighboring region's Meyer caps for a device landing
  /// exactly on a region boundary, so reserved for stat_equiv runs.
  bool fused_commit = false;
  AdaptiveOptions adaptive;  ///< adaptive stepping (advance_to) knobs
  OpOptions op;              ///< initial operating point options
};

/// The engine profile of the `stat_equiv` exactness tier: chord acceptance
/// at the plain Newton tolerance (the linear-convergence safety margin the
/// bit_exact default buys costs ~20% extra iterations), packed L/U solves
/// and fused device commits. Centralized here so every stat_equiv caller
/// (scenarios, tests, benches) means the same engine.
inline void apply_stat_equiv_profile(TransientOptions* opts) {
  opts->chord_tol_scale = 1.0;
  opts->iabstol = 1e-9;
  opts->vabstol = 1e-5;
  opts->cosim_decimation = 5;
  opts->packed_solve = true;
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
  /// @throws std::runtime_error if Newton fails even after the fallbacks
  ///         (the message carries the recorded failure diagnostics).
  void step(double dt);
  /// Advance until `t_stop` with fixed opts.dt steps (legacy helper).
  void run_until(double t_stop);
  /// Advance exactly to `t_stop`. With adaptive stepping enabled this runs
  /// the LTE accept/reject loop (event-aligned, landing on t_stop); with it
  /// disabled it takes fixed opts.dt steps plus one remainder step.
  void advance_to(double t_stop);

  /// Voltage of `node` in the committed solution [V].
  double v(NodeId node) const { return circuit_->voltage_in(x_, node); }
  /// Voltage of the named node in the committed solution [V].
  /// @throws std::invalid_argument for an unknown node name.
  double v(const std::string& node_name) const;
  /// The committed solution vector (node voltages then branch currents).
  const std::vector<double>& solution() const { return x_; }
  /// The initial operating point this session started from.
  const std::vector<double>& operating_point() const { return op_; }

  /// Named voltage source handle for external driving (co-simulation).
  /// @throws std::invalid_argument when no such voltage source exists.
  VoltageSource& source(const std::string& name);

  /// Engine statistics accumulated so far.
  const TransientStats& stats() const { return stats_; }
  /// Total Newton iterations (legacy accessor; = stats().newton_iterations).
  std::uint64_t total_newton_iterations() const { return stats_.newton_iterations; }
  /// Committed steps (legacy accessor; = stats().steps).
  std::uint64_t steps_taken() const { return stats_.steps; }
  /// Fallback rescues (legacy accessor; = stats().fallback_steps).
  std::uint64_t fallback_steps() const { return stats_.fallback_steps; }

 private:
  bool newton_step(double dt, Integrator method, std::vector<double>& x);
  void extrapolate_into(double dt, std::vector<double>& out) const;
  void predict_into(double dt, std::vector<double>& x) const;
  void commit_all(const std::vector<double>& x, double dt);
  void note_history(double dt);
  double next_break_time() const;
  void record_failure(std::string reason, double pivot_ratio);

  Circuit* circuit_;
  TransientOptions opts_;
  std::vector<double> x_;   // current committed solution
  std::vector<double> op_;  // initial operating point
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

  // --- predictor history for the adaptive LTE estimate ------------------
  std::vector<double> x_pred_;   // shared extrapolation scratch
  std::vector<double> x_prev_;   // solution one committed step back
  double dt_prev_ = 0.0;
  bool have_history_ = false;
  double dt_next_ = 0.0;         // adaptive controller's persisted proposal
};

}  // namespace uwbams::spice
