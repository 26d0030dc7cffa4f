#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "spice/engine_counters.hpp"
#include "spice/mosfet.hpp"

namespace uwbams::spice {

namespace {
// Chord-iteration budget between Jacobian rebuilds within one step attempt.
constexpr int kJacobianRefreshEvery = 3;
}  // namespace

TransientSession::TransientSession(Circuit& circuit, TransientOptions options)
    : circuit_(&circuit), opts_(options), mna_(0) {
  circuit_->prepare();
  OpResult op = solve_op(*circuit_, opts_.op);
  if (!op.converged)
    throw std::runtime_error("TransientSession: operating point did not converge");
  x_ = op.x;
  for (const auto& dev : circuit_->devices()) dev->init_state(x_);
  // One structure-locked workspace for the session's whole lifetime.
  pattern_ = circuit_->stamp_pattern();
  mna_ = Mna<double>(*pattern_);
  for (const auto& dev : circuit_->devices()) {
    if (auto* m = dynamic_cast<Mosfet*>(dev.get())) {
      m->set_fused_commit(opts_.fused_commit);
      mosfets_.push_back(m);
    } else {
      others_.push_back(dev.get());
    }
    const Device* d = dev.get();
    const bool stateless = dynamic_cast<const Resistor*>(d) ||
                           dynamic_cast<const VoltageSource*>(d) ||
                           dynamic_cast<const CurrentSource*>(d) ||
                           dynamic_cast<const Vcvs*>(d) ||
                           dynamic_cast<const Vccs*>(d);
    if (!stateless) stateful_.push_back(dev.get());
  }
  x_work_ = x_;
  x_new_ = x_;
}

TransientSession::~TransientSession() {
  engine_counters::add_transient(stats_);
}

double TransientSession::v(const std::string& node_name) const {
  const NodeId n = circuit_->find_node(node_name);
  if (n < 0)
    throw std::invalid_argument("TransientSession: unknown node '" + node_name + "'");
  return v(n);
}

VoltageSource& TransientSession::source(const std::string& name) {
  Device* d = circuit_->find_device(name);
  auto* vs = dynamic_cast<VoltageSource*>(d);
  if (!vs)
    throw std::invalid_argument("TransientSession: no voltage source '" + name + "'");
  return *vs;
}

TransientSession::Checkpoint TransientSession::checkpoint() const {
  Checkpoint cp;
  cp.owner_ = this;
  cp.x_ = x_;
  cp.t_ = t_;
  cp.lu_ = lu_;
  cp.lu_primed_ = lu_primed_;
  cp.linear_lu_fresh_ = linear_lu_fresh_;
  cp.linear_lu_dt_ = linear_lu_dt_;
  cp.linear_lu_method_ = linear_lu_method_;
  cp.jac_dt_ = jac_dt_;
  cp.jac_method_ = jac_method_;
  for (const auto& dev : circuit_->devices()) dev->save_state(cp.devices_);
  return cp;
}

void TransientSession::restore(const Checkpoint& cp) {
  if (cp.owner_ != this)
    throw std::invalid_argument(
        "TransientSession::restore: checkpoint of another session");
  x_ = cp.x_;
  t_ = cp.t_;
  lu_ = cp.lu_;
  lu_primed_ = cp.lu_primed_;
  linear_lu_fresh_ = cp.linear_lu_fresh_;
  linear_lu_dt_ = cp.linear_lu_dt_;
  linear_lu_method_ = cp.linear_lu_method_;
  jac_dt_ = cp.jac_dt_;
  jac_method_ = cp.jac_method_;
  const double* in = cp.devices_.data();
  for (const auto& dev : circuit_->devices()) in = dev->load_state(in);
}

void TransientSession::record_failure(std::string reason, double pivot_ratio) {
  stats_.last_failure = std::move(reason);
  stats_.last_failure_pivot_ratio = pivot_ratio;
}

// Factorizes the assembled mna_ matrix: a refactor on the frozen pivot
// order when allowed and primed, else (or when that degrades) a fresh
// partial-pivoting factor with the stamp pattern's schedule. Counts the
// work. On a singular matrix it counts and records the failure of Newton
// iteration `newton_iteration` at time t (0: the linear path's one solve)
// and returns false with lu_ unprimed.
bool TransientSession::factorize(double t, int newton_iteration) {
  if (opts_.reuse_factorization && lu_primed_ && lu_.refactor(mna_.matrix())) {
    ++stats_.refactorizations;
    return true;
  }
  try {
    lu_.factor(mna_.matrix(), &pattern_->sparsity());
  } catch (const std::runtime_error& e) {
    ++stats_.singular_failures;
    record_failure(
        newton_iteration == 0
            ? "singular matrix in linear step at t=" + std::to_string(t) +
                  ": " + e.what()
            : "singular matrix at t=" + std::to_string(t) +
                  " (newton iteration " + std::to_string(newton_iteration) +
                  "): " + e.what(),
        lu_.pivot_ratio());
    lu_primed_ = false;
    return false;
  }
  ++stats_.factorizations;
  lu_primed_ = true;
  return true;
}

bool TransientSession::newton_step(double dt, Integrator method,
                                   std::vector<double>& x) {
  const std::size_t n = circuit_->unknown_count();
  StampArgs args;
  args.mode = AnalysisMode::kTransient;
  args.method = method;
  args.t = t_ + dt;
  args.dt = dt;
  args.inv_dt = 1.0 / dt;
  args.gmin = opts_.gmin;
  args.x = &x;

  if (circuit_->linear()) {
    // Linear circuits: no stamp depends on x, so one solve is exact and the
    // matrix depends only on (dt, method) — a single cached factorization
    // serves the whole transient at a fixed step.
    mna_.reset();
    for (const auto& dev : circuit_->devices()) dev->stamp(mna_, args);
    ++stats_.newton_iterations;
    if (!linear_lu_fresh_ || linear_lu_dt_ != dt ||
        linear_lu_method_ != method) {
      // A (dt, method) change only rescales companion values — same
      // structure — so the frozen pivot order usually survives: refactor
      // first (cheap, no pivot search; the BE rescues and sub-steps change
      // (dt, method)) and fall back to a fresh partial-pivoting
      // factorization when it degrades.
      if (!factorize(args.t, 0)) {
        linear_lu_fresh_ = false;
        return false;
      }
      linear_lu_fresh_ = true;
      linear_lu_dt_ = dt;
      linear_lu_method_ = method;
    }
    x = mna_.rhs();
    lu_.solve_in_place(x);
    ++stats_.solves;
    return true;
  }

  const bool chord = opts_.lazy_jacobian && circuit_->residual_capable();
  // Chord iterations only contract while the cached Jacobian is close
  // enough; track the update norm and rebuild as soon as contraction stops
  // (mode switches, large drive edges) instead of waiting for the budget.
  constexpr double kChordClamp = 1.0;  // revert chord updates larger than this
  double prev_max_delta = std::numeric_limits<double>::infinity();
  bool chord_ok = chord;  // cleared for the attempt once chording misbehaves
  int chord_streak = 0;
  for (int it = 0; it < opts_.max_newton; ++it) {
    ++stats_.newton_iterations;
    const bool jac_stale = !lu_primed_ || jac_dt_ != dt || jac_method_ != method;
    const bool refresh =
        !chord_ok || jac_stale || (chord_streak >= kJacobianRefreshEvery);
    double check = 0.0;  // NaN/inf sentinel over the update
    bool converged = true;
    if (refresh) {
      // Full Newton iteration: assemble the linearized system, factorize
      // (reusing the frozen pivot order when allowed, falling back to a
      // fresh partial-pivoting factorization when it degrades) and solve.
      mna_.reset();
      for (const Device* dev : others_) dev->stamp(mna_, args);
      for (const Mosfet* m : mosfets_) m->Mosfet::stamp(mna_, args);
      if (!factorize(args.t, it + 1)) return false;
      jac_dt_ = dt;
      jac_method_ = method;
      x_new_ = mna_.rhs();
      lu_.solve_in_place(x_new_);
      ++stats_.solves;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = x_new_[i] - x[i];
        check += delta;
        max_delta = std::max(max_delta, std::abs(delta));
        if (std::abs(delta) > opts_.vabstol + opts_.reltol * std::abs(x_new_[i]))
          converged = false;
      }
      x.swap(x_new_);
      prev_max_delta = max_delta;
      chord_streak = 0;
    } else {
      // Chord iteration: device currents only, solved against the cached
      // factorization. Same fixed point, no assembly, no factorization.
      f_.assign(n, 0.0);
      for (const Device* dev : others_) dev->residual(f_, args);
      for (const Mosfet* m : mosfets_) m->Mosfet::residual(f_, args);
      if (opts_.iabstol > 0.0) {
        // The KCL mismatch of the current iterate is already below the
        // current tolerance everywhere: accept without the confirming
        // solve-and-update (the update it would compute is O(|f|)).
        double max_f = 0.0;
        for (std::size_t i = 0; i < n; ++i)
          max_f = std::max(max_f, std::abs(f_[i]));
        if (max_f <= opts_.iabstol) return true;
      }
      lu_.solve_in_place(f_);
      ++stats_.solves;
      const double scale = opts_.chord_tol_scale;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = f_[i];
        check += delta;
        max_delta = std::max(max_delta, std::abs(delta));
        x[i] -= delta;
        if (std::abs(delta) >
            scale * (opts_.vabstol + opts_.reltol * std::abs(x[i])))
          converged = false;
      }
      ++chord_streak;
      if (std::isfinite(check) && max_delta > kChordClamp) {
        // The stale Jacobian sent the iterate flying; undo the update and
        // run full Newton for the rest of this attempt.
        for (std::size_t i = 0; i < n; ++i) x[i] += f_[i];
        chord_ok = false;
        continue;
      }
      // A chord pass that stops contracting (mode switches, region
      // chatter) would limit-cycle against the refreshes; fall back to
      // full Newton for the rest of this attempt instead.
      if (max_delta >= prev_max_delta) chord_ok = false;
      prev_max_delta = max_delta;
    }
    if (!std::isfinite(check)) {
      ++stats_.singular_failures;
      record_failure("non-finite Newton update at t=" + std::to_string(args.t) +
                         " (newton iteration " + std::to_string(it + 1) +
                         ", pivot ratio " + std::to_string(lu_.pivot_ratio()) +
                         ")",
                     lu_.pivot_ratio());
      lu_primed_ = false;
      return false;
    }
    if (converged) return true;
  }
  ++stats_.nonconverged_failures;
  record_failure("Newton did not converge in " +
                     std::to_string(opts_.max_newton) + " iterations at t=" +
                     std::to_string(t_ + dt) +
                     " (pivot ratio " + std::to_string(lu_.pivot_ratio()) + ")",
                 lu_.pivot_ratio());
  return false;
}

// Commits x_work_ as the solution at t_ + dt.
void TransientSession::accept(double dt) {
  for (Device* dev : stateful_) dev->commit(x_work_, t_ + dt, dt);
  x_.swap(x_work_);
  t_ += dt;
  ++stats_.accepted_steps;
}

void TransientSession::step(double dt) {
  if (!(std::isfinite(dt) && dt > 0.0))
    throw std::invalid_argument("TransientSession::step: dt = " +
                                std::to_string(dt) +
                                " is not finite and > 0");

  x_work_ = x_;
  if (newton_step(dt, opts_.method, x_work_)) {
    accept(dt);
    ++stats_.steps;
    return;
  }

  // Fallback 1: backward Euler is more damped, often rescues the step.
  ++stats_.rejected_steps;
  x_work_ = x_;
  if (newton_step(dt, Integrator::kBackwardEuler, x_work_)) {
    accept(dt);
    ++stats_.steps;
    ++stats_.fallback_steps;
    return;
  }

  // Fallback 2: four BE sub-steps.
  ++stats_.rejected_steps;
  ++stats_.fallback_steps;
  const double sub = dt / 4.0;
  for (int k = 0; k < 4; ++k) {
    x_work_ = x_;
    if (!newton_step(sub, Integrator::kBackwardEuler, x_work_))
      throw std::runtime_error(
          "TransientSession: Newton failed at t=" + std::to_string(t_) +
          (stats_.last_failure.empty() ? "" : ": " + stats_.last_failure));
    accept(sub);
  }
  ++stats_.steps;
}

void TransientSession::run_until(double t_stop) {
  while (t_ < t_stop - 0.5 * opts_.dt) step(opts_.dt);
}

}  // namespace uwbams::spice
