#include "spice/op.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lu.hpp"
#include "spice/engine_counters.hpp"

namespace uwbams::spice {

namespace {

// One damped Newton solve at fixed (gmin, source_scale). Returns true on
// convergence; x is updated in place with the best iterate either way.
bool newton_solve(Circuit& ckt, std::vector<double>& x, double gmin,
                  double source_scale, const OpOptions& opts, int& iters_out) {
  const std::size_t n = ckt.unknown_count();
  Mna<double> mna(n);
  linalg::LuFactor<double> lu;  // one workspace for every iteration
  std::vector<double> x_new;
  StampArgs args;
  args.mode = AnalysisMode::kOp;
  args.gmin = gmin;
  args.source_scale = source_scale;
  args.x = &x;

  for (int it = 0; it < opts.max_iterations; ++it) {
    mna.clear();
    for (const auto& dev : ckt.devices()) dev->stamp(mna, args);
    try {
      lu.factor(mna.matrix());
    } catch (const std::runtime_error&) {
      iters_out = it + 1;
      return false;  // singular at this homotopy point
    }
    x_new = mna.rhs();
    lu.solve_in_place(x_new);

    // Damped update + convergence check.
    double max_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max_delta = std::max(max_delta, std::abs(x_new[i] - x[i]));
    double alpha = 1.0;
    if (max_delta > opts.damping) alpha = opts.damping / max_delta;
    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = x_new[i] - x[i];
      if (std::abs(delta) > opts.vabstol + opts.reltol * std::abs(x_new[i]))
        converged = false;
      x[i] += alpha * delta;
    }
    if (converged && alpha == 1.0) {
      iters_out = it + 1;
      return true;
    }
  }
  iters_out = opts.max_iterations;
  return false;
}

}  // namespace

OpResult solve_op(Circuit& circuit, const OpOptions& options) {
  circuit.prepare();
  OpResult res;
  res.x.assign(circuit.unknown_count(), 0.0);
  if (!options.initial_guess.empty() &&
      options.initial_guess.size() == res.x.size())
    res.x = options.initial_guess;

  int iters = 0;
  if (newton_solve(circuit, res.x, options.gmin, 1.0, options, iters)) {
    res.converged = true;
    res.iterations = iters;
    res.strategy = "newton";
    engine_counters::add_op(iters);
    return res;
  }

  // Gmin stepping: start heavily shunted, relax towards the target gmin.
  {
    std::vector<double> x(circuit.unknown_count(), 0.0);
    bool ok = true;
    for (double g = 1e-2; g >= options.gmin * 0.99; g *= 0.1) {
      if (!newton_solve(circuit, x, g, 1.0, options, iters)) {
        ok = false;
        break;
      }
    }
    if (ok && newton_solve(circuit, x, options.gmin, 1.0, options, iters)) {
      res.x = x;
      res.converged = true;
      res.iterations = iters;
      res.strategy = "gmin-stepping";
      engine_counters::add_op(iters);
      return res;
    }
  }

  // Source stepping: ramp independent sources from 0 to full value.
  {
    std::vector<double> x(circuit.unknown_count(), 0.0);
    bool ok = true;
    for (double s = 0.1; s <= 1.0001; s += 0.1) {
      // Keep a moderately large gmin during the ramp for robustness.
      if (!newton_solve(circuit, x, std::max(options.gmin, 1e-9),
                        std::min(s, 1.0), options, iters)) {
        ok = false;
        break;
      }
    }
    if (ok && newton_solve(circuit, x, options.gmin, 1.0, options, iters)) {
      res.x = x;
      res.converged = true;
      res.iterations = iters;
      res.strategy = "source-stepping";
      engine_counters::add_op(iters);
      return res;
    }
  }

  res.converged = false;
  res.strategy = "failed";
  engine_counters::add_op(iters);
  return res;
}

}  // namespace uwbams::spice
