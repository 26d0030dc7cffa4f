/// @file ac.hpp
/// @brief Small-signal AC analysis.
///
/// Linearizes every device around a committed DC operating point and solves
/// the complex MNA system at each frequency. The stimulus is carried by the
/// AC magnitude/phase of voltage or current sources (set_ac on the source).
/// This is the analysis that regenerates the paper's Fig. 4 (integrator AC
/// response) and feeds the Phase-IV characterization fit.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "linalg/lu.hpp"
#include "spice/circuit.hpp"
#include "spice/op.hpp"

namespace uwbams::spice {

struct AcPoint {
  double freq = 0.0;                  ///< Hz
  std::complex<double> value{0.0, 0.0};  ///< probed differential voltage
};

struct AcSweep {
  std::vector<AcPoint> points;
  /// Magnitude in dB at index i.
  double mag_db(std::size_t i) const;
  /// Phase in degrees at index i.
  double phase_deg(std::size_t i) const;
};

/// AC solver configuration.
struct AcOptions {
  /// Reuse the complex LU pivot order across the frequency grid
  /// (linalg::LuFactor::refactor) instead of a fresh full-pivoting
  /// factorization per point, falling back to factor() when the frozen
  /// pivot sequence degrades. Same linear systems, different elimination
  /// rounding — reserved for stat_equiv runs; the default keeps the
  /// historical fresh-factorization results bit-identical.
  bool reuse_factorization = false;
  /// Optional external workspace for `reuse_factorization`: the pivot
  /// order then also survives across run_ac calls on structurally
  /// identical circuits (e.g. across Monte-Carlo trials of one netlist).
  /// nullptr = per-call workspace. The caller owns thread confinement.
  linalg::LuFactor<std::complex<double>>* workspace = nullptr;
};

/// Runs an AC sweep. `op` must be a converged operating point of `circuit`
/// (use solve_op). The probe is v(probe_p) - v(probe_m).
AcSweep run_ac(Circuit& circuit, const std::vector<double>& op,
               std::span<const double> freqs, NodeId probe_p,
               NodeId probe_m = 0, const AcOptions& options = {});

/// Logarithmically spaced frequency grid, `points_per_decade` points per
/// decade from f_start to f_stop inclusive.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade);

}  // namespace uwbams::spice
