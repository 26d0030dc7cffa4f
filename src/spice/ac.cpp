#include "spice/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "base/units.hpp"
#include "linalg/lu.hpp"

namespace uwbams::spice {

double AcSweep::mag_db(std::size_t i) const {
  return units::lin_to_db(std::abs(points.at(i).value));
}

double AcSweep::phase_deg(std::size_t i) const {
  return std::arg(points.at(i).value) * 180.0 / units::pi;
}

AcSweep run_ac(Circuit& circuit, const std::vector<double>& op,
               std::span<const double> freqs, NodeId probe_p, NodeId probe_m,
               const AcOptions& options) {
  circuit.prepare();
  if (op.size() != circuit.unknown_count())
    throw std::invalid_argument("run_ac: operating point size mismatch");

  const std::size_t n = circuit.unknown_count();
  const int ip = circuit.node_index(probe_p);
  const int im = circuit.node_index(probe_m);

  // One workspace serves every grid point. With reuse_factorization it
  // keeps the pivot order across the grid (and, with an external
  // workspace, across structurally identical sweeps): the complex MNA
  // matrix changes smoothly with omega, so the frozen order stays
  // acceptable for long stretches, exactly as in the transient fast path.
  // Without it every point is a fresh factorization.
  linalg::LuFactor<std::complex<double>> local;
  linalg::LuFactor<std::complex<double>>* lu =
      options.reuse_factorization && options.workspace != nullptr
          ? options.workspace
          : &local;

  AcSweep sweep;
  sweep.points.reserve(freqs.size());
  Mna<std::complex<double>> mna(n);
  for (double f : freqs) {
    const double omega = 2.0 * units::pi * f;
    mna.clear();
    for (const auto& dev : circuit.devices()) dev->stamp_ac(mna, op, omega);
    if (!options.reuse_factorization || lu->size() != n || !lu->valid() ||
        !lu->refactor(mna.matrix()))
      lu->factor(mna.matrix());
    std::vector<std::complex<double>> x = mna.rhs();
    lu->solve_in_place(x);
    std::complex<double> vp =
        ip >= 0 ? x[static_cast<std::size_t>(ip)] : std::complex<double>{};
    std::complex<double> vm =
        im >= 0 ? x[static_cast<std::size_t>(im)] : std::complex<double>{};
    sweep.points.push_back({f, vp - vm});
  }
  return sweep;
}

std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade) {
  if (f_start <= 0.0 || f_stop <= f_start || points_per_decade < 1)
    throw std::invalid_argument("log_frequency_grid: bad arguments");
  std::vector<double> freqs;
  const double lstart = std::log10(f_start);
  const double lstop = std::log10(f_stop);
  const double step = 1.0 / points_per_decade;
  for (double l = lstart; l <= lstop + 1e-12; l += step)
    freqs.push_back(std::pow(10.0, l));
  return freqs;
}

}  // namespace uwbams::spice
