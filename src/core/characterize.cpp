#include "core/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "base/faults.hpp"
#include "base/units.hpp"
#include "spice/transient.hpp"

namespace uwbams::core {

namespace {

double model_mag_db(double f, double k_db, double f1, double f2) {
  const double a1 = 1.0 + (f / f1) * (f / f1);
  const double a2 = 1.0 + (f / f2) * (f / f2);
  return k_db - 10.0 * std::log10(a1 * a2);
}

double rms_residual_db(std::span<const double> f, std::span<const double> m,
                       double k_db, double f1, double f2) {
  double acc = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double e = m[i] - model_mag_db(f[i], k_db, f1, f2);
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(f.size()));
}

}  // namespace

TwoPoleFit fit_two_pole(std::span<const double> freqs_hz,
                        std::span<const double> mag_db) {
  if (freqs_hz.size() != mag_db.size() || freqs_hz.size() < 8)
    throw std::invalid_argument("fit_two_pole: need >= 8 matched samples");
  // A -inf or NaN magnitude (a dead cell's AC response) would pass as its
  // own plateau and -3 dB corner.
  for (const double m : mag_db)
    if (!std::isfinite(m))
      throw std::invalid_argument("fit_two_pole: non-finite magnitude");

  // Initial estimates: K from the low-frequency plateau, f1 from the -3 dB
  // crossing, f2 from the excess roll-off at the top of the sweep.
  double k_db = mag_db[0];
  double f1 = 0.0;
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    if (mag_db[i] <= k_db - 3.01) {
      f1 = freqs_hz[i];
      break;
    }
  }
  if (f1 <= 0.0) throw std::invalid_argument("fit_two_pole: no -3 dB corner");
  double f2 = freqs_hz.back();
  {
    // In the single-pole region |H| ~ K f1 / f; excess attenuation exposes
    // f2: (f/f2)^2 = 10^((K f1/f in dB - measured)/10) - 1.
    const double f_probe = freqs_hz.back();
    const double m_probe = mag_db.back();
    const double single_pole_db =
        k_db - 10.0 * std::log10(1.0 + (f_probe / f1) * (f_probe / f1));
    const double excess = std::pow(10.0, (single_pole_db - m_probe) / 10.0) - 1.0;
    if (excess > 0.0) f2 = f_probe / std::sqrt(excess);
  }

  // Coordinate refinement: multiplicative line search on (k, f1, f2)
  // minimizing the RMS dB residual. Robust and dependency-free.
  double best = rms_residual_db(freqs_hz, mag_db, k_db, f1, f2);
  double step_db = 1.0, step_f = 1.3;
  for (int iter = 0; iter < 60; ++iter) {
    bool improved = false;
    for (const double dk : {-step_db, step_db}) {
      const double r = rms_residual_db(freqs_hz, mag_db, k_db + dk, f1, f2);
      if (r < best) {
        best = r;
        k_db += dk;
        improved = true;
      }
    }
    for (const double mf : {1.0 / step_f, step_f}) {
      double r = rms_residual_db(freqs_hz, mag_db, k_db, f1 * mf, f2);
      if (r < best) {
        best = r;
        f1 *= mf;
        improved = true;
      }
      r = rms_residual_db(freqs_hz, mag_db, k_db, f1, f2 * mf);
      if (r < best) {
        best = r;
        f2 *= mf;
        improved = true;
      }
    }
    if (!improved) {
      step_db *= 0.5;
      step_f = 1.0 + 0.5 * (step_f - 1.0);
      if (step_db < 1e-4 && step_f < 1.0001) break;
    }
  }

  TwoPoleFit fit;
  fit.dc_gain_db = k_db;
  fit.f_pole1 = std::min(f1, f2);
  fit.f_pole2 = std::max(f1, f2);
  fit.rms_error_db = best;
  return fit;
}

ItdCharacterization characterize_itd(const spice::ItdSizing& sizing,
                                     const CharacterizeOptions& options) {
  ItdCharacterization ch;

  // --- AC response of the cell (Fig. 4 sweep).
  // Fault site: a simulated solver non-convergence, keyed by the mismatch
  // seed so the same trial fails for any --jobs value.
  base::faults::check("spice.nonconverge", sizing.variation.mismatch_seed);
  // One testbench and one transient session serve every measurement: the
  // session's t = 0 solution is the cell's operating point, and each
  // DC-range/slew integration restores the state after one shared dump.
  spice::Circuit ckt;
  const auto tb = spice::build_itd_testbench(ckt, sizing);
  spice::TransientOptions topts = options.transient;
  topts.dt = options.dt;
  std::optional<spice::TransientSession> sim;
  try {
    sim.emplace(ckt, topts);
  } catch (const std::runtime_error&) {
    // The constructor's only runtime_error is a non-converged OP.
    throw std::runtime_error("characterize_itd: OP did not converge");
  }
  const auto freqs = spice::log_frequency_grid(
      options.f_start, options.f_stop, options.points_per_decade);
  spice::AcOptions aco;
  aco.reuse_factorization = options.reuse_ac_factorization;
  aco.workspace = options.ac_workspace;
  ch.sweep = spice::run_ac(ckt, sim->solution(), freqs, tb.t.out_intp,
                           tb.t.out_intm, aco);

  std::vector<double> f, m;
  for (std::size_t i = 0; i < ch.sweep.points.size(); ++i) {
    f.push_back(ch.sweep.points[i].freq);
    m.push_back(ch.sweep.mag_db(i));
  }
  ch.ac = fit_two_pole(f, m);

  // Unity-gain (0 dB) crossing.
  for (std::size_t i = 1; i < m.size(); ++i) {
    if (m[i - 1] >= 0.0 && m[i] < 0.0) {
      const double frac = m[i - 1] / (m[i - 1] - m[i]);
      ch.unity_gain_freq =
          f[i - 1] * std::pow(f[i] / f[i - 1], frac);
      break;
    }
  }

  // --- DC input linear range and slew rate from transient integrations.
  if (!options.measure_linear_range && !options.measure_slew) return ch;
  spice::VoltageSource& vctrlm = sim->source("vctrlm");
  spice::VoltageSource& vinp = sim->source("vinp");
  spice::VoltageSource& vinm = sim->source("vinm");
  sim->source("vctrlp").set_override(sizing.vdd);
  vctrlm.set_override(sizing.vdd);  // dump first
  sim->run_until(30e-9);
  const spice::TransientSession::Checkpoint dumped = sim->checkpoint();
  auto integrated = [&](double vin_diff) {
    sim->restore(dumped);
    vctrlm.set_override(0.0);
    vinp.set_override(0.9 + 0.5 * vin_diff);
    vinm.set_override(0.9 - 0.5 * vin_diff);
    sim->run_until(80e-9);  // 50 ns integration
    return std::abs(sim->v(tb.t.out_intp) - sim->v(tb.t.out_intm));
  };

  if (options.measure_linear_range) {
    const double v_small = 10e-3;
    const double ref_slope = integrated(v_small) / v_small;
    if (!(std::isfinite(ref_slope) && ref_slope > 0.0)) {
      // A cell that does not integrate has no slope to compress: the
      // measurement failed, which is a zero linear range.
      ch.input_linear_range = 0.0;
    } else {
      ch.input_linear_range = 0.5;  // upper bound if never compressed
      for (double vin = 20e-3; vin <= 0.5; vin *= 1.25) {
        const double slope = integrated(vin) / vin;
        if (slope < 0.9 * ref_slope) {
          ch.input_linear_range = vin;
          break;
        }
      }
    }
  }
  // Slew: output ramp rate under a heavily overdriven input.
  if (options.measure_slew) ch.slew_rate = integrated(0.6) / 50e-9;

  return ch;
}

uwb::TwoPoleParams to_behavioral_params(const ItdCharacterization& ch,
                                        bool with_clamp) {
  uwb::TwoPoleParams p;
  p.dc_gain_db = ch.ac.dc_gain_db;
  p.f_pole1 = ch.ac.f_pole1;
  p.f_pole2 = ch.ac.f_pole2;
  p.input_clamp = with_clamp ? ch.input_linear_range : 0.0;
  return p;
}

}  // namespace uwbams::core
