#include "reference_rx.hpp"

#include <cmath>
#include <vector>

#include "base/units.hpp"
#include "uwb/pulse.hpp"

namespace uwbams::uwb {

ReferenceBerResult reference_ber(const SystemConfig& cfg, double ebn0_db,
                                 std::uint64_t n_bits, std::uint64_t seed,
                                 double bandlimit) {
  ReferenceBerResult res;
  base::Rng rng(seed);

  const GaussianMonocycle pulse(2, cfg.pulse_sigma, 1.0);
  const double dt = cfg.dt;
  const auto n_win = static_cast<std::size_t>(cfg.integration_window / dt);
  const auto n_slot = static_cast<std::size_t>(cfg.slot_period() / dt);

  // Pre-render one noiseless burst (unit peak) over a slot.
  std::vector<double> burst(n_slot, 0.0);
  const double offset = std::max(3.5 * cfg.pulse_sigma, 2e-9);
  for (std::size_t i = 0; i < n_slot; ++i) {
    const double t = i * dt;
    double acc = 0.0;
    for (int j = 0; j < cfg.pulses_per_symbol; ++j) {
      const double rel = t - (offset + j * cfg.pulse_spacing);
      if (std::abs(rel) <= pulse.half_duration())
        acc += ((j & 1) ? -1.0 : 1.0) * pulse.value(rel);
    }
    burst[i] = acc;
  }
  double eb = 0.0;
  for (double v : burst) eb += v * v * dt;

  const double n0 = eb / units::db_to_pow(ebn0_db);
  const double sigma = std::sqrt(0.5 * n0 / dt);

  // Optional one-pole bandlimit matching the AMS chain's VGA.
  const double alpha =
      bandlimit > 0.0
          ? std::exp(-2.0 * units::pi * bandlimit * dt)
          : 0.0;

  std::vector<double> slot(n_slot);
  for (std::uint64_t k = 0; k < n_bits; ++k) {
    const bool bit = rng.bit();
    double e0 = 0.0, e1 = 0.0;
    double lp = 0.0;
    for (int s = 0; s < 2; ++s) {
      const bool has_pulse = (s == 1) == bit;
      for (std::size_t i = 0; i < n_slot; ++i) {
        double v = (has_pulse ? burst[i] : 0.0) + sigma * rng.gaussian();
        if (bandlimit > 0.0) {
          lp = alpha * lp + (1.0 - alpha) * v;
          v = lp;
        }
        if (i < n_win) (s == 0 ? e0 : e1) += v * v;
      }
    }
    bool decided;
    if (e1 == e0)
      decided = rng.bit();
    else
      decided = e1 > e0;
    ++res.bits;
    if (decided != bit) ++res.errors;
  }
  return res;
}

}  // namespace uwbams::uwb
