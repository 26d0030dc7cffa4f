#include "uwb/ber.hpp"

#include <algorithm>
#include <cmath>

#include "base/parallel.hpp"
#include "base/random.hpp"
#include "base/units.hpp"
#include "uwb/channel.hpp"
#include "uwb/interference.hpp"
#include "uwb/pulse.hpp"
#include "uwb/transmitter.hpp"

namespace uwbams::uwb {

namespace {

// Fixed-purpose sub-stream of the per-point multipath realization draw.
constexpr std::uint64_t kBerChannelPurpose = 0x62657263;  // "berc"

// One self-contained genie link reused across batches of a sweep point.
struct GenieLink {
  SystemConfig sys;
  ams::Kernel kernel;
  Transmitter tx;
  ChannelBlock chan;
  InterferenceSet interf;
  Receiver rx;
  double prop_delay;

  GenieLink(const SystemConfig& cfg, const IntegratorFactory& make_integrator)
      : sys(cfg), kernel(cfg.dt), tx(cfg), chan(cfg, nullptr),
        interf(kernel, cfg,
               [&]() {
                 kernel.add_analog(tx);
                 kernel.add_analog(chan);
                 chan.set_input(tx.out());
                 return chan.out();
               }()),
        rx(kernel, cfg, interf.out(), make_integrator),
        prop_delay(cfg.distance / units::speed_of_light) {}

  // Sends `bits` starting one symbol after `t0`; returns the end time.
  double send_payload(const std::vector<bool>& bits, double t0) {
    Packet p;
    p.preamble_symbols = 0;
    p.payload = bits;
    const double t_start = t0 + sys.symbol_period;
    tx.send(p, t_start);
    rx.start_genie(kernel, t_start + prop_delay, bits);
    return t_start + p.duration(sys.symbol_period);
  }
};

// Empirical VGA gain calibration: probe known-zero symbols and steer the
// mean slot-0 (signal-bearing) integrator sample toward the configured
// fraction of the ADC range (the genie-mode stand-in for the AGC loop);
// targets must stay below the circuit integrator hard output ceiling
// K * v_clamp * T_int (~0.21 V) or the gain rails into deep
// compression (the ADC-vs-input-range tension analyzed in the paper's §5).
void calibrate_gain(GenieLink& link, double fraction) {
  const double target = fraction * link.sys.adc_vmax;
  for (int pass = 0; pass < 4; ++pass) {
    link.rx.keep_samples(true);
    const std::vector<bool> probe(8, false);
    const double t_end = link.send_payload(probe, link.kernel.time());
    link.kernel.run_until(t_end + link.sys.symbol_period);
    double sum = 0.0;
    int n = 0;
    const auto& samples = link.rx.samples();
    for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
      sum += samples[i].analog;
      ++n;
    }
    link.rx.keep_samples(false);
    if (n == 0) break;
    const double mean = std::max(sum / n, 1e-6);
    const double delta_db = 10.0 * std::log10(target / mean);
    const double g = std::clamp(link.rx.vga_gain_db() + delta_db,
                                link.sys.vga_min_db, link.sys.vga_max_db);
    link.rx.set_vga_gain_db(g);
    if (std::abs(delta_db) < 0.5) break;
  }
}

}  // namespace

std::vector<BerPoint> run_ber_sweep(const BerConfig& config,
                                    const IntegratorFactory& make_integrator,
                                    int* quarantined) {
  const GaussianMonocycle pulse(2, config.sys.pulse_sigma,
                                config.rx_pulse_peak);
  // Per-symbol energy: the whole burst carries one bit.
  const double eb_rx = pulse.energy() * config.sys.pulses_per_symbol;

  // One self-contained Monte-Carlo point. Seeding depends on the system
  // seed and the point's Eb/N0 value alone, never on execution order, so
  // the fanned sweep below is bit-identical to a serial walk.
  const auto run_point = [&](double ebn0_db) {
    SystemConfig sys = config.sys;
    sys.seed = config.sys.seed + static_cast<std::uint64_t>(
                                     std::llround(ebn0_db * 131.0));
    const double n0 = eb_rx / units::db_to_pow(ebn0_db);

    GenieLink link(sys, make_integrator);
    const double amp_scale = config.rx_pulse_peak / sys.pulse_amplitude;
    if (sys.multipath) {
      // One realization per sweep point (the coex/channel-class scenarios
      // average over points and seeds). Unit-energy taps keep the mean
      // received energy equal to the AWGN case, so Eb/N0 stays honest.
      const auto reals = draw_realizations(
          sys.channel_class, channel_class_params(sys.channel_class),
          base::derive_seed(sys.seed, kBerChannelPurpose), 1);
      link.chan.set_realization(reals.front(), amp_scale);
    } else {
      link.chan.set_awgn_only(amp_scale);
    }
    link.chan.set_noise_psd(n0);
    link.chan.reseed(sys.seed * 7 + 3);

    calibrate_gain(link, config.calibration_fraction);

    base::Rng rng(sys.seed);
    base::BerCounter counter;
    while (counter.bits() < config.max_bits &&
           !counter.converged(config.min_errors)) {
      const auto bits = rng.bits(static_cast<std::size_t>(config.batch_bits));
      const double t_end = link.send_payload(bits, link.kernel.time());
      link.kernel.run_until(t_end + link.sys.symbol_period);
      counter.add_bits(link.rx.ber().bits(), link.rx.ber().errors());
    }

    BerPoint p;
    p.ebn0_db = ebn0_db;
    p.bits = counter.bits();
    p.errors = counter.errors();
    p.ber = counter.ber();
    p.half_width_95 = counter.half_width_95();
    return p;
  };

  const std::size_t n = config.ebn0_db.size();
  // Serial and fanned runs share the tolerant pool path (a 1-job runner
  // executes inline): a point whose task fails even after retries becomes
  // a quarantined zero-bit placeholder instead of killing the sweep.
  const base::ParallelRunner pool(config.jobs <= 1 ? 1 : config.jobs);
  std::vector<base::TaskFailure> failures;
  auto points = pool.map_tolerant<BerPoint>(
      n, [&](std::size_t i) { return run_point(config.ebn0_db[i]); },
      &failures);
  for (const base::TaskFailure& f : failures) {
    points[f.index].ebn0_db = config.ebn0_db[f.index];
    points[f.index].quarantined = true;
  }
  if (quarantined != nullptr) *quarantined = static_cast<int>(failures.size());
  return points;
}

double energy_detection_ber_theory(double ebn0_db, double tw_product) {
  const double r = units::db_to_pow(ebn0_db);
  const double x = r / std::sqrt(2.0 * r + 2.0 * tw_product);
  return 0.5 * std::erfc(x / std::sqrt(2.0));
}

double receiver_tw_product(const SystemConfig& sys) {
  // The single-pole VGA dominates the noise bandwidth:
  // B_n = (pi/2) * f_3dB for a one-pole response.
  const double bn = 0.5 * units::pi * sys.vga_bandwidth;
  return bn * sys.integration_window;
}

}  // namespace uwbams::uwb
