#include "core/experiment.hpp"

#include <chrono>

#include "base/random.hpp"
#include "base/units.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"
#include "uwb/transmitter.hpp"

namespace uwbams::core {

SystemRunResult run_system_simulation(const SystemRunConfig& config) {
  SystemRunResult res;
  res.kind = config.kind;

  uwb::SystemConfig sys = config.sys;
  ams::Kernel kernel(sys.dt);

  uwb::Transmitter tx(sys);
  uwb::ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());

  const uwb::GaussianMonocycle pulse(2, sys.pulse_sigma, config.rx_pulse_peak);
  const double eb = pulse.energy();
  chan.set_awgn_only(config.rx_pulse_peak / sys.pulse_amplitude);
  chan.set_noise_psd(eb / units::db_to_pow(config.ebn0_db));
  chan.reseed(sys.seed * 13 + 7);

  const auto factory = make_integrator_factory(config.kind, sys, config.variant);
  uwb::Receiver rx(kernel, sys, chan.out(), factory);
  rx.set_vga_gain_db(0.75 * sys.vga_max_db);

  // Continuous 2-PPM traffic for the whole run.
  base::Rng rng(sys.seed);
  const int n_symbols =
      static_cast<int>(config.duration / sys.symbol_period) + 2;
  uwb::Packet p;
  p.preamble_symbols = 0;
  p.payload = rng.bits(static_cast<std::size_t>(n_symbols));
  const double t_start = 2.0 * sys.slot_period();
  tx.send(p, t_start);
  rx.start_genie(kernel, t_start + sys.distance / units::speed_of_light,
                 p.payload);

  // Prime lazily-initialized state (the spice variant's operating point)
  // outside the timed region: one step, then measure.
  kernel.step();

  const auto t0 = std::chrono::steady_clock::now();
  kernel.run_until(config.duration);
  const auto t1 = std::chrono::steady_clock::now();

  res.cpu_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.sim_seconds = kernel.time();
  res.steps = kernel.steps();
  res.bits_demodulated = rx.ber().bits();
  res.bit_errors = rx.ber().errors();
  return res;
}

}  // namespace uwbams::core
