// quickstart — a complete UWB link in ~60 lines.
//
// Builds transmitter -> AWGN channel -> energy-detection receiver with the
// ideal integrator, sends one 2-PPM packet and demodulates it. This is the
// smallest end-to-end use of the public API.
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "runner/runner.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"
#include "uwb/transmitter.hpp"

using namespace uwbams;

REGISTER_SCENARIO(quickstart, "example",
                  "Smallest end-to-end link: one packet over AWGN") {
  // 1. System parameters: one struct is the single source of truth.
  uwb::SystemConfig sys = ctx.spec()
                              .dt(0.2e-9)     // 5 GS/s analog resolution
                              .distance(1.0)  // short AWGN link for the demo
                              .multipath(false)
                              .system();

  // 2. The AMS kernel and the analog chain, in dataflow order. Blocks
  //    advance in event-bounded batches instead of one virtual call per
  //    0.2 ns sample.
  ams::Kernel kernel(sys.dt);
  uwb::Transmitter tx(sys);
  uwb::ChannelBlock channel(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(channel);
  channel.set_input(tx.out());

  // Set the link level: 10 mV received pulses at Eb/N0 = 14 dB.
  const double rx_peak = 10e-3;
  channel.set_awgn_only(rx_peak / sys.pulse_amplitude);
  const uwb::GaussianMonocycle pulse(2, sys.pulse_sigma, rx_peak);
  const double eb = pulse.energy() * sys.pulses_per_symbol;
  channel.set_noise_psd(eb / units::db_to_pow(14.0));

  // 3. The receiver, with the integrator fidelity chosen by a factory —
  //    swap kIdeal for kSpice and the same testbench co-simulates the
  //    31-transistor netlist (substitute-and-play).
  const auto factory =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, sys);
  uwb::Receiver rx(kernel, sys, channel.out(), factory);
  rx.set_vga_gain_db(14.0);

  // 4. Send a packet and demodulate with known (genie) timing. Additive
  // offset from the base seed: --seed=1 reproduces the original demo draw.
  base::Rng rng(ctx.seed + 2025);
  uwb::Packet packet;
  packet.preamble_symbols = 0;
  packet.payload = rng.bits(128);
  const double t_start = sys.symbol_period;
  tx.send(packet, t_start);
  rx.start_genie(kernel, t_start + sys.distance / units::speed_of_light,
                 packet.payload);

  kernel.run_until(t_start + packet.duration(sys.symbol_period) +
                   sys.symbol_period);

  // 5. Results.
  const double theory =
      uwb::energy_detection_ber_theory(14.0, uwb::receiver_tw_product(sys));
  ctx.sink.notef("quickstart: sent %zu bits, received %llu, bit errors %llu",
                 packet.payload.size(),
                 static_cast<unsigned long long>(rx.ber().bits()),
                 static_cast<unsigned long long>(rx.ber().errors()));
  ctx.sink.notef("BER = %.4f at Eb/N0 = 14 dB (theory ~ %.4f)", rx.ber().ber(),
                 theory);
  ctx.sink.metric("bits", rx.ber().bits());
  ctx.sink.metric("errors", rx.ber().errors());
  ctx.sink.metric("ber", rx.ber().ber());
  ctx.sink.metric("ber_theory", theory);
  return 0;
}
