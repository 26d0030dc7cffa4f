// ablation_two_stage_agc — the paper's §5 proposed architecture fix.
//
// "A possible solution consists in modifying the AGC unit including in its
// description two gain control stages: a first one ... which controls the
// signal amplitudes so that saturation at the input is avoided and a second
// one which amplifies the integrator output in order to adjust the
// integrated energy for the ADC input range."
//
// The single-stage AGC must choose between the integrator's ~100 mV input
// range and the ADC target — it cannot satisfy both. This scenario runs the
// acquisition on the ELDO integrator under both policies and reports what
// each achieves on the two constraints.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "base/random.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "runner/runner.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"
#include "uwb/transmitter.hpp"

using namespace uwbams;

namespace {

struct AgcOutcome {
  double vga_db = 0.0;
  double post_scale = 1.0;
  double sq_peak = 0.0;        // squared-signal peak at the integrator input
  double mean_signal_v = 0.0;  // effective (post-scale) energy sample
  bool synced = false;
};

AgcOutcome run_link(bool two_stage, std::uint64_t seed) {
  uwb::SystemConfig sys;
  sys.dt = 0.2e-9;
  sys.distance = 9.9;
  sys.multipath = true;
  sys.preamble_symbols = 96;
  sys.noise_est_windows = 16;
  sys.two_stage_agc = two_stage;

  ams::Kernel kernel(sys.dt);
  uwb::Transmitter tx(sys);
  uwb::ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  base::Rng rng(seed);
  const double pl = uwb::path_loss_db(sys.distance, sys.path_loss_db_1m,
                                      sys.path_loss_exponent);
  chan.set_realization(uwb::generate_cm1(rng), units::db_to_lin(-pl));
  chan.set_noise_psd(8e-19);

  uwb::Receiver rx(
      kernel, sys, chan.out(),
      core::make_integrator_factory(core::IntegratorKind::kSpice, sys));
  rx.keep_samples(true);
  rx.start_acquire(kernel, 50e-9);

  uwb::Packet p;
  p.preamble_symbols = sys.preamble_symbols;
  p.payload = rng.bits(4);
  const double t_start = 2.2e-6;
  tx.send(p, t_start);
  // Run until synchronization completes (the packet is still in the air:
  // the observation below must see live preamble symbols).
  const double t_end = t_start + p.duration(sys.symbol_period);
  while (!rx.sync_done() && kernel.time() < t_end)
    kernel.run_until(kernel.time() + sys.symbol_period);

  AgcOutcome out;
  out.synced = rx.sync_done();
  out.vga_db = rx.vga_gain_db();
  out.post_scale = rx.agc().post_scale();
  // Observe a few post-sync symbols for the steady-state figures. Windows
  // alternate signal/noise slots with arbitrary parity, so take per-pair
  // maxima for the signal-energy sample.
  rx.squared_peak().reset_peak();
  double sum = 0.0;
  const std::size_t n0 = rx.samples().size();
  kernel.run_until(kernel.time() + 8 * sys.symbol_period);
  std::size_t n = 0;
  for (std::size_t i = n0; i + 1 < rx.samples().size(); i += 2) {
    sum += std::max(rx.samples()[i].analog, rx.samples()[i + 1].analog) *
           out.post_scale;
    ++n;
  }
  out.sq_peak = rx.squared_peak().peak();
  out.mean_signal_v = n ? sum / static_cast<double>(n) : 0.0;
  return out;
}

}  // namespace

REGISTER_SCENARIO(two_stage_agc, "ablation",
                  "A4 — single- vs two-stage AGC on the ELDO integrator") {
  uwb::SystemConfig sys;
  const double clamp = sys.integrator_clamp;
  const double adc_target = 0.75 * sys.adc_vmax;

  // Two independent acquisitions (same channel/noise draws, different AGC
  // policy); fan them across the pool. Additive offset from the base seed:
  // --seed=1 reproduces the curated operating point.
  const std::uint64_t link_seed = ctx.seed + 4;
  const auto outcomes = ctx.pool.map<AgcOutcome>(
      2, [&](std::size_t i) { return run_link(/*two_stage=*/i == 1, link_seed); });

  base::Table t("Single-stage vs two-stage AGC at the 9.9 m operating point");
  t.set_header({"AGC", "VGA [dB]", "post x", "sq peak [mV]", "vs 104 mV range",
                "energy sample [V]", "vs ADC target"});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    t.add_row({i == 1 ? "two-stage (§5)" : "single-stage",
               base::Table::num(o.vga_db, 1), base::Table::num(o.post_scale, 2),
               base::Table::num(o.sq_peak * 1e3, 0),
               base::Table::num(o.sq_peak / clamp, 1) + " x",
               base::Table::num(o.mean_signal_v, 3),
               base::Table::num(o.mean_signal_v / adc_target, 2) + " x"});
    ctx.sink.notef("%s done (synced=%d)", i == 1 ? "two-stage" : "single-stage",
                   o.synced ? 1 : 0);
  }
  ctx.sink.note("");
  ctx.sink.table(t, "agc_policies");

  ctx.sink.note(
      "Reading: the single-stage AGC drives the squared signal far beyond\n"
      "the integrator's ~104 mV linear range while still undershooting the\n"
      "ADC target (the §5 conflict). The two-stage policy keeps the input\n"
      "near the range and restores the ADC level digitally — the\n"
      "architectural adjustment the paper's mixed-level simulation\n"
      "suggested before circuit redesign.");
  return 0;
}
