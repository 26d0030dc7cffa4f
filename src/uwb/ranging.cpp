#include "uwb/ranging.hpp"

#include <algorithm>
#include <cmath>

#include "base/random.hpp"
#include "base/units.hpp"
#include "uwb/transceiver.hpp"

namespace uwbams::uwb {

double TwrResult::mean() const {
  base::RunningStats st;
  for (const auto& it : iterations)
    if (it.ok) st.add(it.distance_estimate);
  return st.mean();
}

double TwrResult::variance() const {
  base::RunningStats st;
  for (const auto& it : iterations)
    if (it.ok) st.add(it.distance_estimate);
  return st.variance();
}

double TwrResult::stddev() const { return std::sqrt(variance()); }

TwoWayRanging::TwoWayRanging(const TwrConfig& cfg,
                             IntegratorFactory make_integrator)
    : cfg_(cfg), make_integrator_(std::move(make_integrator)) {}

TwrIteration TwoWayRanging::run_iteration(std::uint64_t channel_seed,
                                          std::uint64_t noise_seed) {
  // Each node runs on its own oscillator: same system parameters, its own
  // ClockConfig (node ids 0/1 pick the per-node jitter sub-streams). The
  // default identity clocks keep this the historical single-clock testbench
  // bit for bit.
  SystemConfig sys = cfg_.sys;
  sys.seed = noise_seed;
  SystemConfig sys_a = sys;
  sys_a.clock = cfg_.clock_a;
  SystemConfig sys_b = sys;
  sys_b.clock = cfg_.clock_b;
  // Distinct jitter sub-streams per side: callers that did not assign node
  // ids (both left at the same value) get the standalone 0/1 convention;
  // a network that did assign per-node ids keeps one oscillator identity
  // per node across every pair it appears in.
  if (cfg_.clock_a.node_id == cfg_.clock_b.node_id) {
    sys_a.clock.node_id = 0;
    sys_b.clock.node_id = 1;
  }
  TwrIteration result;

  ams::Kernel kernel(sys.dt);
  // The acquisition FSMs run from digital events, which bound every batch.
  // Registration is in forward dataflow order (transmitters -> channels ->
  // receivers) as batched stepping requires; the channels carry a
  // one-sample input delay to reproduce, bit for bit, the classic
  // channel-before-transmitter arrangement in which each channel read its
  // input's previous sample.

  Transceiver node_a(kernel, sys_a);  // registers the transmitters only
  Transceiver node_b(kernel, sys_b);
  ChannelBlock chan_ab(sys, node_a.tx_out());
  ChannelBlock chan_ba(sys, node_b.tx_out());
  chan_ab.set_input_delay(1);
  chan_ba.set_input_delay(1);
  kernel.add_analog(chan_ab);
  kernel.add_analog(chan_ba);

  base::Rng rng(noise_seed);
  const double pl_db = path_loss_db(sys.distance, sys.path_loss_db_1m,
                                    sys.path_loss_exponent);
  const double amp_scale = units::db_to_lin(-pl_db);
  if (sys.multipath) {
    // Both directions' realizations come from one sequential stream seeded
    // by channel_seed — draw_realizations reproduces the historical
    // `Rng chan_rng(seed); generate_cm1(chan_rng) x 2` bit for bit. A draw
    // costs tens of microseconds, so it is recomputed rather than memoized.
    const auto reals = draw_realizations(
        sys.channel_class, channel_class_params(sys.channel_class),
        channel_seed, 2);
    chan_ab.set_realization(reals[0], amp_scale);
    chan_ba.set_realization(reals[1], amp_scale);
  } else {
    chan_ab.set_awgn_only(amp_scale);
    chan_ba.set_awgn_only(amp_scale);
  }
  chan_ab.set_noise_psd(cfg_.noise_psd);
  chan_ba.set_noise_psd(cfg_.noise_psd);
  // Fixed-purpose sub-streams of the iteration's noise seed (the old
  // noise_seed * 2 + 1 / + 2 arithmetic could alias another iteration's
  // streams).
  chan_ab.reseed(base::derive_seed(noise_seed, 1));
  chan_ba.reseed(base::derive_seed(noise_seed, 2));

  node_a.build_rx(kernel, chan_ba.out(), make_integrator_);
  node_b.build_rx(kernel, chan_ab.out(), make_integrator_);

  Packet request;
  request.preamble_symbols = sys.preamble_symbols;
  request.payload = rng.bits(static_cast<std::size_t>(sys.payload_bits));
  const double packet_duration = request.duration(sys.symbol_period);

  // B listens from the start; its noise estimation must finish before the
  // request arrives.
  node_b.rx().start_acquire(kernel, 50e-9);
  const double t_ne =
      sys.noise_est_windows * sys.slot_period() + 0.3e-6;
  const double t_request = t_ne + 0.1e-6;
  node_a.send(request, t_request);

  const double pt = cfg_.processing_time;
  double toa_b = -1.0, toa_a = -1.0;

  node_b.rx().on_sync([&](double toa) {
    toa_b = toa;
    // Reply so its first pulse leaves PT after the estimated request ToA.
    Packet reply = request;
    const double t_start =
        toa + pt - node_b.tx().pulse_offset_in_slot();
    node_b.send(reply, t_start);
    kernel.stop();
  });
  node_a.rx().on_sync([&](double toa) {
    toa_a = toa;
    kernel.stop();
  });

  // A turns its receiver around once its own transmission is over
  // (half-duplex antenna switch). The turnaround is an A-local decision:
  // schedule it through A's clock and hand the receiver an A-local start.
  const double t_a_listen = t_request + packet_duration + 0.1e-6;
  kernel.schedule_callback(
      std::max(kernel.time(),
               node_a.rx().clock().event_true_time(t_a_listen)),
      [&](double now) {
        node_a.rx().start_acquire(
            kernel, node_a.rx().clock().local_time(now) + 50e-9);
      });

  // The exchange lasts at most this long. It ends as soon as both sides
  // have synced: the result reads only the two ToAs (each set once), the
  // two send timestamps and pure counter arithmetic, so nothing simulated
  // after A's sync can change it. Once B has synced, the whole A->B link
  // (A's transmitter, the A->B channel, B's receive path) feeds nothing
  // the result reads either: the channel has its own noise stream and
  // clock jitter is keyed by edge time, so retiring the link moves no
  // other draw. B's transmitter and the B->A path keep running. The kernel
  // is batch-cut invariant, so every sample A sees is the one the
  // full-length run would give (docs/ranging.md).
  const double t_end =
      t_request + pt + 2.0 * packet_duration + 3e-6;
  bool ab_retired = false;
  while (kernel.run_until(t_end)) {
    if (toa_b >= 0.0 && !ab_retired) {
      kernel.remove_analog(node_a.tx());
      kernel.remove_analog(chan_ab);
      node_b.retire_rx(kernel);
      ab_retired = true;
    }
    if (toa_a >= 0.0 && toa_b >= 0.0) break;
  }

  if (toa_a < 0.0 || toa_b < 0.0) return result;  // acquisition failed

  // RTT from A's counter: fold by symbol periods (the counter supplies the
  // whole-symbol count; fine ToA the remainder). Valid for RTT < Ts. With
  // nonideal clocks the PT countdown ran on B's oscillator while A measured
  // with its own, so the classic drift bias PT (delta_a - delta_b) remains
  // in the folded interval.
  const double rtt =
      node_a.fold_by_symbols(toa_a - node_a.last_tx_pulse_time() - pt);
  result.distance_raw = 0.5 * units::speed_of_light * rtt;
  // ppm compensation (see TwrConfig::compensate_ppm): remove the
  // first-order PT-scaling term using the configured clock rates.
  const double delta_ab =
      1e-6 * (cfg_.clock_a.ppm - cfg_.clock_b.ppm);
  const double rtt_comp = rtt - pt * delta_ab;
  result.distance_estimate =
      cfg_.compensate_ppm ? 0.5 * units::speed_of_light * rtt_comp
                          : result.distance_raw;

  // Per-side bias diagnostics against the true arrival times.
  const double prop = sys.distance / units::speed_of_light;
  auto fold_centered = [&](double x) {
    double r = node_a.fold_by_symbols(x);
    if (r > 0.5 * sys.symbol_period) r -= sys.symbol_period;
    return r;
  };
  result.toa_bias_b =
      fold_centered(toa_b - (node_a.last_tx_pulse_time() + prop));
  result.toa_bias_a =
      fold_centered(toa_a - (node_b.last_tx_pulse_time() + prop));
  result.ok = true;
  return result;
}

TwrResult TwoWayRanging::run() {
  TwrResult res;
  for (int i = 0; i < cfg_.iterations; ++i) {
    TwrIteration it = run_iteration(cfg_.channel_seed(i), cfg_.noise_seed(i));
    if (!it.ok) ++res.failures;
    res.iterations.push_back(it);
  }
  return res;
}

TwrIteration run_twr_exchange(const TwrConfig& cfg,
                              const IntegratorFactory& make_integrator,
                              int exchange) {
  TwoWayRanging engine(cfg, make_integrator);
  return engine.run_iteration(cfg.channel_seed(exchange),
                              cfg.noise_seed(exchange));
}

}  // namespace uwbams::uwb
