// bench_kernel — batched behavioral-kernel microbenchmark tracking the
// block-vectorized dataflow path (summary.json metrics).
//
// Three standardized measurements:
//
//   behavioral_scalar   the genie-timed behavioral chain (tx -> AWGN channel
//                       -> LNA/VGA/squarer/peak -> ideal I&D + window
//                       controller) on the per-sample path — one virtual
//                       call per block per 0.2 ns sample;
//   behavioral_batched  the same chain through event-bounded batches
//                       (Kernel::enable_batching), with the batch-size
//                       histogram showing where the digital events cut;
//   ber_sweep           a small ideal-integrator Eb/N0 sweep, serial vs
//                       fanned across the configured --jobs (wall times;
//                       results are bit-identical by construction).
//
// The scalar and batched chains must agree bit for bit (gated below), so
// the speedup is pure execution-structure gain, not a model change.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "runner/runner.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"
#include "uwb/transmitter.hpp"

using namespace uwbams;

namespace {

struct ChainResult {
  double wall_seconds = 0.0;
  double samples_per_second = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
  std::vector<std::uint64_t> histogram;  // batches by size (empty if scalar)
};

ChainResult run_chain(std::uint64_t seed, int payload_bits, int capacity) {
  uwb::SystemConfig sys;
  sys.dt = 0.2e-9;
  sys.distance = 1.0;
  sys.multipath = false;
  sys.preamble_symbols = 0;
  sys.seed = seed;

  ams::Kernel kernel(sys.dt);
  if (capacity > 0) kernel.enable_batching(capacity);

  uwb::Transmitter tx(sys);
  uwb::ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  const double rx_peak = 10e-3;
  const uwb::GaussianMonocycle pulse(2, sys.pulse_sigma, rx_peak);
  chan.set_awgn_only(rx_peak / sys.pulse_amplitude);
  chan.set_noise_psd(pulse.energy() * sys.pulses_per_symbol /
                     units::db_to_pow(10.0));
  chan.reseed(seed * 7 + 3);

  uwb::Receiver rx(kernel, sys, chan.out(),
                   core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                                 sys));
  rx.set_vga_gain_db(14.0);

  base::Rng rng(seed);
  const auto bits = rng.bits(static_cast<std::size_t>(payload_bits));
  uwb::Packet p;
  p.preamble_symbols = 0;
  p.payload = bits;
  const double t_start = sys.symbol_period;
  tx.send(p, t_start);
  rx.start_genie(kernel, t_start + sys.distance / units::speed_of_light, bits);

  const auto t0 = std::chrono::steady_clock::now();
  kernel.run_until(t_start + p.duration(sys.symbol_period) + sys.symbol_period);
  ChainResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.steps = kernel.steps();
  r.samples_per_second = static_cast<double>(r.steps) / r.wall_seconds;
  r.bits = rx.ber().bits();
  r.errors = rx.ber().errors();
  if (kernel.batching_active()) r.histogram = kernel.batch_histogram();
  return r;
}

}  // namespace

REGISTER_SCENARIO(bench_kernel, "bench",
                  "Batched behavioral-kernel microbenchmark") {
  const int payload_bits = ctx.pick(400, 2000, 8000);

  // Alternate scalar/batched and keep the faster pass of each: wall-clock
  // noise (frequency ramps, co-tenants) far exceeds the effect on a single
  // pass, and the workload is bit-identical across passes by construction.
  ChainResult scalar = run_chain(ctx.seed, payload_bits, 0);
  ChainResult batched = run_chain(ctx.seed, payload_bits, ams::kMaxBatch);
  {
    const ChainResult s2 = run_chain(ctx.seed, payload_bits, 0);
    const ChainResult b2 = run_chain(ctx.seed, payload_bits, ams::kMaxBatch);
    if (s2.samples_per_second > scalar.samples_per_second) scalar = s2;
    if (b2.samples_per_second > batched.samples_per_second) batched = b2;
  }
  const double speedup =
      batched.samples_per_second / scalar.samples_per_second;
  const bool forced_scalar = batched.histogram.empty();

  ctx.sink.notef("behavioral_scalar : %9.0f samples/s (%llu steps)",
                 scalar.samples_per_second,
                 static_cast<unsigned long long>(scalar.steps));
  ctx.sink.notef("behavioral_batched: %9.0f samples/s (%.2fx)%s",
                 batched.samples_per_second, speedup,
                 forced_scalar ? "  [forced scalar]" : "");

  // Honesty gate: the batched chain must reproduce the scalar decisions
  // exactly (bit-identical waveforms imply identical BER counts).
  if (batched.bits != scalar.bits || batched.errors != scalar.errors) {
    ctx.sink.notef("FAIL: batched chain diverged (%llu/%llu bits, "
                   "%llu/%llu errors)",
                   static_cast<unsigned long long>(batched.bits),
                   static_cast<unsigned long long>(scalar.bits),
                   static_cast<unsigned long long>(batched.errors),
                   static_cast<unsigned long long>(scalar.errors));
    return 1;
  }

  std::uint64_t batch_total = 0, batch_count = 0;
  for (std::size_t n = 0; n < batched.histogram.size(); ++n) {
    batch_total += n * batched.histogram[n];
    batch_count += batched.histogram[n];
  }
  const double mean_batch =
      batch_count > 0 ? static_cast<double>(batch_total) /
                            static_cast<double>(batch_count)
                      : 1.0;
  if (!forced_scalar)
    ctx.sink.notef("batches: %llu (mean %.1f samples; boundary = next "
                   "digital event)",
                   static_cast<unsigned long long>(batch_count), mean_batch);

  // BER-sweep wall time, serial vs the configured worker pool. Results are
  // bit-identical for any job count; only the wall clock may move.
  uwb::BerConfig sweep;
  sweep.sys.dt = 0.2e-9;
  sweep.sys.preamble_symbols = 0;
  sweep.sys.multipath = false;
  sweep.sys.distance = 1.0;
  sweep.sys.seed = ctx.seed;
  sweep.ebn0_db = {4, 8, 12, 16};
  sweep.max_bits = static_cast<std::uint64_t>(ctx.pick(400, 2000, 8000));
  sweep.min_errors = 1000000;  // fixed workload for timing
  const auto factory = core::make_integrator_factory(
      core::IntegratorKind::kIdeal, sweep.sys);

  const auto t0 = std::chrono::steady_clock::now();
  sweep.jobs = 1;
  const auto serial = uwb::run_ber_sweep(sweep, factory);
  const auto t1 = std::chrono::steady_clock::now();
  sweep.jobs = ctx.jobs;
  const auto fanned = uwb::run_ber_sweep(sweep, factory);
  const auto t2 = std::chrono::steady_clock::now();
  const double sweep_serial = std::chrono::duration<double>(t1 - t0).count();
  const double sweep_fanned = std::chrono::duration<double>(t2 - t1).count();
  ctx.sink.notef("ber_sweep: serial %.2f s, --jobs=%d %.2f s",
                 sweep_serial, ctx.jobs, sweep_fanned);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].errors != fanned[i].errors ||
        serial[i].bits != fanned[i].bits) {
      ctx.sink.note("FAIL: parallel sweep diverged from serial");
      return 1;
    }
  }

  ctx.sink.metric("behavioral_scalar_samples_per_second",
                  scalar.samples_per_second);
  ctx.sink.metric("behavioral_batched_samples_per_second",
                  batched.samples_per_second);
  ctx.sink.metric("batched_speedup", speedup);
  ctx.sink.metric("mean_batch_samples", mean_batch);
  ctx.sink.metric("ber_sweep_serial_seconds", sweep_serial);
  ctx.sink.metric("ber_sweep_parallel_seconds", sweep_fanned);

  ctx.sink.metric("forced_scalar", std::uint64_t{forced_scalar});
  for (std::size_t n = 0; n < batched.histogram.size(); ++n)
    if (batched.histogram[n] != 0)
      ctx.sink.metric("batch_histogram." + std::to_string(n),
                      batched.histogram[n]);

  // Regression gate: batching must beat the per-sample path on the
  // behavioral chain (skipped under UWBAMS_FORCE_SCALAR, where both runs
  // take the scalar path by design).
  if (!forced_scalar && speedup < 1.05) {
    ctx.sink.notef("FAIL: batched kernel no faster than scalar (%.2fx)",
                   speedup);
    return 1;
  }
  return 0;
}
