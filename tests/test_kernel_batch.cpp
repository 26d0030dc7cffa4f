// Single-sample stepping vs event-bounded batching in the AMS kernel.
//
// The batched dataflow contract is *bit-identity across batch cuts*: a run
// driven one sample at a time through Kernel::step() and the same run
// through run_until() — in one call, or stopped every 1, 7 or 64 samples so
// the batches are cut at other positions — must produce every waveform
// sample, window sample, BER count and acquisition result exactly: same
// operation order, same RNG draw order. The same holds for the parallel
// Eb/N0 sweep at every job count. Ending a run early (Kernel::stop) and
// retiring blocks between runs (Kernel::remove_analog) must leave every
// remaining sample unchanged too. These tests compare doubles with
// EXPECT_EQ on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "ams/kernel.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"
#include "uwb/synchronizer.hpp"
#include "uwb/transmitter.hpp"

namespace {

using namespace uwbams;
using namespace uwbams::uwb;

// How a test advances its kernel to t_stop: kSteps is one Kernel::step()
// per sample (the reference), kRunUntil one run_until() call, and a
// positive stride successive run_until() stops every `stride` samples.
constexpr int kSteps = -1;
constexpr int kRunUntil = 0;
// The batch-cutting drives each compared against the kSteps reference.
constexpr int kCutDrives[] = {kRunUntil, 1, 7, 64};

void drive(ams::Kernel& kernel, double t_stop, int how) {
  const double dt = kernel.dt();
  if (how == kSteps) {
    while (kernel.time() < t_stop - 0.5 * dt) kernel.step();
  } else if (how == kRunUntil) {
    kernel.run_until(t_stop);
  } else {
    while (kernel.time() < t_stop - 0.5 * dt)
      kernel.run_until(std::min(t_stop, kernel.time() + how * dt));
  }
}

// Waveform recorder (sink block, no output of its own).
class BatchTap : public ams::AnalogBlock {
 public:
  explicit BatchTap(const double* in) : in_(in) {}
  void step_block(const double*, double, int n) override {
    for (int i = 0; i < n; ++i) values.push_back(in_[i]);
  }
  std::vector<double> values;

 private:
  const double* in_;
};

SystemConfig batch_sys() {
  SystemConfig sys;
  sys.dt = 0.2e-9;
  sys.distance = 1.0;
  sys.multipath = false;
  sys.seed = 11;
  return sys;
}

ChannelRealization chain_cm1() {
  base::Rng rng(42);
  return generate_cm1(rng);
}

// Runs tx -> CM1 channel (+AWGN) for the packet duration with irregularly
// scheduled no-op events (to force event-bounded batch splits) and records
// the channel output waveform.
std::vector<double> run_chain_waveform(int how) {
  SystemConfig sys = batch_sys();
  ams::Kernel kernel(sys.dt);

  Transmitter tx(sys);
  ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  BatchTap tap(chan.out());
  kernel.add_analog(tap);

  chan.set_realization(chain_cm1(), 3e-3);
  chan.set_noise_psd(2e-18);
  chan.reseed(99);

  Packet p;
  p.preamble_symbols = 2;
  p.payload = {true, false, true};
  tx.send(p, 30e-9);

  // Irregular event times exercise mid-stream batch boundaries.
  std::function<void(double)> tick = [&](double now) {
    kernel.schedule_callback(now + 13.7e-9, tick);
  };
  kernel.schedule_callback(5e-9, tick);

  drive(kernel, p.duration(sys.symbol_period) + 60e-9, how);
  return tap.values;
}

// One transmitter feeding two channels, each with its own AWGN stream and
// its own waveform tap.
struct TwoChannelBench {
  SystemConfig sys = batch_sys();
  ams::Kernel kernel{sys.dt};
  Transmitter tx{sys};
  ChannelBlock chan1{sys, tx.out()};
  ChannelBlock chan2{sys, tx.out()};
  BatchTap tap1{chan1.out()};
  BatchTap tap2{chan2.out()};
  double t_stop = 0.0;

  TwoChannelBench() {
    for (ams::AnalogBlock* b :
         std::initializer_list<ams::AnalogBlock*>{&tx, &chan1, &chan2, &tap1,
                                                  &tap2})
      kernel.add_analog(*b);
    chan1.set_realization(chain_cm1(), 3e-3);
    chan2.set_awgn_only(3e-3);
    chan1.set_noise_psd(2e-18);
    chan2.set_noise_psd(2e-18);
    chan1.reseed(99);
    chan2.reseed(7);
    Packet p;
    p.preamble_symbols = 2;
    p.payload = {true, false, true};
    tx.send(p, 30e-9);
    t_stop = p.duration(sys.symbol_period) + 60e-9;
  }
};

TEST(KernelBatch, StopFromCallbackEndsRunAndResumesBitIdentical) {
  TwoChannelBench full;
  EXPECT_FALSE(full.kernel.run_until(full.t_stop));

  TwoChannelBench cut;
  cut.kernel.stop();  // outside a run: the next run_until starts fresh
  double fired_at = -1.0;
  cut.kernel.schedule_callback(101.3e-9, [&](double now) {
    fired_at = now;
    cut.kernel.stop();
  });
  EXPECT_TRUE(cut.kernel.run_until(cut.t_stop));
  // Ended at the event's batch boundary: no block stepped past it.
  EXPECT_EQ(cut.kernel.time(), fired_at);
  EXPECT_EQ(cut.tap1.values.size(), cut.kernel.steps());
  EXPECT_LT(cut.kernel.steps(), full.kernel.steps());

  EXPECT_FALSE(cut.kernel.run_until(cut.t_stop));
  EXPECT_EQ(cut.kernel.time(), full.kernel.time());
  EXPECT_EQ(cut.tap1.values, full.tap1.values);
  EXPECT_EQ(cut.tap2.values, full.tap2.values);
}

TEST(KernelBatch, RemoveAnalogMidRunLeavesOtherBlocksBitIdentical) {
  TwoChannelBench full;
  full.kernel.run_until(full.t_stop);

  TwoChannelBench cut;
  cut.kernel.run_until(0.4 * cut.t_stop);
  const std::size_t seen = cut.tap2.values.size();
  ASSERT_GT(seen, 0u);
  cut.kernel.remove_analog(cut.chan2);
  cut.kernel.remove_analog(cut.tap2);
  EXPECT_THROW(cut.kernel.remove_analog(cut.chan2), std::invalid_argument);
  cut.kernel.run_until(cut.t_stop);

  // The survivors (including chan1's noise draws) are untouched...
  EXPECT_EQ(cut.tap1.values, full.tap1.values);
  // ...and the removed blocks never stepped again.
  ASSERT_EQ(cut.tap2.values.size(), seen);
  EXPECT_TRUE(std::equal(cut.tap2.values.begin(), cut.tap2.values.end(),
                         full.tap2.values.begin()));
}

TEST(KernelBatch, StoppedItdControllerFiresNoFurtherPhase) {
  const SystemConfig sys = batch_sys();
  ams::Kernel kernel(sys.dt);
  const std::vector<double> input(ams::kMaxBatch, 0.1);
  IdealIntegrator itd(input.data(), sys.integrator_k);
  kernel.add_analog(itd);
  const Adc adc(sys.adc_bits, sys.adc_vmin, sys.adc_vmax);
  int samples = 0;
  ItdController ctl(itd, adc, sys.slot_period(), sys.reset_width,
                    sys.integration_window,
                    [&](const WindowSample&) { ++samples; });
  ctl.start(kernel, 10e-9);
  kernel.run_until(500e-9);
  ASSERT_GT(samples, 0);

  const int before = samples;
  const IntegrateAndDump::Mode mode = itd.mode();
  ctl.stop();
  kernel.run_until(2e-6);  // spans many window periods
  EXPECT_EQ(samples, before);
  EXPECT_EQ(itd.mode(), mode);  // no dump/integrate/hold edge either
}

TEST(KernelBatch, WaveformsBitIdenticalAcrossBatchCuts) {
  const auto stepped = run_chain_waveform(kSteps);
  // The channel's delay line is a ring of (longest tap + 2 + kMaxBatch)
  // samples. Several laps of it make batches cross the ring end, where
  // each tap's read splits into two spans.
  const SystemConfig sys = batch_sys();
  double longest = 0.0;
  for (const auto& tap : chain_cm1().taps)
    longest = std::max(longest, tap.delay);
  const double ring = std::round(
      (sys.distance / units::speed_of_light + longest) / sys.dt) +
      2 + ams::kMaxBatch;
  ASSERT_GT(static_cast<double>(stepped.size()), 3.0 * ring);
  for (int how : kCutDrives) {
    const auto batched = run_chain_waveform(how);
    ASSERT_EQ(batched.size(), stepped.size()) << "drive " << how;
    for (std::size_t i = 0; i < stepped.size(); ++i)
      ASSERT_EQ(batched[i], stepped[i]) << "sample " << i << " drive " << how;
  }
}

// Genie-mode receiver over an AWGN link: window samples (time, code and
// pre-quantization analog value) and the demodulator's BER counts.
struct GenieRun {
  std::vector<WindowSample> samples;
  std::uint64_t bits = 0;
  std::uint64_t errors = 0;
};

GenieRun run_genie(core::IntegratorKind kind, int how, double ebn0_db,
                   int payload_bits) {
  SystemConfig sys = batch_sys();
  sys.seed = 5;
  ams::Kernel kernel(sys.dt);

  Transmitter tx(sys);
  ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  const double rx_peak = 8e-3;
  chan.set_awgn_only(rx_peak / sys.pulse_amplitude);
  const GaussianMonocycle pulse(2, sys.pulse_sigma, rx_peak);
  chan.set_noise_psd(pulse.energy() * sys.pulses_per_symbol /
                     units::db_to_pow(ebn0_db));
  chan.reseed(123);

  Receiver rx(kernel, sys, chan.out(),
              core::make_integrator_factory(kind, sys));
  rx.keep_samples(true);

  base::Rng rng(7);
  Packet p;
  p.preamble_symbols = 0;
  p.payload = rng.bits(static_cast<std::size_t>(payload_bits));
  const double t_start = 2.0 * sys.slot_period();
  tx.send(p, t_start);
  rx.start_genie(kernel, t_start + sys.distance / units::speed_of_light,
                 p.payload);
  drive(kernel, t_start + p.duration(sys.symbol_period) + 1e-6, how);
  return {rx.samples(), rx.ber().bits(), rx.ber().errors()};
}

void expect_same_samples(const std::vector<WindowSample>& a,
                         const std::vector<WindowSample>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].window_start, b[i].window_start) << what << " #" << i;
    ASSERT_EQ(a[i].code, b[i].code) << what << " #" << i;
    ASSERT_EQ(a[i].analog, b[i].analog) << what << " #" << i;
  }
}

TEST(KernelBatch, WindowSamplesBitIdenticalIdealIntegrator) {
  const auto stepped = run_genie(core::IntegratorKind::kIdeal, kSteps, 10.0, 24);
  ASSERT_GT(stepped.samples.size(), 10u);
  for (int how : kCutDrives) {
    const auto batched =
        run_genie(core::IntegratorKind::kIdeal, how, 10.0, 24);
    expect_same_samples(stepped.samples, batched.samples, "ideal");
  }
}

TEST(KernelBatch, WindowSamplesBitIdenticalTwoPoleIntegrator) {
  const auto stepped =
      run_genie(core::IntegratorKind::kBehavioral, kSteps, 10.0, 24);
  const auto batched =
      run_genie(core::IntegratorKind::kBehavioral, kRunUntil, 10.0, 24);
  expect_same_samples(stepped.samples, batched.samples, "two-pole");
}

TEST(KernelBatch, WindowSamplesBitIdenticalSpiceIntegrator) {
  // The co-simulated netlist is the expensive fidelity: a short payload
  // still crosses several full window cycles (dump/integrate/hold/ADC).
  const auto stepped = run_genie(core::IntegratorKind::kSpice, kSteps, 10.0, 4);
  ASSERT_GT(stepped.samples.size(), 4u);
  const auto batched =
      run_genie(core::IntegratorKind::kSpice, kRunUntil, 10.0, 4);
  expect_same_samples(stepped.samples, batched.samples, "spice");
}

TEST(KernelBatch, BerCountsBitIdenticalSteppedVsBatched) {
  // Low Eb/N0 so the count includes errors, not only decided bits.
  const auto stepped = run_genie(core::IntegratorKind::kIdeal, kSteps, 4.0, 300);
  ASSERT_EQ(stepped.bits, 300u);
  ASSERT_GT(stepped.errors, 0u);
  for (int how : kCutDrives) {
    const auto batched = run_genie(core::IntegratorKind::kIdeal, how, 4.0, 300);
    EXPECT_EQ(batched.bits, stepped.bits) << "drive " << how;
    EXPECT_EQ(batched.errors, stepped.errors) << "drive " << how;
  }
}

TEST(KernelBatch, BatchHistogramAccountsForEverySample) {
  SystemConfig sys = batch_sys();
  ams::Kernel kernel(sys.dt);

  Transmitter tx(sys);
  ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  chan.set_awgn_only(1e-3);
  chan.set_noise_psd(1e-18);

  Receiver rx(kernel, sys, chan.out(),
              core::make_integrator_factory(core::IntegratorKind::kIdeal, sys));
  base::Rng rng(3);
  Packet p;
  p.preamble_symbols = 0;
  p.payload = rng.bits(8);
  tx.send(p, 100e-9);
  rx.start_genie(kernel, 100e-9 + sys.distance / units::speed_of_light,
                 p.payload);
  kernel.run_until(p.duration(sys.symbol_period) + 1e-6);

  const auto& hist = kernel.batch_histogram();
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(ams::kMaxBatch) + 1);
  EXPECT_EQ(hist[0], 0u);
  std::uint64_t total = 0, batches = 0;
  for (std::size_t n = 0; n < hist.size(); ++n) {
    total += n * hist[n];
    batches += hist[n];
  }
  EXPECT_EQ(total, kernel.steps());
  // Event-bounded: the controller's window phases force sub-kMaxBatch
  // batches, so there must be more batches than steps/kMaxBatch alone.
  EXPECT_GT(batches, kernel.steps() / ams::kMaxBatch);
}

TEST(KernelBatch, ParallelSweepMatchesSerialAtEveryJobCount) {
  BerConfig cfg;
  cfg.sys = batch_sys();
  cfg.sys.seed = 21;
  cfg.ebn0_db = {4.0, 8.0, 12.0};
  cfg.max_bits = 400;
  cfg.min_errors = 25;
  const auto factory =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);

  cfg.jobs = 1;
  const auto serial = run_ber_sweep(cfg, factory);
  ASSERT_EQ(serial.size(), 3u);
  for (int jobs : {2, 3, 8}) {
    cfg.jobs = jobs;
    const auto parallel = run_ber_sweep(cfg, factory);
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].ebn0_db, serial[i].ebn0_db) << "jobs " << jobs;
      EXPECT_EQ(parallel[i].bits, serial[i].bits) << "jobs " << jobs;
      EXPECT_EQ(parallel[i].errors, serial[i].errors) << "jobs " << jobs;
      EXPECT_EQ(parallel[i].ber, serial[i].ber) << "jobs " << jobs;
    }
  }
}

// Full acquisition (NE -> PS -> AGC -> coarse -> fine ToA), then SFD and
// payload decoding, on the clean AWGN link of the receiver-link tests.
struct AcquireRun {
  bool synced = false;
  double toa = -1.0;
  std::vector<bool> payload;
  std::vector<WindowSample> samples;
};

AcquireRun run_acquire(int how) {
  SystemConfig sys = batch_sys();
  sys.preamble_symbols = 80;
  sys.noise_est_windows = 16;

  ams::Kernel kernel(sys.dt);
  Transmitter tx(sys);
  ChannelBlock chan(sys, nullptr);
  kernel.add_analog(tx);
  kernel.add_analog(chan);
  chan.set_input(tx.out());
  const double rx_peak = 2e-3;
  chan.set_awgn_only(rx_peak / sys.pulse_amplitude);
  const GaussianMonocycle pulse(2, sys.pulse_sigma, rx_peak);
  chan.set_noise_psd(pulse.energy() * sys.pulses_per_symbol /
                     units::db_to_pow(20.0));

  Receiver rx(kernel, sys, chan.out(),
              core::make_integrator_factory(core::IntegratorKind::kIdeal, sys));
  rx.keep_samples(true);
  AcquireRun run;
  rx.on_sync([&](double t) { run.toa = t; });
  base::Rng rng(77);
  Packet p;
  p.preamble_symbols = sys.preamble_symbols;
  p.sfd_symbols = 1;
  p.payload = rng.bits(16);
  rx.collect_payload(static_cast<int>(p.payload.size()));
  rx.start_acquire(kernel, 50e-9);

  // Leave room for noise-floor gain backoff passes before the packet.
  const double t_start = 2.2e-6;
  tx.send(p, t_start);
  drive(kernel, t_start + p.duration(sys.symbol_period) + 2e-6, how);
  run.synced = rx.sync_done();
  run.payload = rx.received_payload();
  run.samples = rx.samples();
  return run;
}

TEST(KernelBatch, AcquireModeBitIdenticalSteppedVsBatched) {
  const AcquireRun stepped = run_acquire(kSteps);
  ASSERT_TRUE(stepped.synced);
  ASSERT_GT(stepped.toa, 0.0);
  ASSERT_EQ(stepped.payload.size(), 16u);
  for (int how : kCutDrives) {
    const AcquireRun batched = run_acquire(how);
    EXPECT_EQ(batched.synced, stepped.synced) << "drive " << how;
    EXPECT_EQ(batched.toa, stepped.toa) << "drive " << how;
    EXPECT_EQ(batched.payload, stepped.payload) << "drive " << how;
    expect_same_samples(stepped.samples, batched.samples, "acquire");
  }
}

}  // namespace
