// Tests for the AMS co-simulation kernel, ODE states and the spice bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ams/kernel.hpp"
#include "ams/ode.hpp"
#include "ams/spice_bridge.hpp"
#include "base/units.hpp"
#include "spice/devices.hpp"

namespace {

using namespace uwbams;

class Recorder : public ams::AnalogBlock {
 public:
  explicit Recorder(const double* in) : in_(in) {}
  void step_block(const double* t, double, int n) override {
    for (int i = 0; i < n; ++i) {
      times.push_back(t[i]);
      values.push_back(in_[i]);
    }
  }
  const double* in_;
  std::vector<double> times, values;
};

// Accumulates dt per sample into a single scalar (wire it into consumers
// only under single-sample stepping).
class Ramp : public ams::AnalogBlock {
 public:
  void step_block(const double*, double dt, int n) override {
    for (int i = 0; i < n; ++i) out += dt;
  }
  double out = 0.0;
};

// Numbers its samples 1, 2, 3, ... into a kMaxBatch-deep output buffer.
class Counter : public ams::AnalogBlock {
 public:
  void step_block(const double*, double, int n) override {
    for (int i = 0; i < n; ++i) out[i] = static_cast<double>(++count);
  }
  std::uint64_t count = 0;
  double out[ams::kMaxBatch] = {};
};

TEST(Kernel, FixedStepAdvancesTime) {
  ams::Kernel k(1e-9);
  Ramp r;
  k.add_analog(r);
  k.run_until(100e-9);
  EXPECT_EQ(k.steps(), 100u);
  EXPECT_NEAR(k.time(), 100e-9, 1e-15);
  EXPECT_NEAR(r.out, 100e-9, 1e-15);
}

TEST(Kernel, RejectsBadDt) {
  EXPECT_THROW(ams::Kernel(0.0), std::invalid_argument);
  EXPECT_THROW(ams::Kernel(-1.0), std::invalid_argument);
  EXPECT_THROW(ams::Kernel(std::nan("")), std::invalid_argument);
  EXPECT_THROW(ams::Kernel(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Kernel, BlocksStepInRegistrationOrder) {
  ams::Kernel k(1e-9);
  Ramp r;
  Recorder rec(&r.out);
  k.add_analog(r);
  k.add_analog(rec);
  k.step();
  // Recorder sees the ramp already updated within the same step.
  EXPECT_NEAR(rec.values.at(0), 1e-9, 1e-18);
}

struct CountingProcess : ams::DigitalProcess {
  void wake(ams::Kernel&, double t) override { wake_times.push_back(t); }
  std::vector<double> wake_times;
};

TEST(Kernel, EventsFireAtScheduledTimes) {
  ams::Kernel k(1e-9);
  CountingProcess p;
  k.schedule(p, 5e-9);
  k.schedule(p, 2e-9);
  k.schedule(p, 2e-9);  // same time: fires twice
  k.run_until(10e-9);
  ASSERT_EQ(p.wake_times.size(), 3u);
  EXPECT_NEAR(p.wake_times[0], 2e-9, 1e-12);
  EXPECT_NEAR(p.wake_times[1], 2e-9, 1e-12);
  EXPECT_NEAR(p.wake_times[2], 5e-9, 1e-12);
}

TEST(Kernel, CallbackAndPastSchedulingRejected) {
  ams::Kernel k(1e-9);
  int fired = 0;
  k.schedule_callback(3e-9, [&](double) { ++fired; });
  k.run_until(10e-9);
  EXPECT_EQ(fired, 1);
  EXPECT_THROW(k.schedule_callback(1e-9, [](double) {}), std::invalid_argument);
  // Non-finite times would break the event queue's ordering or never fire.
  struct Idle : ams::DigitalProcess {
    void wake(ams::Kernel&, double) override {}
  } idle;
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf}) {
    EXPECT_THROW(k.schedule_callback(bad, [](double) {}),
                 std::invalid_argument);
    EXPECT_THROW(k.schedule(idle, bad), std::invalid_argument);
  }
  EXPECT_THROW(k.run_until(std::nan("")), std::invalid_argument);
}

TEST(Kernel, EventsBeforeAnalogStep) {
  // An event scheduled at t must run before the analog blocks step from t.
  ams::Kernel k(1e-9);
  Ramp r;
  double ramp_at_event = -1.0;
  k.add_analog(r);
  k.schedule_callback(5e-9, [&](double) { ramp_at_event = r.out; });
  k.run_until(10e-9);
  EXPECT_NEAR(ramp_at_event, 5e-9, 1e-15);  // 5 steps completed, 6th not yet
}

// A digital process that logs the kernel time and the analog sample count
// at every wake, then reschedules itself after an irregular, mostly
// non-integer number of steps (some events land exactly on a sample time,
// some between two samples, two share a time).
struct IrregularProcess : ams::DigitalProcess {
  explicit IrregularProcess(const Counter& c) : counter(c) {}
  void wake(ams::Kernel& kernel, double t) override {
    wake_times.push_back(t);
    counts_at_wake.push_back(counter.count);
    static constexpr double kGaps[] = {3.0, 0.4, 6.7, 0.0, 1.0, 12.5, 2.2};
    kernel.schedule(*this, t + kGaps[wake_times.size() % 7] * kernel.dt());
  }
  const Counter& counter;
  std::vector<double> wake_times;
  std::vector<std::uint64_t> counts_at_wake;
};

struct CutRun {
  std::vector<double> wake_times;
  std::vector<std::uint64_t> counts_at_wake;
  std::vector<double> sample_times, sample_values;
  std::uint64_t steps;
  double time;
  // Per run_until() call: the sample count it was asked to reach and the
  // one it reached.
  std::vector<std::uint64_t> stop_targets, stop_steps;
};

// Drives the Counter -> Recorder chain plus the irregular process for
// n_samples, either one Kernel::step() per sample (strides empty) or
// through run_until() stops that advance by sample counts cycling through
// `strides`.
CutRun run_cut(const std::vector<std::uint64_t>& strides,
               std::uint64_t n_samples) {
  ams::Kernel k(1e-9);
  Counter counter;
  Recorder rec(counter.out);
  k.add_analog(counter);
  k.add_analog(rec);
  IrregularProcess proc(counter);
  k.schedule(proc, 2.5e-9);
  std::vector<std::uint64_t> targets, reached;
  if (strides.empty()) {
    for (std::uint64_t i = 0; i < n_samples; ++i) k.step();
  } else {
    for (std::uint64_t i = 0, target = 0; target < n_samples; ++i) {
      target = std::min(target + strides[i % strides.size()], n_samples);
      k.run_until(static_cast<double>(target) * k.dt());
      targets.push_back(target);
      reached.push_back(k.steps());
    }
  }
  return {proc.wake_times, proc.counts_at_wake, rec.times, rec.values,
          k.steps(),       k.time(),            targets,   reached};
}

TEST(Kernel, RunUntilMatchesSingleStepsAcrossEventCuts) {
  // run_until() admits a sample into a batch only if no digital event is
  // due at it and it lies before t_stop. Stopping at irregular sample
  // counts moves the batch cuts around the event times: every event must
  // still see exactly the samples the single-step run shows it, and every
  // stop must land on its sample.
  const std::uint64_t n = 700;
  const CutRun stepped = run_cut({}, n);
  ASSERT_EQ(stepped.steps, n);
  ASSERT_GT(stepped.wake_times.size(), 50u);
  for (const auto& strides : std::vector<std::vector<std::uint64_t>>{
           {n}, {1}, {7}, {64}, {1, 7, 64}, {64, 3, 1, 7, 19}}) {
    const CutRun cut = run_cut(strides, n);
    EXPECT_EQ(cut.stop_steps, cut.stop_targets);
    EXPECT_EQ(cut.steps, stepped.steps);
    EXPECT_EQ(cut.time, stepped.time);
    EXPECT_EQ(cut.wake_times, stepped.wake_times);
    EXPECT_EQ(cut.counts_at_wake, stepped.counts_at_wake);
    EXPECT_EQ(cut.sample_times, stepped.sample_times);
    EXPECT_EQ(cut.sample_values, stepped.sample_values);
  }
}

TEST(Ode, IdealIntegratorRampsLinearly) {
  ams::IdealIntegratorState s(2.0);
  const double dt = 1e-3;
  for (int i = 0; i < 1000; ++i) s.step(1.0, dt);
  EXPECT_NEAR(s.value(), 2.0, 2e-3);  // y = k * t = 2 * 1
  s.reset();
  EXPECT_EQ(s.value(), 0.0);
}

TEST(Ode, OnePoleStepResponse) {
  const double omega = 2 * units::pi * 1e6;
  ams::OnePoleState s(3.0, omega);
  const double dt = 1e-9;
  double t = 0;
  for (int i = 0; i < 2000; ++i) {
    s.step(1.0, dt);
    t += dt;
    const double expect = 3.0 * (1.0 - std::exp(-omega * t));
    EXPECT_NEAR(s.value(), expect, 0.01) << "t=" << t;
  }
}

TEST(Ode, TwoPoleDcGainAndCascade) {
  ams::TwoPoleState s(units::db_to_lin(21.0), 2 * units::pi * 1e6,
                      2 * units::pi * 1e9);
  const double dt = 0.1e-9;
  for (int i = 0; i < 200000; ++i) s.step(0.01, dt);  // 20 us >> tau1
  EXPECT_NEAR(s.value(), units::db_to_lin(21.0) * 0.01, 1e-4);
}

TEST(Ode, TrapezoidalStableForStiffPole) {
  // omega*dt = 2*pi*5.9GHz*0.05ns ~ 1.85: explicit Euler would be at its
  // stability margin; trapezoidal must remain smooth and bounded.
  ams::OnePoleState s(1.0, 2 * units::pi * 5.9e9);
  const double dt = 0.05e-9;
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double v = s.step(1.0, dt);
    EXPECT_LE(v, 1.2);
    EXPECT_GE(v, prev - 1e-9);  // monotone rise, no ringing
    prev = v;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

// --- SpiceBridge -----------------------------------------------------------

TEST(SpiceBridge, RcTracksAnalyticStep) {
  // Behavioral source driving an embedded spice RC through the bridge.
  auto ckt = std::make_unique<spice::Circuit>();
  const auto in = ckt->node("in");
  const auto out = ckt->node("out");
  ckt->add<spice::VoltageSource>("vin", in, ckt->ground(),
                                 spice::Waveform::dc(0.0));
  ckt->add<spice::Resistor>("R1", in, out, 1e3);
  ckt->add<spice::Capacitor>("C1", out, ckt->ground(), 1e-9);

  double drive = 0.0;
  spice::TransientOptions topts;
  ams::SpiceBridge bridge(std::move(ckt), topts);
  bridge.bind_input("vin", &drive);
  const double* vout = bridge.bind_output("out");

  ams::Kernel k(10e-9);
  k.add_analog(bridge);
  k.run_until(100e-9);
  EXPECT_NEAR(*vout, 0.0, 1e-9);

  drive = 1.0;  // step at t = 100 ns
  const double t0 = k.time();
  k.run_until(t0 + 3e-6);
  const double tau = 1e-6;
  const double expect = 1.0 - std::exp(-(k.time() - t0) / tau);
  EXPECT_NEAR(*vout, expect, 0.02);
}

TEST(SpiceBridge, PrimeUsesCurrentInputs) {
  auto ckt = std::make_unique<spice::Circuit>();
  const auto n = ckt->node("n");
  ckt->add<spice::VoltageSource>("vin", n, ckt->ground(),
                                 spice::Waveform::dc(0.0));
  ckt->add<spice::Resistor>("R1", n, ckt->ground(), 1e3);
  double drive = 2.5;
  ams::SpiceBridge bridge(std::move(ckt), {});
  bridge.bind_input("vin", &drive);
  bridge.prime();
  EXPECT_NEAR(bridge.v("n"), 2.5, 1e-6);
}

TEST(SpiceBridge, BadBindingsThrow) {
  auto ckt = std::make_unique<spice::Circuit>();
  ckt->add<spice::Resistor>("R1", ckt->node("a"), ckt->ground(), 1e3);
  double sig = 0.0;
  ams::SpiceBridge bridge(std::move(ckt), {});
  EXPECT_THROW(bridge.bind_input("missing", &sig), std::invalid_argument);
  EXPECT_THROW(bridge.bind_output("nosuch"), std::invalid_argument);
  EXPECT_THROW(bridge.v("a"), std::logic_error);  // before prime
}

TEST(SpiceBridge, SlewLimitBoundsDriveRate) {
  auto ckt = std::make_unique<spice::Circuit>();
  const auto n = ckt->node("n");
  ckt->add<spice::VoltageSource>("vin", n, ckt->ground(),
                                 spice::Waveform::dc(0.0));
  ckt->add<spice::Resistor>("R1", n, ckt->ground(), 1e3);
  double drive = 0.0;
  ams::SpiceBridge bridge(std::move(ckt), {});
  bridge.bind_input("vin", &drive, 1.0);  // 1 V/ns
  bridge.prime();
  drive = 10.0;
  const double t[] = {0.0, 1e-9};
  bridge.step_block(&t[0], 1e-9, 1);
  EXPECT_NEAR(bridge.v("n"), 1.0, 1e-6);  // limited to 1 V in 1 ns
  bridge.step_block(&t[1], 1e-9, 1);
  EXPECT_NEAR(bridge.v("n"), 2.0, 1e-6);
}

}  // namespace
