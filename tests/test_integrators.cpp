// Tests for the three Integrate & Dump fidelities and their agreement —
// the substitute-and-play contract.
#include <gtest/gtest.h>

#include <cmath>

#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "uwb/integrator.hpp"

namespace {

using namespace uwbams;
using namespace uwbams::uwb;

// Drives one dump/integrate/hold cycle and returns the value after each.
struct CycleResult {
  double after_dump, after_integrate, after_hold;
};

CycleResult run_cycle(IntegrateAndDump& itd, double& input, double vin,
                      double t_int = 100e-9, double dt = 0.2e-9) {
  CycleResult r{};
  double t = 0.0;
  auto run = [&](IntegrateAndDump::Mode m, double dur) {
    itd.set_mode(m);
    for (const double end = t + dur; t < end - dt / 2; t += dt)
      itd.step_block(&t, dt, 1);
  };
  input = 0.0;
  run(IntegrateAndDump::Mode::kDump, 30e-9);
  r.after_dump = itd.output();
  input = vin;
  run(IntegrateAndDump::Mode::kIntegrate, t_int);
  r.after_integrate = itd.output();
  input = 0.0;
  run(IntegrateAndDump::Mode::kHold, 50e-9);
  r.after_hold = itd.output();
  return r;
}

TEST(IdealIntegrator, RampHoldDump) {
  double in = 0.0;
  IdealIntegrator itd(&in, 6.23e7);
  const auto r = run_cycle(itd, in, 0.05);
  EXPECT_NEAR(r.after_dump, 0.0, 1e-12);
  // Trapezoidal startup halves the first input sample: K*vin*dt/2 offset.
  EXPECT_NEAR(r.after_integrate, 6.23e7 * 0.05 * 100e-9, 5e-4);
  EXPECT_NEAR(r.after_hold, r.after_integrate, 1e-12);  // perfect hold
  itd.set_mode(IntegrateAndDump::Mode::kDump);
  const double t0 = 0.0;
  itd.step_block(&t0, 1e-9, 1);
  EXPECT_EQ(itd.output(), 0.0);
  EXPECT_EQ(itd.kind(), "IDEAL");
}

TEST(TwoPoleIntegrator, MatchesFirstOrderTheory) {
  // For t << 1/w2 settling and t ~ tau1, output follows
  // K*vin*(1 - exp(-t/tau1)).
  TwoPoleParams p;  // paper defaults: 21 dB, 0.886 MHz, 5.895 GHz
  double in = 0.0;
  TwoPoleIntegrator itd(&in, p);
  const auto r = run_cycle(itd, in, 0.05);
  const double k = units::db_to_lin(p.dc_gain_db);
  const double tau1 = 1.0 / (2 * units::pi * p.f_pole1);
  const double expect = k * 0.05 * (1.0 - std::exp(-100e-9 / tau1));
  EXPECT_NEAR(r.after_integrate, expect, 0.03 * expect);
  EXPECT_NEAR(r.after_hold, r.after_integrate, 1e-12);
  EXPECT_EQ(itd.kind(), "VHDL-AMS");
}

TEST(TwoPoleIntegrator, ClampCompressesLargeInputs) {
  TwoPoleParams lin;
  TwoPoleParams clamped = lin;
  clamped.input_clamp = 0.104;
  double in_l = 0.0, in_c = 0.0;
  TwoPoleIntegrator itd_l(&in_l, lin);
  TwoPoleIntegrator itd_c(&in_c, clamped);
  // Small input: identical.
  const auto small_l = run_cycle(itd_l, in_l, 0.05);
  const auto small_c = run_cycle(itd_c, in_c, 0.05);
  EXPECT_NEAR(small_l.after_integrate, small_c.after_integrate, 1e-9);
  // Large input: the clamped model saturates at clamp-level drive.
  const auto big_l = run_cycle(itd_l, in_l, 0.4);
  const auto big_c = run_cycle(itd_c, in_c, 0.4);
  EXPECT_NEAR(big_c.after_integrate,
              small_c.after_integrate * (0.104 / 0.05), 0.05);
  EXPECT_GT(big_l.after_integrate, 2.5 * big_c.after_integrate);
}

TEST(SpiceIntegrator, CycleBehavesLikeBehavioral) {
  double in = 0.0;
  SpiceIntegrator itd(&in);
  const auto r = run_cycle(itd, in, 0.04);
  EXPECT_NEAR(r.after_dump, 0.0, 0.02);
  EXPECT_GT(r.after_integrate, 0.1);  // integrated up
  // Hold droop below 20%.
  EXPECT_NEAR(r.after_hold, r.after_integrate,
              0.2 * r.after_integrate + 5e-3);
  EXPECT_EQ(itd.kind(), "ELDO");
}

TEST(SpiceIntegrator, MultirateDecimationMatchesLockstep) {
  // The stat_equiv profile runs the embedded solver once per N macro
  // samples (sample-and-hold drive, step dt*N). Under a DC drive the
  // hold is exact, so the decimated cell must land on the same
  // window-edge outputs as the lockstep one up to the larger step's
  // truncation error. decim=7 does not divide the dump (150) or
  // integrate (500) sample counts, so set_mode's flush of the pending
  // partial group is exercised at every window edge.
  spice::TransientOptions fast;
  fast.cosim_decimation = 7;
  double in_1 = 0.0, in_n = 0.0;
  SpiceIntegrator lock(&in_1);
  SpiceIntegrator deci(&in_n, {}, fast);
  const auto r1 = run_cycle(lock, in_1, 0.04);
  const auto rn = run_cycle(deci, in_n, 0.04);
  EXPECT_NEAR(rn.after_dump, r1.after_dump, 0.02);
  EXPECT_GT(rn.after_integrate, 0.1);  // still integrates up
  EXPECT_NEAR(rn.after_integrate, r1.after_integrate,
              0.05 * r1.after_integrate + 5e-3);
  EXPECT_NEAR(rn.after_hold, r1.after_hold, 0.05 * r1.after_hold + 5e-3);
}

TEST(SpiceIntegrator, PolarityMatchesBehavioralVariants) {
  // Positive input must integrate upward for all fidelities.
  double in = 0.0;
  SpiceIntegrator spice(&in);
  const auto rs = run_cycle(spice, in, 0.03);
  double in2 = 0.0;
  TwoPoleIntegrator model(&in2, TwoPoleParams{});
  const auto rm = run_cycle(model, in2, 0.03);
  EXPECT_GT(rs.after_integrate, 0.0);
  EXPECT_GT(rm.after_integrate, 0.0);
}

// Substitute-and-play property: for inputs inside the linear range all
// three fidelities agree on the integrated value within a modest tolerance.
class VariantAgreement : public ::testing::TestWithParam<double> {};

TEST_P(VariantAgreement, LinearRangeAgreement) {
  const double vin = GetParam();
  uwb::SystemConfig sys;
  double in_i = 0, in_b = 0, in_s = 0;
  const auto fi = core::make_integrator_factory(core::IntegratorKind::kIdeal, sys);
  const auto fb =
      core::make_integrator_factory(core::IntegratorKind::kBehavioral, sys);
  const auto fs = core::make_integrator_factory(core::IntegratorKind::kSpice, sys);
  auto ii = fi(&in_i);
  auto ib = fb(&in_b);
  auto is = fs(&in_s);
  const double t_int = 50e-9;  // short window: pole-1 droop < 10%
  const auto ri = run_cycle(*ii, in_i, vin, t_int);
  const auto rb = run_cycle(*ib, in_b, vin, t_int);
  const auto rs = run_cycle(*is, in_s, vin, t_int);
  EXPECT_NEAR(rb.after_integrate, ri.after_integrate,
              0.25 * ri.after_integrate);
  EXPECT_NEAR(rs.after_integrate, ri.after_integrate,
              0.35 * ri.after_integrate + 0.01);
}

INSTANTIATE_TEST_SUITE_P(SmallSignals, VariantAgreement,
                         ::testing::Values(0.01, 0.02, 0.04, 0.06));

TEST(BlockVariant, NamesAndFactories) {
  EXPECT_EQ(core::to_string(core::IntegratorKind::kIdeal), "IDEAL");
  EXPECT_EQ(core::to_string(core::IntegratorKind::kSpice), "ELDO");
  EXPECT_EQ(core::to_string(core::IntegratorKind::kBehavioral), "VHDL-AMS");
  uwb::SystemConfig sys;
  double in = 0.0;
  for (auto kind :
       {core::IntegratorKind::kIdeal, core::IntegratorKind::kBehavioral}) {
    auto itd = core::make_integrator_factory(kind, sys)(&in);
    ASSERT_NE(itd, nullptr);
    EXPECT_EQ(itd->mode(), IntegrateAndDump::Mode::kDump);
  }
}

TEST(BlockVariant, BehavioralClampPolicy) {
  uwb::SystemConfig sys;
  double in = 0.0;
  core::VariantOptions opts;
  opts.behavioral_uses_clamp = true;
  auto itd = core::make_integrator_factory(core::IntegratorKind::kBehavioral,
                                           sys, opts)(&in);
  auto* tp = dynamic_cast<TwoPoleIntegrator*>(itd.get());
  ASSERT_NE(tp, nullptr);
  EXPECT_NEAR(tp->params().input_clamp, sys.integrator_clamp, 1e-12);
  // Default (paper-faithful): linear.
  auto itd2 = core::make_integrator_factory(core::IntegratorKind::kBehavioral,
                                            sys)(&in);
  EXPECT_EQ(dynamic_cast<TwoPoleIntegrator*>(itd2.get())->params().input_clamp,
            0.0);
}

}  // namespace
