// Cross-module property tests: frequency-domain behaviour of the
// behavioral ODE states probed with time-domain sinusoids, quantizer
// round trips, channel invariants, counter arithmetic, and waveform
// sampling invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "ams/ode.hpp"
#include "base/parallel.hpp"
#include "base/random.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "core/equiv.hpp"
#include "core/montecarlo.hpp"
#include "uwb/adc.hpp"
#include "uwb/channel.hpp"
#include "uwb/pulse.hpp"
#include "uwb/transceiver.hpp"

namespace {

using namespace uwbams;

// Measures |H(f)| of a discrete-time state by driving a sine and taking
// the steady-state amplitude ratio.
template <typename State>
double probe_gain(State& s, double freq, double dt, double tau_slowest) {
  const double w = 2 * units::pi * freq;
  // Settle past both the drive periodicity and the slowest natural mode,
  // then measure the final quarter of the run.
  const double t_total = std::max(8.0 / freq, 8.0 * tau_slowest);
  const int n = static_cast<int>(t_total / dt);
  double peak = 0.0;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    const double y = s.step(std::sin(w * t), dt);
    t += dt;
    if (i > 3 * n / 4) peak = std::max(peak, std::abs(y));
  }
  return peak;
}

class OnePoleFrequency : public ::testing::TestWithParam<double> {};

TEST_P(OnePoleFrequency, MagnitudeMatchesTransferFunction) {
  const double f = GetParam();
  const double f0 = 5e6;
  ams::OnePoleState s(2.0, 2 * units::pi * f0);
  const double dt = 1.0 / (f * 400.0);  // 400 samples per period
  const double measured = probe_gain(s, f, dt, 1.0 / (2 * units::pi * f0));
  const double expect = 2.0 / std::sqrt(1.0 + (f / f0) * (f / f0));
  EXPECT_NEAR(measured, expect, 0.05 * expect) << "f=" << f;
}

INSTANTIATE_TEST_SUITE_P(Decades, OnePoleFrequency,
                         ::testing::Values(5e5, 2e6, 5e6, 2e7, 5e7));

class TwoPoleFrequency : public ::testing::TestWithParam<double> {};

TEST_P(TwoPoleFrequency, MagnitudeMatchesCascade) {
  const double f = GetParam();
  // The paper's Phase-IV parameters.
  const double k = units::db_to_lin(21.0), f1 = 0.886e6, f2 = 5.895e9;
  ams::TwoPoleState s(k, 2 * units::pi * f1, 2 * units::pi * f2);
  const double dt = 1.0 / (f * 500.0);
  const double measured = probe_gain(s, f, dt, 1.0 / (2 * units::pi * f1));
  const double expect = k / std::sqrt((1 + std::pow(f / f1, 2)) *
                                      (1 + std::pow(f / f2, 2)));
  EXPECT_NEAR(measured, expect, 0.08 * expect) << "f=" << f;
}

INSTANTIATE_TEST_SUITE_P(Band, TwoPoleFrequency,
                         ::testing::Values(1e5, 1e6, 1e7, 1e8));

TEST(TwoPoleState, IntegratorBandSlope) {
  // Between the poles the response must fall ~20 dB per decade — the
  // "approximates an ideal integrator" band of Fig. 4.
  const double k = units::db_to_lin(21.0), f1 = 0.886e6, f2 = 5.895e9;
  ams::TwoPoleState a(k, 2 * units::pi * f1, 2 * units::pi * f2);
  ams::TwoPoleState b(k, 2 * units::pi * f1, 2 * units::pi * f2);
  const double tau1 = 1.0 / (2 * units::pi * f1);
  const double g10m = probe_gain(a, 10e6, 0.2e-9, tau1);
  const double g100m = probe_gain(b, 100e6, 0.02e-9, tau1);
  EXPECT_NEAR(units::lin_to_db(g10m / g100m), 20.0, 1.5);
}

TEST(AdcDac, RoundTripWithinLsb) {
  base::Rng rng(4);
  const uwb::Adc adc(6, 0.0, 0.5);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.0, 0.5);
    EXPECT_NEAR(adc.code_to_voltage(adc.quantize(v)), v, 0.5 * adc.lsb() + 1e-12);
  }
  const uwb::Dac dac(6, 0.0, 40.0);
  for (int code = 0; code <= dac.max_code(); ++code)
    EXPECT_EQ(dac.nearest_code(dac.value(code)), code);
}

TEST(Channel, RealizationDeterministicPerSeed) {
  base::Rng a(123), b(123);
  const auto ra = uwb::generate_cm1(a);
  const auto rb = uwb::generate_cm1(b);
  ASSERT_EQ(ra.taps.size(), rb.taps.size());
  for (std::size_t i = 0; i < ra.taps.size(); ++i) {
    EXPECT_EQ(ra.taps[i].delay, rb.taps[i].delay);
    EXPECT_EQ(ra.taps[i].gain, rb.taps[i].gain);
  }
}

TEST(Channel, FirstPathIsStrongLos) {
  // With the 4a LOS first-path m-factor, the first tap should carry a
  // non-negligible share of the energy in most realizations.
  base::Rng rng(31);
  int strong = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto cr = uwb::generate_cm1(rng);
    const double p0 = cr.taps.front().gain * cr.taps.front().gain;
    if (p0 > 0.02) ++strong;  // > 2 % of total (unit) energy
  }
  EXPECT_GT(strong, n / 2);
}

TEST(Channel, ExcessDelayTruncated) {
  base::Rng rng(37);
  uwb::SalehValenzuelaParams p;
  p.max_excess_delay = 60e-9;
  for (int i = 0; i < 40; ++i) {
    const auto cr = uwb::generate_cm1(rng, p);
    EXPECT_LE(cr.taps.back().delay, 60e-9 + 1e-12);
  }
}

TEST(Transceiver, FoldBySymbols) {
  uwb::SystemConfig sys;  // Ts = 128 ns
  ams::Kernel kernel(sys.dt);
  uwb::ChannelBlock chan(sys, nullptr);
  const auto factory = [&](const double* in) {
    return std::make_unique<uwb::IdealIntegrator>(in, sys.integrator_k);
  };
  uwb::Transceiver node(kernel, sys, chan.out(), factory);
  EXPECT_NEAR(node.fold_by_symbols(66e-9), 66e-9, 1e-15);
  EXPECT_NEAR(node.fold_by_symbols(128e-9 + 66e-9), 66e-9, 1e-15);
  // 5*Ts folds to a representative congruent to 0 (floating-point fmod may
  // return either end of the interval).
  const double r5 = node.fold_by_symbols(5 * 128e-9);
  EXPECT_LT(std::min(r5, 128e-9 - r5), 1e-12);
  EXPECT_NEAR(node.fold_by_symbols(-10e-9), 118e-9, 1e-15);
}

TEST(Pulse, SampledCoversWholeSupport) {
  const uwb::GaussianMonocycle p(2, 0.7e-9, 1.0);
  const double dt = 0.1e-9;
  const auto s = p.sampled(dt);
  // 2 * half_duration / dt samples (+/- rounding).
  EXPECT_NEAR(static_cast<double>(s.size()), 2 * p.half_duration() / dt, 2.0);
  // Ends are negligible; the peak appears in the middle.
  EXPECT_LT(std::abs(s.front()), 5e-4);
  EXPECT_LT(std::abs(s.back()), 5e-4);
  double peak = 0.0;
  for (double v : s) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 1.0, 1e-3);
}

TEST(Pulse, EnergyScalesQuadratically) {
  const uwb::GaussianMonocycle a(2, 0.7e-9, 0.5);
  const uwb::GaussianMonocycle b(2, 0.7e-9, 1.0);
  EXPECT_NEAR(b.energy() / a.energy(), 4.0, 1e-9);
}

// --- exactness-tier contracts -------------------------------------------
//
// The two tiers promise different things and both promises are testable:
//  * bit_exact: same seed => byte-identical artifacts for any worker count
//    (the PR 1/3 determinism contract);
//  * stat_equiv: the optimized engine profile may flip marginal bits, but
//    (a) it keeps the jobs-invariance contract (the Monte-Carlo block
//    layout depends only on trial index), and (b) its results pass the
//    statistical-equivalence gate against a bit_exact run of the same seed.

core::McConfig tier_mc_config(bool stat_equiv) {
  core::McConfig cfg;
  cfg.trials = 8;
  cfg.seed = 7;
  cfg.sigma_scale = 1.0;
  if (stat_equiv) {
    spice::apply_stat_equiv_profile(&cfg.characterize.transient);
    cfg.characterize.reuse_ac_factorization = true;
  }
  return cfg;
}

core::StatArtifact tier_mc_stats(const core::McResult& mc) {
  core::StatArtifact stats("tier_contract", "fast");
  stats.add_ber("yield:failures",
                static_cast<std::uint64_t>(mc.summary.trials -
                                           mc.summary.passes),
                static_cast<std::uint64_t>(mc.summary.trials));
  std::vector<double> gains, slews;
  for (const auto& tr : mc.trials) {
    if (!tr.converged) continue;
    gains.push_back(tr.dc_gain_db);
    slews.push_back(tr.slew_rate);
  }
  stats.add_sample("gain_db", gains);
  stats.add_sample("slew_rate_vps", slews);
  return stats;
}

TEST(TierContract, BitExactIsByteIdenticalAcrossJobs) {
  const auto cfg = tier_mc_config(false);
  base::ParallelRunner one(1), four(4);
  const auto a = core::run_monte_carlo(cfg, {}, one);
  const auto b = core::run_monte_carlo(cfg, {}, four);
  EXPECT_EQ(core::trials_to_csv(a.trials), core::trials_to_csv(b.trials));
}

TEST(TierContract, StatEquivKeepsJobsInvariance) {
  // The cross-trial AC-workspace blocks are fixed-size and indexed by trial
  // alone, so even the optimized engine reproduces byte-for-byte across
  // worker counts — and a fortiori passes the statistical gate.
  const auto cfg = tier_mc_config(true);
  base::ParallelRunner one(1), four(4);
  const auto a = core::run_monte_carlo(cfg, {}, one);
  const auto b = core::run_monte_carlo(cfg, {}, four);
  EXPECT_EQ(core::trials_to_csv(a.trials), core::trials_to_csv(b.trials));
  const auto rep = core::compare_stats(tier_mc_stats(a), tier_mc_stats(b));
  EXPECT_TRUE(rep.passed) << rep.to_text();
}

TEST(TierContract, StatEquivIsEquivalentToBitExact) {
  // The whole point of the tier: the optimized engine must be statistically
  // indistinguishable from the exact one on the same seed.
  base::ParallelRunner pool(2);
  const auto exact = core::run_monte_carlo(tier_mc_config(false), {}, pool);
  const auto fast = core::run_monte_carlo(tier_mc_config(true), {}, pool);
  const auto rep = core::compare_stats(tier_mc_stats(exact),
                                       tier_mc_stats(fast));
  EXPECT_TRUE(rep.passed) << rep.to_text();
}

TEST(TierContract, VariantOptionsFollowTheTier) {
  const auto exact = core::variant_for_tier(core::ExactnessTier::kBitExact);
  const auto fast = core::variant_for_tier(core::ExactnessTier::kStatEquiv);
  // bit_exact must keep the historical engine defaults...
  const spice::TransientOptions defaults;
  EXPECT_EQ(exact.transient.chord_tol_scale, defaults.chord_tol_scale);
  EXPECT_EQ(exact.transient.cosim_decimation, defaults.cosim_decimation);
  // ...while stat_equiv enables the optimized profile.
  EXPECT_GT(fast.transient.chord_tol_scale, exact.transient.chord_tol_scale);
  EXPECT_GT(fast.transient.cosim_decimation, 1);
  EXPECT_TRUE(fast.transient.fused_commit);
}

// Path-loss + unit-energy CIR: received energy through the sampled channel
// equals (amplitude scale)^2 within tap-quantization error.
TEST(Channel, EnergyConservationThroughBlock) {
  uwb::SystemConfig sys;
  sys.dt = 0.1e-9;
  sys.distance = 1.0;
  double input = 0.0;
  uwb::ChannelBlock chan(sys, &input);
  base::Rng rng(91);
  const auto cr = uwb::generate_cm1(rng);
  chan.set_realization(cr, 0.25);
  chan.set_noise_psd(0.0);

  // Drive a single unit impulse; collect output energy.
  input = 1.0;
  const double t0 = 0.0;
  chan.step_block(&t0, sys.dt, 1);
  input = 0.0;
  double e_out = *chan.out() * *chan.out();
  for (int i = 1; i < 4000; ++i) {
    const double t = i * sys.dt;
    chan.step_block(&t, sys.dt, 1);
    e_out += *chan.out() * *chan.out();
  }
  // Impulse energy in = 1 (unit sample); channel scales by 0.25^2 and taps
  // have unit total energy. Taps merging onto the same sample grid slot can
  // interfere, so allow a loose band.
  EXPECT_GT(e_out, 0.25 * 0.25 * 0.5);
  EXPECT_LT(e_out, 0.25 * 0.25 * 2.0);
}

}  // namespace
