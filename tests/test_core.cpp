// Tests for the methodology layer: two-pole fitting, characterization,
// constraints extraction, the experiment runner, and report formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/characterize.hpp"
#include "core/constraints.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace {

using namespace uwbams;

std::pair<std::vector<double>, std::vector<double>> synth_response(
    double k_db, double f1, double f2) {
  std::vector<double> f, m;
  for (double lf = 3.0; lf <= 10.7; lf += 0.1) {
    const double freq = std::pow(10.0, lf);
    f.push_back(freq);
    m.push_back(k_db - 10.0 * std::log10((1 + std::pow(freq / f1, 2)) *
                                         (1 + std::pow(freq / f2, 2))));
  }
  return {f, m};
}

TEST(TwoPoleFit, RecoversExactSynthetic) {
  const auto [f, m] = synth_response(21.0, 0.886e6, 5.895e9);
  const auto fit = core::fit_two_pole(f, m);
  EXPECT_NEAR(fit.dc_gain_db, 21.0, 0.2);
  EXPECT_NEAR(fit.f_pole1 / 0.886e6, 1.0, 0.05);
  EXPECT_NEAR(fit.f_pole2 / 5.895e9, 1.0, 0.15);
  EXPECT_LT(fit.rms_error_db, 0.1);
}

struct FitCase {
  double k_db, f1, f2;
};

class TwoPoleFitSweep : public ::testing::TestWithParam<FitCase> {};

TEST_P(TwoPoleFitSweep, RecoversParameters) {
  const auto [k_db, f1, f2] = GetParam();
  const auto [f, m] = synth_response(k_db, f1, f2);
  const auto fit = core::fit_two_pole(f, m);
  EXPECT_NEAR(fit.dc_gain_db, k_db, 0.3);
  EXPECT_NEAR(fit.f_pole1 / f1, 1.0, 0.08);
  EXPECT_NEAR(fit.f_pole2 / f2, 1.0, 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TwoPoleFitSweep,
    ::testing::Values(FitCase{10.0, 0.5e6, 1e9}, FitCase{21.0, 1e6, 6e9},
                      FitCase{30.0, 0.2e6, 0.5e9}, FitCase{15.0, 2e6, 2e9},
                      FitCase{25.0, 0.8e6, 10e9}));

TEST(TwoPoleFit, RejectsBadInput) {
  std::vector<double> f{1, 2, 3}, m{0, 0, 0};
  EXPECT_THROW(core::fit_two_pole(f, m), std::invalid_argument);
  // An all -inf dB response (zero gain) has no plateau and no corner.
  auto [freqs, dead] = synth_response(21.0, 0.886e6, 5.895e9);
  dead.assign(dead.size(), -std::numeric_limits<double>::infinity());
  EXPECT_THROW(core::fit_two_pole(freqs, dead), std::invalid_argument);
}

TEST(Characterize, ItdMatchesPaperBallpark) {
  const auto ch = core::characterize_itd();
  // Fig. 4 / §4 figures: 21 dB, 0.886 MHz, GHz-range second pole, ~100 mV
  // linear input range. Accept windows around them.
  EXPECT_GT(ch.ac.dc_gain_db, 18.0);
  EXPECT_LT(ch.ac.dc_gain_db, 24.0);
  EXPECT_GT(ch.ac.f_pole1, 0.4e6);
  EXPECT_LT(ch.ac.f_pole1, 2e6);
  EXPECT_GT(ch.ac.f_pole2, 0.5e9);
  EXPECT_LT(ch.ac.f_pole2, 10e9);
  EXPECT_GT(ch.unity_gain_freq, 4e6);
  EXPECT_LT(ch.unity_gain_freq, 25e6);
  EXPECT_GT(ch.input_linear_range, 0.05);
  EXPECT_LT(ch.input_linear_range, 0.3);
  EXPECT_GT(ch.slew_rate, 1e5);
  EXPECT_LT(ch.ac.rms_error_db, 3.0);

  const auto p = core::to_behavioral_params(ch, true);
  EXPECT_EQ(p.f_pole1, ch.ac.f_pole1);
  EXPECT_EQ(p.input_clamp, ch.input_linear_range);
  EXPECT_EQ(core::to_behavioral_params(ch, false).input_clamp, 0.0);
}

TEST(Constraints, ExtractsSaneFigures) {
  uwb::SystemConfig sys;
  const auto c = core::extract_constraints(sys, 100, 42);
  EXPECT_EQ(c.realizations, 100);
  EXPECT_GT(c.squared_peak_p99, 0.0);
  EXPECT_GT(c.slew_rate_p99, 0.0);
  EXPECT_GT(c.rms_delay_spread_mean, 3e-9);
  EXPECT_LT(c.rms_delay_spread_mean, 40e-9);
  EXPECT_GE(c.rms_delay_spread_p90, c.rms_delay_spread_mean);
  EXPECT_GT(c.window_energy_capture_mean, 0.4);
  EXPECT_LE(c.window_energy_capture_mean, 1.0);
}

TEST(Constraints, Reproducible) {
  uwb::SystemConfig sys;
  const auto a = core::extract_constraints(sys, 25, 7);
  const auto b = core::extract_constraints(sys, 25, 7);
  EXPECT_EQ(a.squared_peak_p99, b.squared_peak_p99);
  EXPECT_EQ(a.rms_delay_spread_p90, b.rms_delay_spread_p90);
}

TEST(Experiment, RunsAndCounts) {
  core::SystemRunConfig cfg;
  cfg.duration = 1.5e-6;
  cfg.sys.dt = 0.2e-9;
  cfg.kind = core::IntegratorKind::kIdeal;
  const auto r = core::run_system_simulation(cfg);
  EXPECT_GT(r.cpu_seconds, 0.0);
  EXPECT_NEAR(r.sim_seconds, 1.5e-6, 0.05e-6);
  EXPECT_GT(r.steps, 5000u);
  EXPECT_GT(r.bits_demodulated, 5u);
  // At the default 10 dB operating point some bits may err, but not most.
  EXPECT_LT(static_cast<double>(r.bit_errors),
            0.3 * static_cast<double>(r.bits_demodulated));
}

TEST(Experiment, SpiceCostsMoreThanIdeal) {
  core::SystemRunConfig cfg;
  cfg.duration = 0.8e-6;
  cfg.sys.dt = 0.2e-9;
  cfg.kind = core::IntegratorKind::kIdeal;
  const auto ideal = core::run_system_simulation(cfg);
  cfg.kind = core::IntegratorKind::kSpice;
  const auto spice = core::run_system_simulation(cfg);
  EXPECT_GT(spice.cpu_seconds, 3.0 * ideal.cpu_seconds);
  EXPECT_EQ(spice.bits_demodulated, ideal.bits_demodulated);
}

TEST(Report, FormatsTables) {
  EXPECT_EQ(core::format_duration(3573.0), "59 m 33 s");
  EXPECT_EQ(core::format_duration(551.0), "9 m 11 s");
  std::vector<core::SystemRunResult> runs(2);
  runs[0].kind = core::IntegratorKind::kIdeal;
  runs[0].cpu_seconds = 10.0;
  runs[0].sim_seconds = 30e-6;
  runs[1].kind = core::IntegratorKind::kSpice;
  runs[1].cpu_seconds = 65.0;
  runs[1].sim_seconds = 30e-6;
  const std::string table = core::render_cpu_table(runs);
  EXPECT_NE(table.find("IDEAL"), std::string::npos);
  EXPECT_NE(table.find("ELDO"), std::string::npos);
  EXPECT_NE(table.find("6.50 x"), std::string::npos);
}

}  // namespace
