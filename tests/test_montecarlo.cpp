// Monte-Carlo / corner characterization pipeline (core/montecarlo.hpp,
// spice/model_card.hpp corner+mismatch layer):
//   * corner-card round-trip and shift directions per corner,
//   * mismatch determinism (seed+name -> card, independent of build order),
//   * a nominal-corner trial reproduces characterize_itd() bit for bit,
//   * characterize_itd's shared, checkpointed session reproduces the
//     fresh-session-per-integration procedure bit for bit,
//   * a cell that does not integrate reports a zero linear range,
//   * run_monte_carlo is bit-identical across worker counts and re-runs,
//   * yield judging and artifact rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "base/random.hpp"
#include "base/stats.hpp"
#include "core/characterize.hpp"
#include "core/montecarlo.hpp"
#include "spice/model_card.hpp"
#include "spice/op.hpp"
#include "spice/transient.hpp"

namespace {

using namespace uwbams;
using spice::Corner;
using spice::ModelVariation;
using spice::MosModel;

TEST(CornerCard, RoundTripAllCorners) {
  std::size_t n = 0;
  const Corner* corners = spice::all_corners(&n);
  ASSERT_EQ(n, 5u);
  for (std::size_t i = 0; i < n; ++i) {
    Corner parsed;
    ASSERT_TRUE(spice::parse_corner(spice::to_string(corners[i]), &parsed));
    EXPECT_EQ(parsed, corners[i]);
  }
  Corner c;
  EXPECT_TRUE(spice::parse_corner("ss", &c));  // case-insensitive
  EXPECT_EQ(c, Corner::kSS);
  EXPECT_TRUE(spice::parse_corner("fS", &c));
  EXPECT_EQ(c, Corner::kFS);
  EXPECT_FALSE(spice::parse_corner("XX", &c));
  EXPECT_FALSE(spice::parse_corner("", &c));
}

TEST(CornerCard, NominalVariationIsIdentity) {
  const ModelVariation nominal;
  ASSERT_TRUE(nominal.is_nominal());
  for (const char* name : {"nmos", "pmos", "nmos_lv", "pmos_lv"}) {
    const MosModel base = spice::builtin_model(name);
    const MosModel out = nominal.apply(base, "M1", 1e-6, 0.18e-6);
    EXPECT_EQ(out.vt0, base.vt0);
    EXPECT_EQ(out.kp, base.kp);
    EXPECT_EQ(out.gamma, base.gamma);
    EXPECT_EQ(out.lambda, base.lambda);
    EXPECT_EQ(out.tox, base.tox);
    EXPECT_EQ(out.cj, base.cj);
  }
}

TEST(CornerCard, CornerShiftDirections) {
  const MosModel n = spice::builtin_model("nmos");
  const MosModel p = spice::builtin_model("pmos");
  auto at = [&](Corner corner, const MosModel& base) {
    ModelVariation v;
    v.corner = corner;
    return v.apply(base, "M1", 1e-6, 0.18e-6);
  };
  // FF: both devices fast — smaller |vt0|, larger kp.
  EXPECT_LT(at(Corner::kFF, n).vt0, n.vt0);
  EXPECT_GT(at(Corner::kFF, n).kp, n.kp);
  EXPECT_GT(at(Corner::kFF, p).vt0, p.vt0);  // -0.48 -> closer to 0
  EXPECT_GT(at(Corner::kFF, p).kp, p.kp);
  // SS: both slow.
  EXPECT_GT(at(Corner::kSS, n).vt0, n.vt0);
  EXPECT_LT(at(Corner::kSS, n).kp, n.kp);
  EXPECT_LT(at(Corner::kSS, p).vt0, p.vt0);
  EXPECT_LT(at(Corner::kSS, p).kp, p.kp);
  // FS: fast nMOS, slow pMOS; SF the mirror.
  EXPECT_LT(at(Corner::kFS, n).vt0, n.vt0);
  EXPECT_LT(at(Corner::kFS, p).vt0, p.vt0);
  EXPECT_GT(at(Corner::kSF, n).vt0, n.vt0);
  EXPECT_GT(at(Corner::kSF, p).vt0, p.vt0);
  // TT at reference temperature stays put.
  EXPECT_EQ(at(Corner::kTT, n).vt0, n.vt0);
}

TEST(CornerCard, TemperatureShifts) {
  const MosModel n = spice::builtin_model("nmos");
  ModelVariation hot;
  hot.temp_c = 85.0;
  ASSERT_FALSE(hot.is_nominal());
  const MosModel h = hot.apply(n, "M1", 1e-6, 0.18e-6);
  EXPECT_LT(h.kp, n.kp);    // mobility degrades
  EXPECT_LT(h.vt0, n.vt0);  // threshold magnitude drops
  ModelVariation cold;
  cold.temp_c = -40.0;
  const MosModel c = cold.apply(n, "M1", 1e-6, 0.18e-6);
  EXPECT_GT(c.kp, n.kp);
  EXPECT_GT(c.vt0, n.vt0);
}

TEST(CornerCard, MismatchIsDeterministicPerDeviceName) {
  const MosModel base = spice::builtin_model("nmos");
  ModelVariation v;
  v.sigma_scale = 1.0;
  v.mismatch_seed = 7;
  const MosModel a1 = v.apply(base, "M1", 1e-6, 0.18e-6);
  const MosModel a2 = v.apply(base, "M1", 1e-6, 0.18e-6);
  EXPECT_EQ(a1.vt0, a2.vt0);  // same seed + name -> same card, any order
  EXPECT_EQ(a1.kp, a2.kp);
  const MosModel b = v.apply(base, "M2", 1e-6, 0.18e-6);
  EXPECT_NE(a1.vt0, b.vt0);  // streams are per device
  ModelVariation w = v;
  w.mismatch_seed = 8;
  EXPECT_NE(w.apply(base, "M1", 1e-6, 0.18e-6).vt0, a1.vt0);
  // Pelgrom scaling: a 100x larger device draws a 10x smaller sigma, so
  // its |delta| is smaller for the same stream.
  const MosModel big = v.apply(base, "M1", 100e-6, 0.18e-6);
  EXPECT_LT(std::abs(big.vt0 - base.vt0), std::abs(a1.vt0 - base.vt0) + 1e-12);
}

TEST(Quantiles, SummarizeKnownSample) {
  const auto q = base::summarize_quantiles({5, 1, 3, 2, 4});
  EXPECT_EQ(q.count, 5u);
  EXPECT_DOUBLE_EQ(q.mean, 3.0);
  EXPECT_DOUBLE_EQ(q.min, 1.0);
  EXPECT_DOUBLE_EQ(q.max, 5.0);
  EXPECT_DOUBLE_EQ(q.p50, 3.0);
  // Degenerate inputs are well-defined (see test_base for the full edge
  // coverage): empty -> all-zero summary with count 0.
  EXPECT_EQ(base::summarize_quantiles({}).count, 0u);
}

TEST(Corners, StandardCornerSet) {
  const auto corners = core::standard_corners(1.8, 0.05, -40.0, 85.0);
  ASSERT_EQ(corners.size(), 5u);
  EXPECT_EQ(corners[0].process, Corner::kTT);
  EXPECT_DOUBLE_EQ(corners[0].vdd, 1.8);
  EXPECT_GT(corners[1].vdd, 1.8);       // FF overvolted...
  EXPECT_DOUBLE_EQ(corners[1].temp_c, -40.0);  // ...and cold
  EXPECT_LT(corners[2].vdd, 1.8);       // SS undervolted...
  EXPECT_DOUBLE_EQ(corners[2].temp_c, 85.0);   // ...and hot
  EXPECT_EQ(core::PvtCorner{}.label(), "TT @ 1.80 V / 27 C");
}

// The nominal-corner trial must be *the same measurement* as today's
// characterize_itd(): same circuit, same sweep, same transients — bit for
// bit. This pins the statistical layer to the historical flow.
TEST(MonteCarlo, NominalTrialReproducesCharacterizeItdBitForBit) {
  const auto ch = core::characterize_itd();
  core::McConfig cfg;
  cfg.sigma_scale = 0.0;  // nominal corner, no mismatch
  const auto trial = core::run_mc_trial(cfg, 0, core::YieldCriteria{});
  ASSERT_TRUE(trial.converged);
  EXPECT_EQ(trial.dc_gain_db, ch.ac.dc_gain_db);
  EXPECT_EQ(trial.f_pole1, ch.ac.f_pole1);
  EXPECT_EQ(trial.f_pole2, ch.ac.f_pole2);
  EXPECT_EQ(trial.unity_gain_freq, ch.unity_gain_freq);
  EXPECT_EQ(trial.input_linear_range, ch.input_linear_range);
  EXPECT_EQ(trial.slew_rate, ch.slew_rate);
  EXPECT_EQ(trial.params.dc_gain_db, ch.ac.dc_gain_db);
  EXPECT_EQ(trial.params.input_clamp, ch.input_linear_range);
}

// Small-but-real Monte-Carlo config: coarse AC grid, no linear-range
// search, mismatch on.
core::McConfig small_mc(std::uint64_t seed, int trials) {
  core::McConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.sigma_scale = 1.0;
  cfg.characterize.points_per_decade = 4;
  cfg.characterize.measure_linear_range = false;
  cfg.characterize.measure_slew = true;
  return cfg;
}

void expect_trials_identical(const std::vector<core::McTrial>& a,
                             const std::vector<core::McTrial>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].corner.process, b[i].corner.process);
    EXPECT_EQ(a[i].converged, b[i].converged);
    EXPECT_EQ(a[i].dc_gain_db, b[i].dc_gain_db);
    EXPECT_EQ(a[i].f_pole1, b[i].f_pole1);
    EXPECT_EQ(a[i].f_pole2, b[i].f_pole2);
    EXPECT_EQ(a[i].slew_rate, b[i].slew_rate);
    EXPECT_EQ(a[i].ber, b[i].ber);
    EXPECT_EQ(a[i].violations, b[i].violations);
  }
}

TEST(MonteCarlo, BitIdenticalAcrossJobsAndReruns) {
  const auto cfg = small_mc(11, 4);
  const core::YieldCriteria criteria{};
  const base::ParallelRunner serial(1);
  const base::ParallelRunner pool8(8);
  const auto r1 = core::run_monte_carlo(cfg, criteria, serial);
  const auto r8 = core::run_monte_carlo(cfg, criteria, pool8);
  expect_trials_identical(r1.trials, r8.trials);
  EXPECT_EQ(core::trials_to_csv(r1.trials), core::trials_to_csv(r8.trials));

  const auto r1b = core::run_monte_carlo(cfg, criteria, serial);
  expect_trials_identical(r1.trials, r1b.trials);

  // A different base seed must actually change the draws.
  const auto other =
      core::run_monte_carlo(small_mc(12, 4), criteria, serial);
  bool any_differs = false;
  for (std::size_t i = 0; i < other.trials.size(); ++i)
    any_differs |= other.trials[i].dc_gain_db != r1.trials[i].dc_gain_db;
  EXPECT_TRUE(any_differs);
}

TEST(MonteCarlo, MismatchSpreadsParameters) {
  const auto r = core::run_monte_carlo(small_mc(3, 4), core::YieldCriteria{},
                                       base::ParallelRunner(2));
  ASSERT_EQ(r.summary.trials, 4);
  ASSERT_EQ(r.summary.fail_no_converge, 0);
  EXPECT_GT(r.summary.gain_db.max, r.summary.gain_db.min);
  // The spread stays physical: mismatch moves gain by fractions of a dB
  // to a few dB, not tens.
  EXPECT_LT(r.summary.gain_db.max - r.summary.gain_db.min, 10.0);
}

TEST(MonteCarlo, CornerSamplingDrawsFromTheCornerSet) {
  auto cfg = small_mc(5, 6);
  cfg.sample_corners = true;
  const auto r = core::run_monte_carlo(cfg, core::YieldCriteria{},
                                       base::ParallelRunner(2));
  bool non_tt = false;
  for (const auto& t : r.trials) non_tt |= t.corner.process != Corner::kTT;
  EXPECT_TRUE(non_tt) << "corner sampling never left TT in 6 draws";
}

TEST(MonteCarlo, BerPropagationRuns) {
  auto cfg = small_mc(9, 1);
  cfg.with_ber = true;
  cfg.ber_bits = 100;
  cfg.ebn0_db = 14.0;
  cfg.sys.dt = 0.2e-9;
  cfg.sys.preamble_symbols = 0;
  cfg.sys.multipath = false;
  const auto trial = core::run_mc_trial(cfg, 0, core::YieldCriteria{});
  ASSERT_TRUE(trial.converged);
  EXPECT_GE(trial.ber, 0.0);
  EXPECT_LE(trial.ber, 1.0);
}

// A skipped measurement must not be judged (or modeled) as a measured 0:
// with measure_linear_range off, the range criterion is dropped for the
// trial and the behavioral model stays un-clamped.
TEST(MonteCarlo, SkippedMeasurementsAreNotJudgedAsZero) {
  auto cfg = small_mc(4, 1);  // measure_linear_range = false
  core::YieldCriteria criteria;
  criteria.min_input_range = 0.01;  // would fail against an unmeasured 0.0
  criteria.nominal_gain_db = 21.0;
  criteria.gain_tol_db = 10.0;
  const auto trial = core::run_mc_trial(cfg, 0, criteria);
  ASSERT_TRUE(trial.converged);
  EXPECT_FALSE(trial.violations & core::kViolInputRange);
  EXPECT_EQ(trial.params.input_clamp, 0.0);  // clamp disabled, not "0 V"

  auto measured = cfg;
  measured.characterize.measure_linear_range = true;
  const auto full = core::run_mc_trial(measured, 0, criteria);
  ASSERT_TRUE(full.converged);
  EXPECT_GT(full.params.input_clamp, 0.0);  // measured -> clamp transfers
}

TEST(MonteCarlo, JudgeTrialFlagsEachCriterion) {
  core::McTrial t;
  t.converged = true;
  t.dc_gain_db = 21.0;
  t.unity_gain_freq = 10e6;
  t.input_linear_range = 0.1;
  t.slew_rate = 2e6;
  core::YieldCriteria c;
  c.min_input_range = 0.05;
  c.min_slew_rate = 1e6;
  c.min_unity_gain_hz = 5e6;
  c.nominal_gain_db = 21.0;
  core::judge_trial(&t, c);
  EXPECT_TRUE(t.pass);

  core::McTrial bad = t;
  bad.input_linear_range = 0.01;
  bad.slew_rate = 0.5e6;
  bad.unity_gain_freq = 1e6;
  bad.dc_gain_db = 26.0;
  core::judge_trial(&bad, c);
  EXPECT_FALSE(bad.pass);
  EXPECT_TRUE(bad.violations & core::kViolInputRange);
  EXPECT_TRUE(bad.violations & core::kViolSlewRate);
  EXPECT_TRUE(bad.violations & core::kViolBandwidth);
  EXPECT_TRUE(bad.violations & core::kViolGain);

  core::McTrial dead;
  dead.converged = false;
  core::judge_trial(&dead, c);
  EXPECT_FALSE(dead.pass);
  EXPECT_TRUE(dead.violations & core::kViolNoConverge);
}

TEST(MonteCarlo, ArtifactsRender) {
  const auto r = core::run_monte_carlo(small_mc(2, 2), core::YieldCriteria{},
                                       base::ParallelRunner(1));
  const std::string csv = core::trials_to_csv(r.trials);
  // Header + one line per trial.
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
  EXPECT_NE(csv.find("dc_gain_db"), std::string::npos);
  const std::string json = core::summary_to_json(r);
  EXPECT_NE(json.find("\"yield\""), std::string::npos);
  EXPECT_NE(json.find("\"input_linear_range_v\""), std::string::npos);
}

// ------------------------------------------ characterization exactness

// The characterization procedure before its integrations shared one
// checkpointed session: one circuit for the OP and the AC sweep, then, per
// integration, a fresh circuit and session that solves the OP again and
// re-runs the 30 ns dump. Kept here as the reference the shared session
// must reproduce bit for bit. Counts the integrations it runs.
core::ItdCharacterization characterize_fresh_sessions(
    const spice::ItdSizing& sizing, const core::CharacterizeOptions& options,
    int* integrations) {
  core::ItdCharacterization ch;
  spice::Circuit ckt;
  const auto tb = spice::build_itd_testbench(ckt, sizing);
  const auto op = spice::solve_op(ckt);
  if (!op.converged) throw std::runtime_error("reference: OP did not converge");
  const auto freqs = spice::log_frequency_grid(
      options.f_start, options.f_stop, options.points_per_decade);
  spice::AcOptions aco;
  aco.reuse_factorization = options.reuse_ac_factorization;
  ch.sweep =
      spice::run_ac(ckt, op.x, freqs, tb.t.out_intp, tb.t.out_intm, aco);
  std::vector<double> f, m;
  for (std::size_t i = 0; i < ch.sweep.points.size(); ++i) {
    f.push_back(ch.sweep.points[i].freq);
    m.push_back(ch.sweep.mag_db(i));
  }
  ch.ac = core::fit_two_pole(f, m);
  for (std::size_t i = 1; i < m.size(); ++i) {
    if (m[i - 1] >= 0.0 && m[i] < 0.0) {
      const double frac = m[i - 1] / (m[i - 1] - m[i]);
      ch.unity_gain_freq = f[i - 1] * std::pow(f[i] / f[i - 1], frac);
      break;
    }
  }

  *integrations = 0;
  auto integrated = [&](double vin_diff) {
    ++*integrations;
    spice::Circuit c2;
    const auto tb2 = spice::build_itd_testbench(c2, sizing);
    spice::TransientOptions topts = options.transient;
    topts.dt = options.dt;
    spice::TransientSession sim(c2, topts);
    sim.source("vctrlp").set_override(sizing.vdd);
    sim.source("vctrlm").set_override(sizing.vdd);  // dump first
    sim.run_until(30e-9);
    sim.source("vctrlm").set_override(0.0);
    sim.source("vinp").set_override(0.9 + 0.5 * vin_diff);
    sim.source("vinm").set_override(0.9 - 0.5 * vin_diff);
    sim.run_until(80e-9);  // 50 ns integration
    return std::abs(sim.v(tb2.t.out_intp) - sim.v(tb2.t.out_intm));
  };
  if (options.measure_linear_range) {
    const double v_small = 10e-3;
    const double ref_slope = integrated(v_small) / v_small;
    ch.input_linear_range = 0.5;
    for (double vin = 20e-3; vin <= 0.5; vin *= 1.25) {
      if (integrated(vin) / vin < 0.9 * ref_slope) {
        ch.input_linear_range = vin;
        break;
      }
    }
  }
  if (options.measure_slew) ch.slew_rate = integrated(0.6) / 50e-9;
  return ch;
}

// The sizing trial `index` of a corner-sampled, mismatched Monte-Carlo run
// with base seed `seed` characterizes (the derivation of run_mc_trial).
spice::ItdSizing mc_trial_sizing(std::uint64_t seed, int index) {
  const std::uint64_t trial_seed =
      base::derive_seed(seed, static_cast<std::uint64_t>(index));
  base::Rng pick(base::derive_seed(trial_seed, 1));
  const auto corners = core::standard_corners(1.8);
  const core::PvtCorner corner = corners[static_cast<std::size_t>(
      pick.uniform_int(0, static_cast<int>(corners.size()) - 1))];
  spice::ItdSizing sizing;
  sizing.vdd = corner.vdd;
  sizing.variation.corner = corner.process;
  sizing.variation.temp_c = corner.temp_c;
  sizing.variation.sigma_scale = 1.0;
  sizing.variation.mismatch_seed = base::derive_seed(trial_seed, 2);
  return sizing;
}

// A PVT corner without mismatch, as corner_ber characterizes it.
spice::ItdSizing corner_sizing(spice::Corner process) {
  for (const auto& c : core::standard_corners(1.8)) {
    if (c.process != process) continue;
    spice::ItdSizing sizing;
    sizing.vdd = c.vdd;
    sizing.variation.corner = c.process;
    sizing.variation.temp_c = c.temp_c;
    sizing.variation.sigma_scale = 0.0;
    return sizing;
  }
  throw std::logic_error("no such standard corner");
}

// Every ItdCharacterization field equals the fresh-session reference, and
// the reference ran `want_integrations` integrations.
void expect_matches_fresh_sessions(const spice::ItdSizing& sizing,
                                   const core::CharacterizeOptions& options,
                                   int want_integrations) {
  int integrations = 0;
  const auto want =
      characterize_fresh_sessions(sizing, options, &integrations);
  const auto got = core::characterize_itd(sizing, options);
  EXPECT_EQ(integrations, want_integrations);
  EXPECT_EQ(got.ac.dc_gain_db, want.ac.dc_gain_db);
  EXPECT_EQ(got.ac.f_pole1, want.ac.f_pole1);
  EXPECT_EQ(got.ac.f_pole2, want.ac.f_pole2);
  EXPECT_EQ(got.ac.rms_error_db, want.ac.rms_error_db);
  EXPECT_EQ(got.unity_gain_freq, want.unity_gain_freq);
  EXPECT_EQ(got.input_linear_range, want.input_linear_range);
  EXPECT_EQ(got.slew_rate, want.slew_rate);
  ASSERT_EQ(got.sweep.points.size(), want.sweep.points.size());
  for (std::size_t i = 0; i < got.sweep.points.size(); ++i) {
    EXPECT_EQ(got.sweep.points[i].freq, want.sweep.points[i].freq);
    EXPECT_EQ(got.sweep.points[i].value, want.sweep.points[i].value);
  }
}

TEST(CharacterizeExactness, NominalCell) {
  // Linear range 0.149 V: ten probes + reference + slew.
  expect_matches_fresh_sessions({}, {}, 12);
}

// Trials of yield_report at fast scale, seed 1.
TEST(CharacterizeExactness, MismatchTrialStoppingAtFirstProbe) {
  // Trial 1 (FS): compresses at the first probe, 20 mV.
  expect_matches_fresh_sessions(mc_trial_sizing(1, 1), {}, 3);
}

TEST(CharacterizeExactness, MismatchTrialThatNeverCompresses) {
  // Trial 5 (FF): all fifteen probes up to the 0.5 V bound.
  expect_matches_fresh_sessions(mc_trial_sizing(1, 5), {}, 17);
}

TEST(CharacterizeExactness, MismatchTrialCompressingLate) {
  // Trial 7 (TT): compresses at 0.291 V, the thirteenth probe.
  expect_matches_fresh_sessions(mc_trial_sizing(1, 7), {}, 15);
}

TEST(CharacterizeExactness, FastAndSlowCorners) {
  expect_matches_fresh_sessions(corner_sizing(spice::Corner::kFF), {}, 12);
  expect_matches_fresh_sessions(corner_sizing(spice::Corner::kSS), {}, 12);
}

TEST(CharacterizeExactness, StatEquivProfile) {
  core::CharacterizeOptions options;
  spice::apply_stat_equiv_profile(&options.transient);
  options.reuse_ac_factorization = true;
  expect_matches_fresh_sessions({}, options, 12);
}

// A dead cell, unpowered and without input followers, has an identically
// zero AC response. The two-pole fit refuses its -inf dB magnitudes, so
// the cell is not characterized at all (an unpowered cell alone is refused
// the same way), and its Monte-Carlo trial is a yield failure that carries
// the reason instead of handing a -inf dB gain to the behavioral model.
TEST(CharacterizeDeadCell, IsRejectedAtTheFit) {
  spice::ItdSizing dead;
  dead.vdd = 0.0;
  dead.w_in = 0.0;
  EXPECT_THROW(core::characterize_itd(dead), std::invalid_argument);
  spice::ItdSizing unpowered;
  unpowered.vdd = 0.0;
  EXPECT_THROW(core::characterize_itd(unpowered), std::invalid_argument);

  core::McConfig cfg;
  cfg.sizing.w_in = 0.0;
  cfg.corner.vdd = 0.0;
  cfg.sigma_scale = 0.0;
  const auto trial = core::run_mc_trial(cfg, 0, core::YieldCriteria{});
  EXPECT_FALSE(trial.converged);
  EXPECT_NE(trial.failure_reason.find("non-finite magnitude"),
            std::string::npos)
      << trial.failure_reason;
  EXPECT_EQ(trial.violations, core::kViolNoConverge);
}

}  // namespace
