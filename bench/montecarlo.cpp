// Monte-Carlo / PVT-corner scenarios — the statistical closure of the
// top-down flow (docs/characterization.md walks the full pipeline).
//
//   mc_itd        mismatch-only Monte-Carlo at the nominal corner: N
//                 re-characterizations of the 31-transistor cell with
//                 per-device Pelgrom draws, parameter quantiles and yield
//                 against the §4 constraints;
//   corner_ber    the five PVT sign-off corners, each re-characterized and
//                 its fitted Phase-IV model pushed through the behavioral
//                 BER chain — the corner spread of the paper's Fig. 6;
//   yield_report  the full closure: §4 constraint extraction -> nominal
//                 characterization -> corner-sampled mismatch Monte-Carlo
//                 -> pass/fail per trial + yield summary (yield.json).
//
// All three fan their independent trials over ctx.pool; every random input
// of trial i derives from derive_seed(seed, i) alone, so artifacts are
// bit-identical for any --jobs value (CI byte-compares trials.csv).
#include <chrono>
#include <string>
#include <vector>

#include "base/faults.hpp"
#include "base/random.hpp"
#include "base/table.hpp"
#include "core/block_variant.hpp"
#include "core/equiv.hpp"
#include "core/memo.hpp"
#include "core/montecarlo.hpp"
#include "runner/runner.hpp"
#include "uwb/ber.hpp"

using namespace uwbams;

namespace {

// Shared system setup of the behavioral BER propagation: the fig6 genie
// link at the coarse (0.2 ns) behavioral step.
uwb::SystemConfig ber_system(std::uint64_t seed) {
  uwb::SystemConfig sys;
  sys.dt = 0.2e-9;
  sys.preamble_symbols = 0;
  sys.multipath = false;
  sys.distance = 1.0;
  sys.seed = seed;
  return sys;
}

void print_quantiles(runner::RunContext& ctx, const core::McSummary& s) {
  base::Table t("Characterized-parameter distributions (converged trials)");
  t.set_header({"parameter", "p05", "median", "p95", "mean"});
  auto row = [&t](const char* name, const base::QuantileSummary& q,
                  double scale, const char* unit) {
    t.add_row({name, base::Table::num(q.p05 * scale, 3),
               base::Table::num(q.p50 * scale, 3),
               base::Table::num(q.p95 * scale, 3),
               std::string(base::Table::num(q.mean * scale, 3)) + " " + unit});
  };
  row("DC gain", s.gain_db, 1.0, "dB");
  row("pole 1", s.f_pole1_hz, 1e-6, "MHz");
  row("pole 2", s.f_pole2_hz, 1e-9, "GHz");
  row("unity-gain freq", s.unity_gain_hz, 1e-6, "MHz");
  row("input linear range", s.input_range_v, 1e3, "mV");
  row("slew rate", s.slew_rate_vps, 1e-6, "V/us");
  ctx.sink.table(t, "");
}

// Execution options shared by the MC scenarios: the CLI's retry policy and
// the per-scenario checkpoint directory, tagged with everything that makes
// this run's results unique (so a stale checkpoint is rejected on resume).
core::McRunOptions mc_run_options(const runner::RunContext& ctx) {
  core::McRunOptions opts;
  opts.policy = ctx.policy;
  opts.checkpoint_dir = ctx.checkpoint_dir;
  opts.resume = ctx.resume;
  opts.run_tag = ctx.scenario_name + "|" + runner::to_string(ctx.scale) + "|" +
                 core::to_string(ctx.tier);
  return opts;
}

void emit_summary_metrics(runner::RunContext& ctx, const core::McResult& mc) {
  const core::McSummary& s = mc.summary;
  ctx.sink.metric("trials", static_cast<std::uint64_t>(s.trials));
  ctx.sink.metric("passes", static_cast<std::uint64_t>(s.passes));
  ctx.sink.metric("yield", s.yield);
  ctx.sink.metric("quarantined", static_cast<std::uint64_t>(s.quarantined));
  if (s.quarantined > 0)
    ctx.sink.notef("%d trial(s) quarantined after retries (counted as yield "
                   "failures; reasons in trials.csv)",
                   s.quarantined);
  ctx.sink.metric("gain_db_p50", s.gain_db.p50);
  ctx.sink.metric("gain_db_sigma_est", (s.gain_db.p95 - s.gain_db.p05) / 3.29);
  ctx.sink.metric("input_range_v_p05", s.input_range_v.p05);
  ctx.sink.metric("slew_rate_vps_p05", s.slew_rate_vps.p05);
}

}  // namespace

REGISTER_SCENARIO_TIERS(mc_itd, "mc",
                        "Mismatch Monte-Carlo characterization of the I&D "
                        "cell",
                        "8|50|200 trials") {
  core::McConfig cfg;
  cfg.trials = ctx.pick(8, 50, 200);
  cfg.seed = ctx.seed;
  cfg.sigma_scale = 1.0;  // nominal Pelgrom mismatch, TT corner, no BER leg
  if (ctx.tier == core::ExactnessTier::kStatEquiv) {
    // Optimized characterization engine: AC pivot reuse across the grid
    // and across each trial block, stat_equiv transient profile for the
    // range/slew runs. Gated statistically, not byte-compared.
    spice::apply_stat_equiv_profile(&cfg.characterize.transient);
    cfg.characterize.reuse_ac_factorization = true;
  }

  // Criteria: §4 channel statistics + the nominal characterization. The
  // constraints run at the paper's system operating point (9.9 m CM1,
  // default config), not the genie BER link.
  const auto constraints = core::extract_constraints(
      uwb::SystemConfig{}, ctx.pick(20, 100, 100), ctx.seed + 41);
  const auto nominal = core::memo::characterize_itd_cached(cfg.sizing);
  const auto criteria = core::YieldCriteria::from_constraints(constraints, nominal);

  ctx.sink.notef("%d mismatch trials at TT 1.80 V / 27 C (sigma x%.1f), "
                 "%d workers",
                 cfg.trials, cfg.sigma_scale, ctx.jobs);
  const auto mc =
      core::run_monte_carlo(cfg, criteria, ctx.pool, mc_run_options(ctx));

  print_quantiles(ctx, mc.summary);
  ctx.sink.notef("yield %d/%d (%.1f%%) against the §4 constraints "
                 "(range >= %.1f mV, slew >= %.2f V/us)",
                 mc.summary.passes, mc.summary.trials, 100.0 * mc.summary.yield,
                 1e3 * criteria.min_input_range, 1e-6 * criteria.min_slew_rate);
  emit_summary_metrics(ctx, mc);
  ctx.sink.raw_artifact("trials.csv", core::trials_to_csv(mc.trials));
  ctx.sink.raw_artifact("yield.json", core::summary_to_json(mc));

  // Sanity gates: the mismatch draws must actually spread the parameters
  // (a zero spread means the per-device cards stopped varying), and the
  // nominal-window medians must stay in the paper's Fig. 4 ballpark.
  // An installed fault plan legitimately quarantines trials and can skew
  // the quantiles — the gates only apply to clean runs.
  if (base::faults::active()) {
    ctx.sink.note("note: fault plan active — clean-run acceptance gates skipped");
    return 0;
  }
  if (mc.summary.gain_db.p95 - mc.summary.gain_db.p05 <= 0.0) {
    ctx.sink.note("FAIL: mismatch produced no parameter spread");
    return 1;
  }
  if (mc.summary.gain_db.p50 < 18.0 || mc.summary.gain_db.p50 > 24.0) {
    ctx.sink.note("FAIL: median gain left the nominal window");
    return 1;
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(corner_ber, "mc",
                        "BER across the five PVT sign-off corners",
                        "2|3|6 Eb/N0 pts x 0.4k|4k|20k bits") {
  const auto corners = core::standard_corners();
  const std::vector<double> ebn0 =
      ctx.pick<std::vector<double>>({10, 14}, {6, 10, 14}, {4, 6, 8, 10, 12, 14});
  const std::uint64_t max_bits = ctx.pick(400, 4000, 20000);

  struct CornerRow {
    core::McTrial trial;
    std::vector<uwb::BerPoint> points;
  };
  // One task per corner: re-characterize at the corner (no mismatch), then
  // run the behavioral BER curve with the corner's fitted model.
  const auto rows = ctx.pool.map<CornerRow>(
      corners.size(), [&](std::size_t i) {
        core::McConfig cfg;
        cfg.corner = corners[i];
        cfg.seed = base::derive_seed(ctx.seed, i);
        cfg.sigma_scale = 0.0;  // corners only
        cfg.sys = ber_system(ctx.seed);
        // Criteria are not used for pass/fail here; judge against nothing.
        CornerRow row;
        row.trial = core::run_mc_trial(cfg, 0, core::YieldCriteria{});
        if (!row.trial.converged) return row;

        uwb::BerConfig bc;
        // One shared noise seed for every corner: the BER comparison is
        // paired (common random numbers), so corner-to-corner differences
        // reflect the corner's fitted model, not independent noise draws.
        bc.sys = ber_system(base::derive_seed(ctx.seed, 100));
        bc.ebn0_db = ebn0;
        bc.max_bits = max_bits;
        bc.jobs = 1;  // corners are already fanned
        core::VariantOptions vo;
        vo.behavioral = row.trial.params;
        vo.behavioral_uses_clamp = true;
        row.points = uwb::run_ber_sweep(
            bc, core::make_integrator_factory(
                    core::IntegratorKind::kBehavioral, bc.sys, vo));
        return row;
      });

  base::Table t("Corner characterization (behavioral params re-fit per corner)");
  t.set_header({"corner", "gain [dB]", "f1 [MHz]", "f2 [GHz]", "range [mV]",
                "slew [V/us]"});
  base::Series curves("BER vs Eb/N0 per PVT corner", "ebn0_db");
  for (const auto& r : rows) curves.add_column(spice::to_string(r.trial.corner.process));
  for (std::size_t k = 0; k < ebn0.size(); ++k) {
    std::vector<double> col;
    for (const auto& r : rows)
      col.push_back(k < r.points.size() ? r.points[k].ber : -1.0);
    curves.add_row(ebn0[k], col);
  }
  int bad = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& tr = rows[i].trial;
    if (!tr.converged) {
      ++bad;
      t.add_row({corners[i].label(), "did not converge", "-", "-", "-", "-"});
      continue;
    }
    t.add_row({corners[i].label(), base::Table::num(tr.dc_gain_db, 2),
               base::Table::num(tr.f_pole1 * 1e-6, 3),
               base::Table::num(tr.f_pole2 * 1e-9, 3),
               base::Table::num(tr.input_linear_range * 1e3, 1),
               base::Table::num(tr.slew_rate * 1e-6, 2)});
    ctx.sink.metric(std::string("gain_db_") + spice::to_string(tr.corner.process),
                    tr.dc_gain_db);
    if (!rows[i].points.empty())
      ctx.sink.metric(std::string("ber_") + spice::to_string(tr.corner.process),
                      rows[i].points.back().ber);
  }
  ctx.sink.table(t, "corner_params");
  ctx.sink.series(curves, "corner_ber");

  // Injected faults (spice.nonconverge, runner.task) can legitimately fail
  // corner characterizations — the clean-run gates below don't apply.
  if (base::faults::active()) {
    ctx.sink.note("note: fault plan active — clean-run acceptance gates skipped");
    return 0;
  }
  if (bad > 0) {
    ctx.sink.notef("FAIL: %d corner(s) did not characterize", bad);
    return 1;
  }
  // The FF/SS gain split must bracket TT: if the corner cards stopped
  // biting, every corner collapses onto the nominal fit.
  double g_tt = 0, g_ff = 0, g_ss = 0;
  for (const auto& r : rows) {
    if (r.trial.corner.process == spice::Corner::kTT) g_tt = r.trial.dc_gain_db;
    if (r.trial.corner.process == spice::Corner::kFF) g_ff = r.trial.dc_gain_db;
    if (r.trial.corner.process == spice::Corner::kSS) g_ss = r.trial.dc_gain_db;
  }
  if (g_ff == g_tt && g_ss == g_tt) {
    ctx.sink.note("FAIL: corner cards had no effect on the characterized gain");
    return 1;
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(yield_report, "mc",
                        "Yield sign-off: corner+mismatch MC vs the §4 "
                        "constraints",
                        "12|100|400 trials") {
  core::McConfig cfg;
  cfg.trials = ctx.pick(12, 100, 400);
  cfg.seed = ctx.seed;
  cfg.sigma_scale = 1.0;
  cfg.sample_corners = true;  // cross mismatch with the PVT corner set
  cfg.sys = ber_system(ctx.seed);
  // Behavioral BER propagation per trial is the expensive leg; the fast
  // tier (CI smoke + determinism gate) keeps it off.
  cfg.with_ber = ctx.pick(false, true, true);
  cfg.ber_bits = ctx.pick<std::uint64_t>(0, 500, 2000);
  cfg.ebn0_db = 12.0;
  if (ctx.tier == core::ExactnessTier::kStatEquiv) {
    // Same optimized-engine profile as mc_itd; the golden-stats artifact
    // below is what gates these runs.
    spice::apply_stat_equiv_profile(&cfg.characterize.transient);
    cfg.characterize.reuse_ac_factorization = true;
  }

  const auto constraints = core::extract_constraints(
      uwb::SystemConfig{}, ctx.pick(20, 100, 100), ctx.seed + 41);
  const auto nominal = core::memo::characterize_itd_cached(cfg.sizing);
  const auto criteria =
      core::YieldCriteria::from_constraints(constraints, nominal);

  ctx.sink.notef("§4 constraints from %d CM1 realizations: input range >= "
                 "%.1f mV, slew >= %.2f V/us",
                 constraints.realizations, 1e3 * criteria.min_input_range,
                 1e-6 * criteria.min_slew_rate);
  ctx.sink.notef("%d corner-sampled mismatch trials (BER propagation: %s), "
                 "%d workers",
                 cfg.trials, cfg.with_ber ? "on" : "off", ctx.jobs);

  const auto t0 = std::chrono::steady_clock::now();
  const auto mc =
      core::run_monte_carlo(cfg, criteria, ctx.pool, mc_run_options(ctx));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  print_quantiles(ctx, mc.summary);
  const core::McSummary& s = mc.summary;
  ctx.sink.notef("yield %d/%d (%.1f%%)  [range %d, slew %d, bandwidth %d, "
                 "gain %d, no-converge %d, quarantined %d]",
                 s.passes, s.trials, 100.0 * s.yield, s.fail_input_range,
                 s.fail_slew_rate, s.fail_bandwidth, s.fail_gain,
                 s.fail_no_converge, s.quarantined);
  ctx.sink.notef("%d trials in %.2f s (%.1f trials/s)", s.trials, wall,
                 s.trials / wall);

  emit_summary_metrics(ctx, mc);
  ctx.sink.metric("trials_per_second", s.trials / wall);
  ctx.sink.metric("with_ber", std::uint64_t{cfg.with_ber});
  ctx.sink.raw_artifact("trials.csv", core::trials_to_csv(mc.trials));
  ctx.sink.raw_artifact("yield.json", core::summary_to_json(mc));

  // Golden-stats artifact: yield as a binomial check, the characterized
  // parameter populations as KS sample checks, and the §4-derived criteria
  // as tight scalars (they come from the tier-independent nominal path).
  {
    core::StatArtifact stats(ctx.scenario_name, runner::to_string(ctx.scale));
    stats.add_ber("yield:failures",
                  static_cast<std::uint64_t>(s.trials - s.passes),
                  static_cast<std::uint64_t>(s.trials));
    std::vector<double> gains, ugfs, ranges, slews;
    for (const auto& tr : mc.trials) {
      if (!tr.converged) continue;
      gains.push_back(tr.dc_gain_db);
      ugfs.push_back(tr.unity_gain_freq);
      ranges.push_back(tr.input_linear_range);
      slews.push_back(tr.slew_rate);
    }
    stats.add_sample("gain_db", gains);
    stats.add_sample("unity_gain_hz", ugfs);
    stats.add_sample("input_linear_range_v", ranges);
    stats.add_sample("slew_rate_vps", slews);
    stats.add_scalar("criteria:min_input_range_v", criteria.min_input_range,
                     1e-9);
    stats.add_scalar("criteria:min_slew_rate_vps", criteria.min_slew_rate,
                     1e-9);
    ctx.sink.golden_stats(stats.to_json());
  }

  // Gate: a healthy process must not collapse. The nominal cell clears
  // every criterion with wide margin, so a sub-50% yield signals a broken
  // corner/mismatch model (or criteria drift), not statistics. Quarantined
  // trials count as failures, so a fault drill is exempt.
  if (base::faults::active()) {
    ctx.sink.note("note: fault plan active — yield acceptance gate skipped");
    return 0;
  }
  if (s.yield < 0.5) {
    ctx.sink.note("FAIL: yield collapsed below 50%");
    return 1;
  }
  return 0;
}
