// ranging — the clock-nonideality + multi-node extensions of the paper's §5
// two-way-ranging experiment (group `ranging`).
//
//   twr_clock       ToA/distance bias vs the responder's crystal ppm offset:
//                   the classic TWR drift-bias line bias = -0.5 c PT delta_b
//                   (the paper's RTT - PT subtraction assumes it away), plus
//                   the ppm-compensated variant that removes it again.
//   ranging_network N-node TWR network over independent CM1 pair channels
//                   with per-node clock offsets; least-squares 2-D position
//                   solve over the pairwise estimates.
//
// Both scenarios fan their independent simulations across the pool with all
// seeds fixed up front, so any --jobs value reproduces --jobs=1 bit for bit
// (the CI determinism gate byte-compares ranging_network's pairs.csv).
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "base/random.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "core/equiv.hpp"
#include "runner/runner.hpp"
#include "uwb/network.hpp"
#include "uwb/ranging.hpp"

using namespace uwbams;

REGISTER_SCENARIO_TIERS(twr_clock, "ranging",
                        "TWR distance bias vs crystal ppm offset (drift-bias "
                        "line + ppm compensation)",
                        "3|7|11 ppm pts x 2|4|8 iter") {
  // A long processing time makes the PT-scaling term dominate the
  // estimator jitter: at PT = 40 us, 1 ppm of responder offset biases the
  // distance by -0.5 c PT 1e-6 ~ -6 mm.
  uwb::TwrConfig base_cfg;
  base_cfg.sys.dt = ctx.pick(0.2e-9, 0.2e-9, 0.1e-9);
  base_cfg.sys.seed = ctx.seed;
  base_cfg.processing_time = 40e-6;
  // The engine computes both: distance_raw and the compensated
  // distance_estimate (TwrConfig::compensate_ppm), so the compensated
  // column below gates the shipped correction, not a re-derived copy.
  base_cfg.compensate_ppm = true;
  const int iterations = ctx.pick(2, 4, 8);
  const std::vector<double> ppm_values =
      ctx.pick<std::vector<double>>({-80.0, 0.0, 80.0},
                                    {-100.0, -50.0, -20.0, 0.0, 20.0, 50.0, 100.0},
                                    {-100.0, -75.0, -50.0, -25.0, -10.0, 0.0,
                                     10.0, 25.0, 50.0, 75.0, 100.0});

  // The iteration seeds are shared across ppm points (channel fixed, noise
  // per iteration), so the estimator jitter is common-mode along the sweep
  // and the clock term stands out cleanly.
  ctx.sink.notef("sweeping %zu ppm offsets x %d iterations, PT = %.0f us ...",
                 ppm_values.size(), iterations,
                 1e6 * base_cfg.processing_time);
  const auto n_iter = static_cast<std::size_t>(iterations);
  const auto flat = ctx.pool.map<uwb::TwrIteration>(
      ppm_values.size() * n_iter, [&](std::size_t t) {
        uwb::TwrConfig cfg = base_cfg;
        cfg.clock_b.ppm = ppm_values[t / n_iter];
        const int rep = static_cast<int>(t % n_iter);
        uwb::TwoWayRanging twr(
            cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                               cfg.sys));
        return twr.run_iteration(cfg.channel_seed(rep), cfg.noise_seed(rep));
      });

  // Reference mean at ppm = 0 isolates the clock-induced part of the bias
  // from the (seed-shared) estimator offset. If every ppm = 0 iteration
  // failed to acquire (possible on an unlucky --seed's fixed realization),
  // fall back to the grand mean over all ok iterations — a constant offset
  // cancels in the slope fits either way, but the bias_m column must not
  // silently become the absolute distance.
  base::RunningStats ref_st;
  base::RunningStats grand_st;
  for (std::size_t p = 0; p < ppm_values.size(); ++p) {
    for (std::size_t i = 0; i < n_iter; ++i) {
      const auto& it = flat[p * n_iter + i];
      if (!it.ok) continue;
      grand_st.add(it.distance_raw);
      if (ppm_values[p] == 0.0) ref_st.add(it.distance_raw);
    }
  }
  if (ref_st.count() == 0)
    ctx.sink.note("note: no ppm=0 acquisition succeeded; bias_m is "
                  "referenced to the grand mean instead");
  const double ref_mean =
      ref_st.count() > 0 ? ref_st.mean() : grand_st.mean();

  base::Series series("TWR bias vs responder clock offset", "ppm_b");
  series.add_column("mean_raw_m");
  series.add_column("bias_m");
  series.add_column("mean_compensated_m");
  series.add_column("failures");
  std::vector<double> xs, ys, ys_comp;
  const double c = units::speed_of_light;
  const double pt = base_cfg.processing_time;
  int total_failures = 0;
  for (std::size_t p = 0; p < ppm_values.size(); ++p) {
    base::RunningStats raw;
    base::RunningStats comp;
    int failures = 0;
    for (std::size_t i = 0; i < n_iter; ++i) {
      const auto& it = flat[p * n_iter + i];
      if (!it.ok) {
        ++failures;
        continue;
      }
      raw.add(it.distance_raw);
      comp.add(it.distance_estimate);  // the engine's compensated value
    }
    total_failures += failures;
    series.add_row(ppm_values[p],
                   {raw.mean(), raw.mean() - ref_mean, comp.mean(),
                    static_cast<double>(failures)});
    if (raw.count() > 0) {
      xs.push_back(ppm_values[p]);
      ys.push_back(raw.mean() - ref_mean);
      ys_comp.push_back(comp.mean() - ref_mean);
    }
  }
  ctx.sink.series(series, "bias_vs_ppm");

  // A slope needs two ppm rows with at least one acquisition each.
  if (xs.size() < 2) {
    ctx.sink.notef("FAIL: only %zu of %zu ppm rows acquired (%d acquisition "
                   "failures); the drift-bias slope needs >= 2",
                   xs.size(), ppm_values.size(), total_failures);
    return 1;
  }
  const auto fit = base::fit_line(xs, ys);
  const auto fit_comp = base::fit_line(xs, ys_comp);
  const double theory = -0.5 * c * pt * 1e-6;  // m per ppm of delta_b
  ctx.sink.notef("fitted bias slope %.4g m/ppm (theory -0.5 c PT = %.4g), "
                 "compensated slope %.4g, %d acquisition failures",
                 fit.slope, theory, fit_comp.slope, total_failures);
  ctx.sink.metric("bias_slope_m_per_ppm", fit.slope);
  ctx.sink.metric("theory_slope_m_per_ppm", theory);
  ctx.sink.metric("compensated_slope_m_per_ppm", fit_comp.slope);
  ctx.sink.metric("failures", static_cast<std::uint64_t>(total_failures));

  // Gates: the drift-bias line must track the PT-scaling prediction
  // (theory is negative, so the [high x, low x] theory band brackets it
  // from below and above), and compensation must cancel most of the slope.
  // Limits live in core::accept (shared with the CI jobs).
  if (fit.slope > core::accept::kTwrSlopeBandLow * theory ||
      fit.slope < core::accept::kTwrSlopeBandHigh * theory) {
    ctx.sink.note("FAIL: drift-bias slope is not the predicted "
                  "-0.5 c PT line");
    return 1;
  }
  if (std::abs(fit_comp.slope) >
      core::accept::kTwrCompensatedSlopeMax * std::abs(theory)) {
    ctx.sink.note("FAIL: ppm compensation left most of the drift slope in");
    return 1;
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(ranging_network, "ranging",
                        "N-node TWR network: per-pair CM1 distances + 2-D "
                        "position solve",
                        "4|8|16 nodes x 2|2|3 exch") {
  uwb::NetworkConfig cfg;
  cfg.sys.dt = ctx.pick(0.2e-9, 0.2e-9, 0.1e-9);
  cfg.sys.seed = ctx.seed;
  cfg.node_count = ctx.pick(4, 8, 16);
  // 5 m radius keeps the longest link (the 10 m diameter) inside the range
  // the link budget is tuned for; 12 m+ links start failing acquisition.
  cfg.layout_radius = 5.0;
  cfg.ppm_spread = 20.0;  // a realistic crystal population
  cfg.compensate_ppm = true;
  // Two exchanges even on the fast tier: a pair is only lost when *every*
  // exchange fails to acquire, and the fresh-channel redraw makes a double
  // failure rare.
  cfg.exchanges_per_pair = ctx.pick(2, 2, 3);

  uwb::RangingNetwork net(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  ctx.sink.notef("%d nodes on a %.1f m circle -> %d pairs x %d exchanges, "
                 "ppm spread +/-%.0f, %d workers ...",
                 cfg.node_count, cfg.layout_radius, net.pair_count(),
                 cfg.exchanges_per_pair, cfg.ppm_spread, ctx.jobs);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = net.run(&ctx.pool);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  base::Table pairs("Per-pair distance estimates [m]");
  pairs.set_header({"node_a", "node_b", "true_m", "est_m", "err_m",
                    "failures"});
  for (const auto& m : res.pairs) {
    pairs.add_row({std::to_string(m.node_a), std::to_string(m.node_b),
                   base::Table::num(m.true_distance, 4),
                   m.ok() ? base::Table::num(m.est_distance, 4) : "n/a",
                   m.ok() ? base::Table::num(m.est_distance - m.true_distance, 4)
                          : "n/a",
                   std::to_string(m.failures)});
  }
  ctx.sink.table(pairs, "pairs");

  base::Table solved("Solved positions [m]");
  solved.set_header({"node", "ppm", "true_x", "true_y", "est_x", "est_y",
                     "err_m"});
  for (int k = 0; k < cfg.node_count; ++k) {
    const auto& t = res.positions[static_cast<std::size_t>(k)];
    const auto& s = res.solved[static_cast<std::size_t>(k)];
    const double err = std::hypot(t.x - s.x, t.y - s.y);
    solved.add_row({std::to_string(k),
                    base::Table::num(res.node_ppm[static_cast<std::size_t>(k)], 2),
                    base::Table::num(t.x, 3), base::Table::num(t.y, 3),
                    base::Table::num(s.x, 3), base::Table::num(s.y, 3),
                    k < cfg.anchor_count ? "anchor"
                                         : base::Table::num(err, 3)});
  }
  ctx.sink.table(solved, "positions");

  ctx.sink.notef("distance RMSE %.3f m, position RMSE %.3f m, "
                 "%d failed pairs, %.2f s (%.2f pairs/s)",
                 res.distance_rmse, res.position_rmse, res.failed_pairs, wall,
                 res.pairs.size() / wall);
  ctx.sink.metric("nodes", static_cast<std::uint64_t>(cfg.node_count));
  ctx.sink.metric("pairs", static_cast<std::uint64_t>(res.pairs.size()));
  ctx.sink.metric("failed_pairs", static_cast<std::uint64_t>(res.failed_pairs));
  ctx.sink.metric("distance_rmse_m", res.distance_rmse);
  ctx.sink.metric("position_rmse_m", res.position_rmse);
  ctx.sink.metric("range_bias_m", res.range_bias);
  ctx.sink.metric("exchanges_per_pair",
                  static_cast<std::uint64_t>(cfg.exchanges_per_pair));
  ctx.sink.metric("pairs_per_second", res.pairs.size() / wall);

  // Golden-stats artifact: acquisition failures as a binomial check, the
  // per-pair ranging errors as a KS population, and the two RMSE figures as
  // loosely-toleranced scalars (this scenario runs the ideal integrator, so
  // under bit_exact a refreshed golden reproduces byte-for-byte; the bands
  // exist for stat_equiv engine changes that reach the link layer).
  {
    core::StatArtifact stats(ctx.scenario_name, runner::to_string(ctx.scale));
    stats.add_ber("pairs:failed",
                  static_cast<std::uint64_t>(res.failed_pairs),
                  static_cast<std::uint64_t>(res.pairs.size()));
    std::vector<double> errs;
    for (const auto& m : res.pairs)
      if (m.ok()) errs.push_back(m.est_distance - m.true_distance);
    stats.add_sample("pair_error_m", errs);
    stats.add_scalar("distance_rmse_m", res.distance_rmse, 0.25, 0.05);
    stats.add_scalar("position_rmse_m", res.position_rmse, 0.25, 0.05);
    ctx.sink.golden_stats(stats.to_json());
  }

  // Gates: the network must measure most pairs and localize to sub-meter
  // RMSE — the per-pair engine at these distances is good to ~0.3 m and
  // the solver averages over many pairs, so meter-scale errors signal a
  // broken channel/clock/seed pipeline rather than statistics. Limits live
  // in core::accept (shared with the CI jobs).
  if (static_cast<double>(res.failed_pairs) >
      core::accept::kRangingMaxFailedPairFraction *
          static_cast<double>(res.pairs.size())) {
    ctx.sink.note("FAIL: more than a quarter of the pairs failed to range");
    return 1;
  }
  if (res.position_rmse > core::accept::kRangingMaxPositionRmseM) {
    ctx.sink.note("FAIL: position RMSE above the accept limit");
    return 1;
  }
  return 0;
}
