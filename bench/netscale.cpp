// netscale — the calibrated-surrogate large-scale ranging tier (group
// `netscale`).
//
//   surrogate_fit     calibrates the PHY surrogate against the full-physics
//                     TWR engine over a (range, noise, |dppm|, channel
//                     class) grid — CM1 and CM3 on every tier — then
//                     validates it on held-out seeds (the honesty gate).
//                     Emits surrogate.json — the cached artifact the other
//                     two scenarios can load via UWBAMS_SURROGATE.
//   netscale_static   event-driven ranging network at 100 / 10,000 / 20,000
//                     nodes: per-round per-tag multilateration over
//                     surrogate draws.
//   netscale_mobility waypoint-mobile tags + anchor dropout + packet loss:
//                     the fault-injection variant.
//
// Every stochastic draw is keyed by fixed-purpose derive_seed sub-streams,
// so any --jobs value reproduces --jobs=1 bit for bit (the CI determinism
// gate byte-compares positions.csv, rounds.csv and surrogate.json).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/faults.hpp"
#include "base/table.hpp"
#include "core/block_variant.hpp"
#include "core/equiv.hpp"
#include "net/calibrate.hpp"
#include "net/engine.hpp"
#include "net/surrogate.hpp"
#include "runner/runner.hpp"

using namespace uwbams;

namespace {

// The shared inline-calibration operating point: ranges bracket the link
// budget (nearest-cell lookup clamps 11 m upward to cover the 12 m
// max-range tail), one noise floor, three crystal splits spanning a
// U(-20, 20) ppm population's pairings.
net::CalibrationConfig engine_calibration(const runner::RunContext& ctx) {
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.ranges_m = {3.0, 5.0, 7.0, 9.0, 11.0};
  cal.noise_psd = {8e-19};
  cal.dppm = {0.0, 20.0, 40.0};
  cal.channel_class = {0.0};  // CM1 deployments (the engine default)
  cal.samples_per_cell = ctx.pick(10, 12, 16);
  cal.seed = ctx.seed;
  return cal;
}

// The surrogate powering the network engine, by precedence: the
// UWBAMS_SURROGATE environment variable points at an explicit surrogate.json
// (the surrogate_fit artifact, loaded verbatim); else the memo (in-process,
// or the UWBAMS_CACHE store) may already hold this exact calibration; else
// a tier-sized calibration runs inline (and feeds the memo). All paths are
// bit-identical for any --jobs. Returns false on a bad surrogate file.
bool load_or_calibrate(const runner::RunContext& ctx, net::SurrogateTable* out,
                       std::string* source) {
  if (const char* path = std::getenv("UWBAMS_SURROGATE")) {
    std::ifstream in(path);
    if (!in) {
      ctx.sink.notef("FAIL: UWBAMS_SURROGATE='%s' cannot be opened", path);
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      *out = net::SurrogateTable::from_json(text.str());
    } catch (const std::exception& e) {
      ctx.sink.notef("FAIL: UWBAMS_SURROGATE='%s' rejected: %s", path,
                     e.what());
      return false;
    }
    *source = std::string("cached (") + path + ")";
    return true;
  }
  const auto cal = engine_calibration(ctx);
  ctx.sink.notef("calibrating surrogate: %zu cells x %d samples ...",
                 cal.cell_count(), cal.samples_per_cell);
  std::optional<int> quarantined;  // set only when the calibration runs
  *out = net::load_or_calibrate_surrogate(cal, core::IntegratorKind::kIdeal,
                                          &ctx.pool, &quarantined);
  *source = quarantined ? "inline calibration" : "memo";
  if (!quarantined) return true;
  if (*quarantined > 0)
    ctx.sink.notef("%d calibration exchange(s) quarantined after retries "
                   "(counted as acquisition failures)",
                   *quarantined);
  ctx.sink.metric("calibration_quarantined",
                  static_cast<std::uint64_t>(*quarantined));
  return true;
}

// positions.csv: one row per (round, tag), fixed %.6f formatting (through
// base::append_fixed) so the CI gate can byte-compare across --jobs and
// re-runs.
std::string positions_csv(const net::NetScaleResult& res) {
  std::string csv = "round,tag,true_x,true_y,est_x,est_y,err_m,links,solved\n";
  std::size_t row_count = 0;
  for (const auto& round : res.tag_rounds) row_count += round.size();
  csv.reserve(csv.size() + row_count * 80);
  const auto integer = [&csv](auto v) {
    char buf[24];
    csv.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    csv += ',';
  };
  const auto fixed6 = [&csv](double v) {
    base::append_fixed(&csv, v, 6);
    csv += ',';
  };
  for (std::size_t r = 0; r < res.tag_rounds.size(); ++r) {
    const auto& rows = res.tag_rounds[r];
    for (std::size_t t = 0; t < rows.size(); ++t) {
      const net::TagRound& row = rows[t];
      integer(r);
      integer(t);
      fixed6(row.true_x);
      fixed6(row.true_y);
      fixed6(row.est_x);
      fixed6(row.est_y);
      fixed6(row.err_m);
      integer(row.links);
      csv += row.solved ? "1\n" : "0\n";
    }
  }
  return csv;
}

// Shared reporting + artifact block of the two engine scenarios.
void report_rounds(runner::RunContext& ctx, const net::NetScaleConfig& cfg,
                   const net::NetScaleEngine& eng,
                   const net::NetScaleResult& res, double wall) {
  base::Table rounds("Per-round network statistics");
  rounds.set_header({"round", "solved", "avail", "rmse_m", "p95_m",
                     "mean_links", "dark", "bias_m", "fails", "lost", "quar"});
  for (const auto& st : res.rounds) {
    rounds.add_row({std::to_string(st.round), std::to_string(st.tags_solved),
                    base::Table::num(st.availability, 4),
                    base::Table::num(st.rmse_m, 4),
                    base::Table::num(st.p95_err_m, 4),
                    base::Table::num(st.mean_links, 3),
                    std::to_string(st.anchors_dark),
                    base::Table::num(st.bias_est_m, 4),
                    std::to_string(st.toa_failures),
                    std::to_string(st.packets_lost),
                    std::to_string(st.tags_quarantined)});
  }
  ctx.sink.table(rounds, "rounds");
  ctx.sink.raw_artifact("positions.csv", positions_csv(res));

  const double tag_rounds =
      static_cast<double>(cfg.tag_count) * cfg.rounds;
  ctx.sink.notef("%d nodes (%zu anchors + %d tags), %d rounds: "
                 "availability %.4f, RMSE %.3f m, %.2f s "
                 "(%.0f tag-rounds/s)",
                 eng.node_count(), eng.anchors().size(), cfg.tag_count,
                 cfg.rounds, res.overall_availability, res.overall_rmse_m,
                 wall, tag_rounds / wall);
  ctx.sink.metric("nodes", static_cast<std::uint64_t>(eng.node_count()));
  ctx.sink.metric("anchors", static_cast<std::uint64_t>(eng.anchors().size()));
  ctx.sink.metric("tags", static_cast<std::uint64_t>(cfg.tag_count));
  ctx.sink.metric("rounds", static_cast<std::uint64_t>(cfg.rounds));
  ctx.sink.metric("availability", res.overall_availability);
  ctx.sink.metric("rmse_m", res.overall_rmse_m);
  ctx.sink.metric("toa_draws", res.total_draws);
  ctx.sink.metric("tags_quarantined", res.quarantined);
  ctx.sink.metric("engine_seconds", wall);
  ctx.sink.metric("tag_rounds_per_second", tag_rounds / wall);
  if (res.quarantined > 0)
    ctx.sink.notef("%llu tag measurement(s) quarantined after retries "
                   "(kept as unsolved rows)",
                   static_cast<unsigned long long>(res.quarantined));
}

}  // namespace

REGISTER_SCENARIO_TIERS(surrogate_fit, "netscale",
                        "Calibrate the PHY surrogate vs the full-physics TWR "
                        "engine + held-out validation (surrogate.json)",
                        "8|40|108 cells x 10|16|24 samples") {
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.seed = ctx.seed;
  cal.ranges_m = ctx.pick<std::vector<double>>(
      {5.0, 9.0}, {3.0, 5.0, 7.0, 9.0, 11.0},
      {3.0, 5.0, 7.0, 9.0, 11.0, 13.0});
  cal.noise_psd = ctx.pick<std::vector<double>>(
      {8e-19}, {4e-19, 8e-19}, {4e-19, 8e-19, 1.6e-18});
  cal.dppm = ctx.pick<std::vector<double>>({0.0, 40.0}, {0.0, 40.0},
                                           {0.0, 20.0, 40.0});
  // Two channel environments on every tier: the held-out gate must accept
  // the surrogate per class, not just on the historical CM1 point. The two
  // LOS classes — the NLOS path-loss laws (CM2: n=4.58, CM4: n=3.07 with
  // PL0=57.9 dB) sink these 5..13 m links ~30 dB below the LOS budget at
  // the paper's TX power, so no NLOS exchange acquires and their cells
  // would all be uncheckable p_fail=1 columns.
  cal.channel_class = {0.0, 2.0};  // CM1 (residential LOS), CM3 (office LOS)
  cal.samples_per_cell = ctx.pick(10, 16, 24);
  const int held_out = ctx.pick(6, 6, 8);
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cal.twr.sys);

  ctx.sink.notef("calibrating %zu cells x %d samples (full physics, "
                 "%d workers) ...",
                 cal.cell_count(), cal.samples_per_cell, ctx.jobs);
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<int> calibrated_quarantined;  // empty on a memo hit
  const auto table = net::load_or_calibrate_surrogate(
      cal, core::IntegratorKind::kIdeal, &ctx.pool, &calibrated_quarantined);
  if (!calibrated_quarantined)
    ctx.sink.note("calibration served from the memo");
  const int cal_quarantined = calibrated_quarantined.value_or(0);
  const double t_cal =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  base::Table cells("Fitted surrogate cells");
  cells.set_header({"range_m", "noise_psd", "dppm", "cm", "ok", "outl",
                    "p_fail", "p_outl", "bias_m", "spread_m"});
  for (const auto& c : table.cells()) {
    cells.add_row({base::Table::num(c.range_m, 1),
                   base::Table::num(c.noise_psd, 2),
                   base::Table::num(c.dppm, 0),
                   uwb::to_string(static_cast<uwb::ChannelClass>(
                       static_cast<int>(c.channel_class))),
                   std::to_string(c.ok),
                   std::to_string(c.outliers), base::Table::num(c.p_fail, 3),
                   base::Table::num(c.p_outlier, 3),
                   base::Table::num(c.bias_m, 4),
                   base::Table::num(c.spread_m, 4)});
  }
  ctx.sink.table(cells, "cells");
  ctx.sink.raw_artifact("surrogate.json", table.to_json());

  ctx.sink.notef("validating on %d held-out exchanges per cell ...", held_out);
  const auto report =
      net::validate_surrogate(table, cal, held_out, fact, &ctx.pool);

  base::Table val("Held-out validation");
  val.set_header({"range_m", "noise_psd", "dppm", "cm", "checked", "bias_d",
                  "bias_bound", "bias", "spread", "outl", "fail"});
  for (const auto& v : report.cells) {
    val.add_row({base::Table::num(v.range_m, 1),
                 base::Table::num(v.noise_psd, 2), base::Table::num(v.dppm, 0),
                 uwb::to_string(static_cast<uwb::ChannelClass>(
                     static_cast<int>(v.channel_class))),
                 v.checked ? "yes" : "skip",
                 base::Table::num(v.bias_delta_m, 4),
                 base::Table::num(v.bias_bound_m, 4),
                 v.checked ? (v.bias_ok ? "ok" : "FAIL") : "-",
                 v.checked ? (v.spread_ok ? "ok" : "FAIL") : "-",
                 v.checked ? (v.outlier_ok ? "ok" : "FAIL") : "-",
                 v.checked ? (v.fail_rate_ok ? "ok" : "FAIL") : "-"});
  }
  ctx.sink.table(val, "validation");

  ctx.sink.notef("%d/%d checked cells passed (%.1f s calibration)",
                 report.passed, report.checked, t_cal);
  ctx.sink.metric("cells", static_cast<std::uint64_t>(table.cell_count()));
  ctx.sink.metric("samples_per_cell",
                  static_cast<std::uint64_t>(cal.samples_per_cell));
  ctx.sink.metric("checked", static_cast<std::uint64_t>(report.checked));
  ctx.sink.metric("passed", static_cast<std::uint64_t>(report.passed));
  ctx.sink.metric("calibration_seconds", t_cal);
  ctx.sink.metric("quarantined", static_cast<std::uint64_t>(
                                     cal_quarantined + report.quarantined));
  if (cal_quarantined + report.quarantined > 0)
    ctx.sink.notef("%d exchange(s) quarantined after retries "
                   "(%d calibration, %d held-out)",
                   cal_quarantined + report.quarantined, cal_quarantined,
                   report.quarantined);

  // Gates: the held-out physics must agree with the fit. A single cell is
  // allowed to sit on a bound (small-sample statistics), but 90% of the
  // checked cells must be inside every interval, and at least one cell
  // must have been checkable at all.
  if (report.checked == 0) {
    ctx.sink.note("FAIL: no cell had enough samples to validate");
    return 1;
  }
  if (!core::accept::fraction_at_least(
          static_cast<std::uint64_t>(report.passed),
          static_cast<std::uint64_t>(report.checked),
          core::accept::kSurrogateMinCellPassFraction)) {
    ctx.sink.note("FAIL: held-out validation rejected more than 10% of the "
                  "checked surrogate cells");
    return 1;
  }
  // The channel-class axis must be *individually* validated: every class on
  // the grid needs at least one checked-and-passed cell, or the surrogate
  // could ship a class it was never compared against the physics on.
  for (const double cls : cal.channel_class) {
    int cls_checked = 0, cls_passed = 0;
    for (const auto& v : report.cells) {
      if (v.channel_class != cls || !v.checked) continue;
      ++cls_checked;
      if (v.pass()) ++cls_passed;
    }
    ctx.sink.metric(
        std::string("checked_") +
            uwb::to_string(
                static_cast<uwb::ChannelClass>(static_cast<int>(cls))),
        static_cast<std::uint64_t>(cls_checked));
    if (cls_checked == 0 || cls_passed == 0) {
      ctx.sink.notef("FAIL: channel class %s has no passing held-out cell",
                     uwb::to_string(static_cast<uwb::ChannelClass>(
                         static_cast<int>(cls))));
      return 1;
    }
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(netscale_static, "netscale",
                        "Event-driven ranging network over the surrogate at "
                        "100 | 10k | 20k static nodes",
                        "100|10k|20k nodes x 4|5|6 rounds") {
  net::SurrogateTable table;
  std::string source;
  if (!load_or_calibrate(ctx, &table, &source)) return 1;

  net::NetScaleConfig cfg;
  cfg.seed = ctx.seed;
  // 5 m anchor spacing: links stay in the short-range surrogate cells
  // (sub-meter inlier spread) and every tag sees >= 4 anchors in budget.
  cfg.area_m = ctx.pick(30.0, 150.0, 210.0);
  cfg.anchor_grid = ctx.pick(6, 30, 42);
  cfg.tag_count = ctx.pick(64, 9100, 18236);  // nodes: 100 | 10,000 | 20,000
  cfg.rounds = ctx.pick(4, 5, 6);
  cfg.exchanges_per_link = 3;  // median-of-3, like RangingNetwork pairs
  cfg.noise_psd = 8e-19;
  cfg.ppm_spread = 20.0;

  net::NetScaleEngine eng(cfg, table);
  ctx.sink.notef("surrogate: %s; %d nodes (%zu anchors, %.0f m area), "
                 "%d rounds ...",
                 source.c_str(), eng.node_count(), eng.anchors().size(),
                 cfg.area_m, cfg.rounds);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = eng.run(&ctx.pool);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report_rounds(ctx, cfg, eng, res, wall);

  // Gates: with every anchor alive and no packet loss, nearly every tag
  // must localize, and median-of-3 links over the calibrated spread must
  // keep the network RMSE near 1.5 m (the CM1 latch jitter at this
  // operating point genuinely measures ~1 m per exchange; before the
  // per-cell bias calibration and multi-exchange links the network sat
  // above 2 m). The fast (smoke) tier calibrates from fewer samples per
  // cell, so its per-cell estimates are noisier and its bound looser.
  const double rmse_gate = ctx.pick(core::accept::kNetscaleRmseGateFastM,
                                    core::accept::kNetscaleRmseGateM,
                                    core::accept::kNetscaleRmseGateM);
  // An installed fault plan (--fault-plan) legitimately quarantines
  // measurements and drags availability down — the clean-network
  // acceptance gates only apply to clean runs.
  if (base::faults::active()) {
    ctx.sink.note(
        "note: fault plan active — clean-network acceptance gates skipped");
    return 0;
  }
  if (res.overall_availability < core::accept::kNetscaleMinAvailability) {
    ctx.sink.note("FAIL: availability below 0.95 with no fault injection");
    return 1;
  }
  if (res.overall_rmse_m > rmse_gate) {
    ctx.sink.notef("FAIL: position RMSE above %.1f m", rmse_gate);
    return 1;
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(netscale_mobility, "netscale",
                        "Waypoint-mobile tags + anchor dropout + packet loss "
                        "over the surrogate network",
                        "100|2.8k|9.4k nodes x 5|8|10 rounds") {
  net::SurrogateTable table;
  std::string source;
  if (!load_or_calibrate(ctx, &table, &source)) return 1;

  net::NetScaleConfig cfg;
  cfg.seed = ctx.seed;
  cfg.area_m = ctx.pick(30.0, 90.0, 150.0);  // 5 m anchor spacing
  cfg.anchor_grid = ctx.pick(6, 18, 30);
  cfg.tag_count = ctx.pick(64, 2500, 8500);
  cfg.rounds = ctx.pick(5, 8, 10);
  cfg.exchanges_per_link = 3;
  cfg.noise_psd = 8e-19;
  cfg.ppm_spread = 20.0;
  cfg.mobility = net::MobilityKind::kWaypoint;
  cfg.speed_mps = 1.5;
  cfg.packet_loss = 0.05;
  cfg.anchor_dropout = 0.05;
  cfg.dropout_rounds = 2;

  net::NetScaleEngine eng(cfg, table);
  ctx.sink.notef("surrogate: %s; %d nodes, %d rounds, waypoint %.1f m/s, "
                 "dropout %.2f (for %d rounds), loss %.2f ...",
                 source.c_str(), eng.node_count(), cfg.rounds, cfg.speed_mps,
                 cfg.anchor_dropout, cfg.dropout_rounds, cfg.packet_loss);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = eng.run(&ctx.pool);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report_rounds(ctx, cfg, eng, res, wall);

  int max_dark = 0;
  for (const auto& st : res.rounds) max_dark = std::max(max_dark, st.anchors_dark);
  ctx.sink.metric("max_anchors_dark", static_cast<std::uint64_t>(max_dark));

  // Gates: the scenario's own modeled faults (anchor dropout, packet
  // loss) must actually bite yet the dense anchor grid keeps the network
  // serviceable. An injected plan piles quarantines on top of the modeled
  // faults, so the serviceability thresholds only apply without one.
  if (base::faults::active()) {
    ctx.sink.note(
        "note: fault plan active — serviceability acceptance gates skipped");
    return 0;
  }
  if (max_dark == 0) {
    ctx.sink.note("FAIL: anchor-dropout fault injection never fired");
    return 1;
  }
  if (res.overall_availability <
      core::accept::kNetscaleMinAvailabilityFaulted) {
    ctx.sink.note("FAIL: availability below 0.80 under fault injection");
    return 1;
  }
  if (res.overall_rmse_m > core::accept::kNetscaleRmseGateFaultedM) {
    ctx.sink.note("FAIL: position RMSE above 2.5 m under fault injection");
    return 1;
  }
  return 0;
}
