// coex — coexistence and channel-environment scenarios (group `coex`).
//
//   coex_ber            BER vs SIR under an in-band CW blocker, one curve
//                       per channel class (CM1 LOS, CM2 NLOS). The adaptive
//                       PNR threshold is exercised end-to-end in the
//                       ranging/receiver path; here the genie-timed
//                       detector measures the raw decision-statistic
//                       penalty of the blocker.
//   multiuser_ber       BER vs number of concurrent equal-power piconets
//                       (0..4 uncoordinated 2-PPM interferers with
//                       independent slot draws).
//   channel_class_sweep fig6-style BER vs Eb/N0 waterfall for CM1..CM4
//                       multipath realizations.
//
// Every point is an independent task seeded from (system seed, Eb/N0)
// alone, so the fanned sweep is bit-identical to --jobs=1 (the CI gate
// byte-compares the CSV artifacts across job counts).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/table.hpp"
#include "core/block_variant.hpp"
#include "core/equiv.hpp"
#include "runner/runner.hpp"
#include "uwb/ber.hpp"
#include "uwb/channel.hpp"

using namespace uwbams;

namespace {

// Amplitude-defined signal-to-interference ratio: the blocker amplitude at
// the front-end input is rx_pulse_peak * 10^(-SIR/20).
double sir_amplitude(double rx_pulse_peak, double sir_db) {
  return rx_pulse_peak * std::pow(10.0, -sir_db / 20.0);
}

const char* class_name(double code) {
  return uwb::to_string(
      static_cast<uwb::ChannelClass>(static_cast<int>(code)));
}

// Throughput metrics shared by the coex group (summary.json; the wall
// clock never reaches an artifact, so served results stay byte-stable).
void throughput_metrics(runner::RunContext& ctx, std::size_t points,
                        std::uint64_t bits, std::uint64_t errors,
                        double wall) {
  ctx.sink.metric("points", static_cast<std::uint64_t>(points));
  ctx.sink.metric("bits", bits);
  ctx.sink.metric("errors", errors);
  ctx.sink.metric("bits_per_second",
                  static_cast<double>(bits) / std::max(wall, 1e-9));
}

// Two-sided significance guard: fails only when `worse` measured
// *significantly better* than `better` (their 95% intervals disjoint in
// the wrong direction). Monte-Carlo noise at smoke-tier bit counts can
// blur the ordering; it cannot produce a confident inversion.
bool significantly_better(const uwb::BerPoint& worse,
                          const uwb::BerPoint& better) {
  return worse.ber + worse.half_width_95 <
         better.ber - better.half_width_95;
}

}  // namespace

REGISTER_SCENARIO_TIERS(coex_ber, "coex",
                        "BER vs SIR under a CW blocker, per channel class "
                        "(CM1/CM2)",
                        "0.6k|4k|20k bits per point") {
  uwb::BerConfig base;
  base.sys.dt = 0.2e-9;
  base.sys.seed = ctx.seed;
  base.max_bits = ctx.pick<std::uint64_t>(600, 4000, 20000);
  base.min_errors = ctx.pick<std::uint64_t>(15, 30, 60);

  // Fixed mid-waterfall operating point: errors accumulate fast enough to
  // compare SIR points, clean BER is still well below coin-flip.
  const double ebn0 = 10.0;
  const std::vector<double> classes = {0.0, 1.0};  // CM1, CM2
  // 40 dB is the effectively-clean reference; 0 dB puts the blocker at the
  // pulse amplitude.
  const std::vector<double> sir_db = {40.0, 20.0, 10.0, 0.0};

  auto spec = ctx.spec().axis("class", classes).axis("sir_db", sir_db);
  const auto t0 = std::chrono::steady_clock::now();
  const auto flat = ctx.pool.map<uwb::BerPoint>(
      spec.point_count(), [&](std::size_t t) {
        const auto pt = spec.point(t);
        uwb::BerConfig c = base;
        c.ebn0_db = {ebn0};
        c.sys.multipath = true;
        uwb::apply_channel_class(
            &c.sys, static_cast<uwb::ChannelClass>(
                        static_cast<int>(pt.at("class"))));
        c.sys.interference.cw_amplitude =
            sir_amplitude(c.rx_pulse_peak, pt.at("sir_db"));
        return uwb::run_ber_sweep(
            c, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                             c.sys, ctx.variant()))[0];
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  base::Series series("BER vs SIR (CW blocker)", "sir_db");
  for (const double cls : classes) series.add_column(class_name(cls));
  for (std::size_t s = 0; s < sir_db.size(); ++s) {
    std::vector<double> row;
    for (std::size_t k = 0; k < classes.size(); ++k)
      row.push_back(flat[k * sir_db.size() + s].ber);
    series.add_row(sir_db[s], row);
  }
  ctx.sink.series(series, "ber_sir", 4);
  ctx.sink.plot(series, 64, 18, /*log_y=*/true);

  base::Table t("BER vs SIR per channel class");
  t.set_header({"class", "sir_db", "ber", "hw95", "bits", "errors"});
  std::uint64_t bits = 0, errors = 0, quarantined = 0;
  for (std::size_t k = 0; k < classes.size(); ++k)
    for (std::size_t s = 0; s < sir_db.size(); ++s) {
      const uwb::BerPoint& p = flat[k * sir_db.size() + s];
      t.add_row({class_name(classes[k]), base::Table::num(sir_db[s], 0),
                 base::Table::sci(p.ber, 2), base::Table::sci(p.half_width_95, 1),
                 std::to_string(p.bits), std::to_string(p.errors)});
      bits += p.bits;
      errors += p.errors;
      quarantined += p.quarantined ? 1 : 0;
    }
  ctx.sink.table(t, "points");
  ctx.sink.metric("quarantined", quarantined);
  throughput_metrics(ctx, flat.size(), bits, errors, wall);

  core::StatArtifact stats(ctx.scenario_name, runner::to_string(ctx.scale));
  for (std::size_t k = 0; k < classes.size(); ++k)
    for (std::size_t s = 0; s < sir_db.size(); ++s) {
      const uwb::BerPoint& p = flat[k * sir_db.size() + s];
      char name[64];
      std::snprintf(name, sizeof name, "ber:%s@sir%gdB",
                    class_name(classes[k]), sir_db[s]);
      stats.add_ber(name, p.errors, p.bits);
    }
  ctx.sink.golden_stats(stats.to_json());

  if (quarantined > 0) {
    ctx.sink.note("FAIL: quarantined BER point(s) in the SIR sweep");
    return 1;
  }
  // Physics sanity per class: the 0 dB blocker cannot measure
  // *significantly better* than the clean 40 dB reference.
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const uwb::BerPoint& clean = flat[k * sir_db.size()];
    const uwb::BerPoint& jammed = flat[(k + 1) * sir_db.size() - 1];
    if (significantly_better(jammed, clean)) {
      ctx.sink.notef("FAIL: %s BER at 0 dB SIR significantly below the "
                     "clean reference",
                     class_name(classes[k]));
      return 1;
    }
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(multiuser_ber, "coex",
                        "BER vs number of concurrent equal-power piconets "
                        "(0..4 uncoordinated interferers)",
                        "0.6k|4k|20k bits per point") {
  uwb::BerConfig base;
  base.sys.dt = 0.2e-9;
  base.sys.seed = ctx.seed;
  base.max_bits = ctx.pick<std::uint64_t>(600, 4000, 20000);
  base.min_errors = ctx.pick<std::uint64_t>(15, 30, 60);

  const double ebn0 = 10.0;
  const std::vector<double> piconets = {0.0, 1.0, 2.0, 4.0};

  auto spec = ctx.spec().axis("piconets", piconets);
  const auto t0 = std::chrono::steady_clock::now();
  const auto flat = ctx.pool.map<uwb::BerPoint>(
      spec.point_count(), [&](std::size_t t) {
        const auto pt = spec.point(t);
        uwb::BerConfig c = base;
        c.ebn0_db = {ebn0};
        c.sys.interference.uwb_count = static_cast<int>(pt.at("piconets"));
        // Equal-power piconets: each interferer's pulses arrive at the
        // victim's own received amplitude (the dense-deployment worst
        // case of the paper's multi-user scenario).
        c.sys.interference.uwb_amplitude = c.rx_pulse_peak;
        return uwb::run_ber_sweep(
            c, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                             c.sys, ctx.variant()))[0];
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  base::Series series("BER vs concurrent piconets", "piconets");
  series.add_column("ber");
  for (std::size_t i = 0; i < piconets.size(); ++i)
    series.add_row(piconets[i], {flat[i].ber});
  ctx.sink.series(series, "ber_piconets", 4);

  base::Table t("BER vs concurrent piconets");
  t.set_header({"piconets", "ber", "hw95", "bits", "errors"});
  std::uint64_t bits = 0, errors = 0, quarantined = 0;
  for (std::size_t i = 0; i < piconets.size(); ++i) {
    const uwb::BerPoint& p = flat[i];
    t.add_row({base::Table::num(piconets[i], 0), base::Table::sci(p.ber, 2),
               base::Table::sci(p.half_width_95, 1), std::to_string(p.bits),
               std::to_string(p.errors)});
    bits += p.bits;
    errors += p.errors;
    quarantined += p.quarantined ? 1 : 0;
  }
  ctx.sink.table(t, "points");
  ctx.sink.metric("quarantined", quarantined);
  throughput_metrics(ctx, flat.size(), bits, errors, wall);

  core::StatArtifact stats(ctx.scenario_name, runner::to_string(ctx.scale));
  for (std::size_t i = 0; i < piconets.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof name, "ber:%gpiconets", piconets[i]);
    stats.add_ber(name, flat[i].errors, flat[i].bits);
  }
  ctx.sink.golden_stats(stats.to_json());

  if (quarantined > 0) {
    ctx.sink.note("FAIL: quarantined BER point(s) in the piconet sweep");
    return 1;
  }
  // Four equal-power interferers cannot measure significantly better than
  // the interference-free baseline.
  if (significantly_better(flat.back(), flat.front())) {
    ctx.sink.note("FAIL: 4-piconet BER significantly below the clean "
                  "baseline");
    return 1;
  }
  return 0;
}

REGISTER_SCENARIO_TIERS(channel_class_sweep, "coex",
                        "Fig. 6-style BER vs Eb/N0 waterfall per channel "
                        "class (CM1..CM4)",
                        "0.6k|4k|20k bits per point") {
  uwb::BerConfig base;
  base.sys.dt = 0.2e-9;
  base.sys.seed = ctx.seed;
  base.max_bits = ctx.pick<std::uint64_t>(600, 4000, 20000);
  base.min_errors = ctx.pick<std::uint64_t>(15, 30, 60);

  const std::vector<double> classes = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ebn0_db = {4.0, 8.0, 12.0, 16.0};

  auto spec = ctx.spec().axis("class", classes).axis("ebn0_db", ebn0_db);
  const auto t0 = std::chrono::steady_clock::now();
  const auto flat = ctx.pool.map<uwb::BerPoint>(
      spec.point_count(), [&](std::size_t t) {
        const auto pt = spec.point(t);
        uwb::BerConfig c = base;
        c.ebn0_db = {pt.at("ebn0_db")};
        c.sys.multipath = true;
        uwb::apply_channel_class(
            &c.sys, static_cast<uwb::ChannelClass>(
                        static_cast<int>(pt.at("class"))));
        return uwb::run_ber_sweep(
            c, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                             c.sys, ctx.variant()))[0];
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  base::Series series("BER vs Eb/N0 per channel class", "ebn0_db");
  for (const double cls : classes) series.add_column(class_name(cls));
  for (std::size_t e = 0; e < ebn0_db.size(); ++e) {
    std::vector<double> row;
    for (std::size_t k = 0; k < classes.size(); ++k)
      row.push_back(flat[k * ebn0_db.size() + e].ber);
    series.add_row(ebn0_db[e], row);
  }
  ctx.sink.series(series, "ber_classes", 4);
  ctx.sink.plot(series, 64, 18, /*log_y=*/true);

  base::Table t("BER per channel class");
  t.set_header({"class", "ebn0_db", "ber", "hw95", "bits", "errors"});
  std::uint64_t bits = 0, errors = 0, quarantined = 0;
  for (std::size_t k = 0; k < classes.size(); ++k)
    for (std::size_t e = 0; e < ebn0_db.size(); ++e) {
      const uwb::BerPoint& p = flat[k * ebn0_db.size() + e];
      t.add_row({class_name(classes[k]), base::Table::num(ebn0_db[e], 0),
                 base::Table::sci(p.ber, 2), base::Table::sci(p.half_width_95, 1),
                 std::to_string(p.bits), std::to_string(p.errors)});
      bits += p.bits;
      errors += p.errors;
      quarantined += p.quarantined ? 1 : 0;
    }
  ctx.sink.table(t, "points");
  ctx.sink.metric("quarantined", quarantined);
  throughput_metrics(ctx, flat.size(), bits, errors, wall);

  core::StatArtifact stats(ctx.scenario_name, runner::to_string(ctx.scale));
  for (std::size_t k = 0; k < classes.size(); ++k)
    for (std::size_t e = 0; e < ebn0_db.size(); ++e) {
      const uwb::BerPoint& p = flat[k * ebn0_db.size() + e];
      char name[64];
      std::snprintf(name, sizeof name, "ber:%s@%gdB", class_name(classes[k]),
                    p.ebn0_db);
      stats.add_ber(name, p.errors, p.bits);
    }
  ctx.sink.golden_stats(stats.to_json());

  if (quarantined > 0) {
    ctx.sink.note("FAIL: quarantined BER point(s) in the class sweep");
    return 1;
  }
  // Waterfall sanity per class: the top of each curve cannot sit
  // significantly below its own bottom (energy detection must not get
  // *worse* with more Eb/N0 on any class's multipath statistics).
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const uwb::BerPoint& low = flat[k * ebn0_db.size()];
    const uwb::BerPoint& high = flat[(k + 1) * ebn0_db.size() - 1];
    if (significantly_better(low, high)) {
      ctx.sink.notef("FAIL: %s BER rises with Eb/N0", class_name(classes[k]));
      return 1;
    }
  }
  ctx.sink.note(
      "\nShape check: CM1 (LOS) waterfalls the steepest; the NLOS classes\n"
      "lose the strong first path, so their curves flatten toward higher\n"
      "Eb/N0 — the genie-timed window captures only part of the dispersed\n"
      "energy.");
  return 0;
}
