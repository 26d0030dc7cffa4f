// test_netscale — the src/net/ surrogate + event-driven engine tier.
//
// Three layers of guarantees:
//   * artifact layer: the JSON parser round-trips the surrogate table byte
//     for byte and rejects malformed/mangled files loudly;
//   * statistical layer: the calibrated surrogate matches *held-out*
//     full-physics TWR exchanges (bias confidence interval, spread band,
//     outlier/failure binomial bounds) — the surrogate-vs-engine honesty
//     gate CI runs on every push;
//   * determinism layer: calibration and the network engine are
//     bit-identical across worker counts and re-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "base/random.hpp"
#include "core/block_variant.hpp"
#include "net/calibrate.hpp"
#include "net/engine.hpp"
#include "base/json.hpp"
#include "net/mobility.hpp"
#include "net/surrogate.hpp"

using namespace uwbams;

namespace {

// Synthetic table over a grid wide enough for the engine's 12 m link
// budget; every cell carries the same mixture parameters.
net::SurrogateTable synthetic_table(double bias, double spread,
                                    double p_fail = 0.0,
                                    double p_outlier = 0.0) {
  net::SurrogateTable t({3.0, 6.0, 9.0, 12.0}, {8e-19}, {0.0, 40.0},
                        /*channel_class=*/{0.0, 1.0}, 4.8,
                        /*calib_seed=*/7, /*samples_per_cell=*/8);
  for (std::size_t i = 0; i < t.cell_count(); ++i) {
    auto& c = t.cell_at(i);
    c.samples = 8;
    c.ok = 8;
    c.outliers = 0;
    c.p_fail = p_fail;
    c.p_outlier = p_outlier;
    c.bias_m = bias;
    c.spread_m = spread;
    c.outlier_bias_m = 9.6;
    c.outlier_spread_m = 0.5;
  }
  return t;
}

uwb::IntegratorFactory ideal_factory() {
  return core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                       uwb::SystemConfig{});
}

// Small single-cell calibration config: full physics, so keep the exchange
// count low (each exchange is ~45 ms of waveform simulation).
net::CalibrationConfig tiny_calibration() {
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.ranges_m = {8.0};
  cal.noise_psd = {8e-19};
  cal.dppm = {0.0};
  cal.samples_per_cell = 6;
  cal.seed = 11;
  return cal;
}

}  // namespace

// ----------------------------------------------------------------- JSON

TEST(NetJson, RoundTripPreservesValuesAndIsByteStable) {
  base::JsonObject obj;
  obj["name"] = base::JsonValue("table");
  obj["count"] = base::JsonValue(3);
  obj["scale"] = base::JsonValue(0.1);  // not exactly representable
  obj["flag"] = base::JsonValue(true);
  base::JsonArray arr;
  arr.emplace_back(1.5);
  arr.emplace_back("two");
  arr.emplace_back(base::JsonValue());
  obj["items"] = base::JsonValue(std::move(arr));
  const base::JsonValue v{std::move(obj)};

  const std::string text = v.dump(2);
  const base::JsonValue parsed = base::parse_json(text);
  EXPECT_EQ(parsed.at("name").as_string(), "table");
  EXPECT_EQ(parsed.at("count").as_number(), 3.0);
  EXPECT_EQ(parsed.at("scale").as_number(), 0.1);
  EXPECT_TRUE(parsed.at("flag").as_bool());
  ASSERT_EQ(parsed.at("items").as_array().size(), 3u);
  EXPECT_TRUE(parsed.at("items").as_array()[2].is_null());
  // parse -> dump is the identity on canonical output (%.17g + sorted keys).
  EXPECT_EQ(parsed.dump(2), text);
}

TEST(NetJson, RejectsMalformedInput) {
  EXPECT_THROW(base::parse_json("{"), base::JsonError);
  EXPECT_THROW(base::parse_json("[1, 2,]"), base::JsonError);
  EXPECT_THROW(base::parse_json("{\"a\": 1} garbage"), base::JsonError);
  EXPECT_THROW(base::parse_json("{\"a\" 1}"), base::JsonError);
  EXPECT_THROW(base::parse_json(""), base::JsonError);
  // Kind mismatches on access are schema errors, also loud.
  const base::JsonValue v = base::parse_json("{\"a\": 1}");
  EXPECT_THROW(v.at("missing"), base::JsonError);
  EXPECT_THROW(v.at("a").as_string(), base::JsonError);
}

// ------------------------------------------------------------- surrogate

TEST(Surrogate, JsonRoundTripIsExact) {
  net::SurrogateTable t = synthetic_table(0.8, 0.3, 0.05, 0.02);
  t.cell_at(3).bias_m = 1.23456789012345;  // exercise %.17g fidelity
  const std::string text = t.to_json();
  const net::SurrogateTable back = net::SurrogateTable::from_json(text);
  EXPECT_TRUE(t == back);
  EXPECT_EQ(back.to_json(), text);  // byte-stable cache round trip
}

TEST(Surrogate, FromJsonRejectsMangledTables) {
  const net::SurrogateTable t = synthetic_table(0.5, 0.2);
  // Schema renames, shuffled cells and out-of-range stats are all fatal.
  std::string bad_schema = t.to_json();
  const auto pos = bad_schema.find("uwbams-surrogate-v2");
  ASSERT_NE(pos, std::string::npos);
  bad_schema.replace(pos, 19, "uwbams-surrogate-v9");
  EXPECT_THROW(net::SurrogateTable::from_json(bad_schema),
               std::invalid_argument);

  std::string bad_prob = t.to_json();
  const auto ppos = bad_prob.find("\"p_fail\": 0");
  ASSERT_NE(ppos, std::string::npos);
  bad_prob.replace(ppos, 11, "\"p_fail\": 2");
  EXPECT_THROW(net::SurrogateTable::from_json(bad_prob),
               std::invalid_argument);

  EXPECT_THROW(net::SurrogateTable::from_json("{\"schema\": \"x\"}"),
               std::invalid_argument);
  EXPECT_THROW(net::SurrogateTable::from_json("not json"), base::JsonError);
}

TEST(Surrogate, LookupSelectsNearestCellAndClamps) {
  net::SurrogateTable t = synthetic_table(0.0, 0.1);
  // Tag each cell with a recognizable bias = range + dppm/100.
  for (std::size_t i = 0; i < t.cell_count(); ++i) {
    auto& c = t.cell_at(i);
    c.bias_m = c.range_m + c.dppm / 100.0 + c.channel_class * 1000.0;
  }
  EXPECT_EQ(t.lookup(6.4, 8e-19, 0.0, 0.0).bias_m, 6.0);
  EXPECT_EQ(t.lookup(7.6, 8e-19, 0.0, 0.0).bias_m, 9.0);
  EXPECT_EQ(t.lookup(0.1, 8e-19, 0.0, 0.0).bias_m, 3.0);    // clamped low
  EXPECT_EQ(t.lookup(100.0, 8e-19, 0.0, 0.0).bias_m, 12.0); // clamped high
  EXPECT_EQ(t.lookup(6.0, 8e-19, 35.0, 0.0).bias_m, 6.4);   // dppm axis
  EXPECT_EQ(t.lookup(6.0, 8e-19, -35.0, 0.0).bias_m, 6.4);  // |dppm| symmetric
  // Channel-class axis: nearest code, clamped like every other axis.
  EXPECT_EQ(t.lookup(6.0, 8e-19, 0.0, 1.0).bias_m, 1006.0);
  EXPECT_EQ(t.lookup(6.0, 8e-19, 0.0, 3.0).bias_m, 1006.0);  // clamped
}

TEST(Surrogate, DrawMatchesCellStatistics) {
  const net::SurrogateTable t = synthetic_table(1.0, 0.25, 0.1, 0.0);
  base::Rng rng(42);
  int ok = 0;
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto d = t.draw(6.0, 8e-19, 0.0, 0.0, rng);
    if (!d.ok) continue;
    ++ok;
    sum += d.error_m;
    EXPECT_EQ(d.distance_m, 6.0 + d.error_m);
  }
  const double fail_rate = 1.0 - static_cast<double>(ok) / n;
  EXPECT_NEAR(fail_rate, 0.1, 0.03);
  EXPECT_NEAR(sum / ok, 1.0, 0.05);

  const net::SurrogateTable dead = synthetic_table(0.0, 0.1, 1.0);
  base::Rng rng2(43);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(dead.draw(6.0, 8e-19, 0.0, 0.0, rng2).ok);
}

TEST(Surrogate, ConstructorRejectsBadAxes) {
  EXPECT_THROW(net::SurrogateTable({}, {1e-19}, {0.0}, {0.0}, 4.8, 1, 4),
               std::invalid_argument);
  EXPECT_THROW(
      net::SurrogateTable({5.0, 5.0}, {1e-19}, {0.0}, {0.0}, 4.8, 1, 4),
      std::invalid_argument);
  EXPECT_THROW(net::SurrogateTable({5.0}, {1e-19}, {0.0}, {0.0}, -1.0, 1, 4),
               std::invalid_argument);
  EXPECT_THROW(net::SurrogateTable({5.0}, {1e-19}, {0.0}, {}, 4.8, 1, 4),
               std::invalid_argument);
  EXPECT_THROW(
      net::SurrogateTable({5.0}, {1e-19}, {0.0}, {1.0, 0.0}, 4.8, 1, 4),
      std::invalid_argument);
}

// ------------------------------------------------ calibration determinism

TEST(Calibrate, BitIdenticalAcrossJobsAndMatchesSerial) {
  const auto cal = tiny_calibration();
  const auto fact = ideal_factory();
  const base::ParallelRunner pool1(1);
  const base::ParallelRunner pool8(8);
  const auto serial = net::calibrate_surrogate(cal, fact, nullptr);
  const auto j1 = net::calibrate_surrogate(cal, fact, &pool1);
  const auto j8 = net::calibrate_surrogate(cal, fact, &pool8);
  EXPECT_TRUE(serial == j1);
  EXPECT_TRUE(serial == j8);
  EXPECT_EQ(j1.to_json(), j8.to_json());  // artifact is byte-identical too
}

// ------------------------------------- surrogate vs full physics (held out)

TEST(Calibrate, HeldOutValidationAgreesWithFullPhysics) {
  // Two ranges, one cell row each: enough statistics to check the bias CI
  // and the rate bounds while staying affordable (~30 full exchanges).
  net::CalibrationConfig cal;
  cal.twr.sys.dt = 0.2e-9;
  cal.ranges_m = {5.0, 9.0};
  cal.noise_psd = {8e-19};
  cal.dppm = {0.0};
  cal.samples_per_cell = 10;
  cal.seed = 21;
  const auto fact = ideal_factory();
  const base::ParallelRunner pool(8);

  const auto table = net::calibrate_surrogate(cal, fact, &pool);
  const auto report = net::validate_surrogate(table, cal, 6, fact, &pool);

  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_GE(report.checked, 1);
  // The held-out seeds are disjoint from calibration, so agreement here is
  // a genuine statistical match, not seed reuse.
  EXPECT_EQ(report.passed, report.checked) << "surrogate drifted from the "
                                              "full-physics engine";
  for (const auto& v : report.cells) {
    if (!v.checked) continue;
    EXPECT_LE(v.bias_delta_m, v.bias_bound_m);
  }
  // The fitted cells must capture the leading-edge latch physics: the CM1
  // energy detector latches late, never early, so the inlier bias of a
  // mostly-acquiring cell cannot be meaningfully negative.
  for (const auto& c : table.cells()) {
    if (c.ok - c.outliers < 4) continue;
    EXPECT_GT(c.bias_m, -0.5);
  }
  // Validation must also be deterministic across worker counts.
  const auto report_j1 = net::validate_surrogate(table, cal, 6, fact, nullptr);
  ASSERT_EQ(report_j1.cells.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report_j1.cells[i].held_bias_m, report.cells[i].held_bias_m);
    EXPECT_EQ(report_j1.cells[i].ok, report.cells[i].ok);
  }
}

// ---------------------------------------------------------------- mobility

TEST(Mobility, StaysInsideAreaAndIsDeterministic) {
  const net::MobilityConfig cfg{net::MobilityKind::kWaypoint, 2.0, 30.0};
  net::MobilityModel a(cfg, 8, 99);
  net::MobilityModel b(cfg, 8, 99);
  std::vector<double> xa(8, 15.0), ya(8, 15.0), xb(8, 15.0), yb(8, 15.0);
  for (int step = 0; step < 50; ++step) {
    for (std::size_t t = 0; t < 8; ++t) {
      a.advance(t, 1.0, &xa[t], &ya[t]);
      b.advance(t, 1.0, &xb[t], &yb[t]);
      EXPECT_GE(xa[t], 0.0);
      EXPECT_LE(xa[t], 30.0);
      EXPECT_GE(ya[t], 0.0);
      EXPECT_LE(ya[t], 30.0);
      EXPECT_EQ(xa[t], xb[t]);
      EXPECT_EQ(ya[t], yb[t]);
    }
  }
  // Tags actually move.
  EXPECT_NE(xa[0], 15.0);

  // Velocity model: specular bounce keeps tags inside too.
  const net::MobilityConfig vcfg{net::MobilityKind::kVelocity, 3.0, 20.0};
  net::MobilityModel v(vcfg, 4, 7);
  std::vector<double> x(4, 10.0), y(4, 10.0);
  for (int step = 0; step < 40; ++step)
    for (std::size_t t = 0; t < 4; ++t) {
      v.advance(t, 1.0, &x[t], &y[t]);
      EXPECT_GE(x[t], 0.0);
      EXPECT_LE(x[t], 20.0);
      EXPECT_GE(y[t], 0.0);
      EXPECT_LE(y[t], 20.0);
    }
}

// Trajectories pinned bit for bit: a change to how the model holds or forks
// its per-tag streams must not move a single draw.
TEST(Mobility, TrajectoriesKeepTheirDraws) {
  struct Pin {
    int round;
    std::size_t tag;
    double x, y;
  };
  const auto walk = [](const net::MobilityConfig& cfg, std::uint64_t seed,
                       std::vector<double> x, std::vector<double> y,
                       double dt_s, const std::vector<Pin>& pins) {
    net::MobilityModel m(cfg, x.size(), seed);
    for (int r = 0; r < 6; ++r)
      for (std::size_t t = 0; t < x.size(); ++t) {
        m.advance(t, dt_s, &x[t], &y[t]);
        for (const Pin& p : pins)
          if (p.round == r && p.tag == t) {
            EXPECT_EQ(x[t], p.x) << "round " << r << ", tag " << t;
            EXPECT_EQ(y[t], p.y) << "round " << r << ", tag " << t;
          }
      }
  };
  // Velocity tags 1 and 2 start near a wall and bounce.
  walk({net::MobilityKind::kVelocity, 3.0, 20.0}, 7, {10.0, 2.0, 18.5},
       {10.0, 19.0, 1.0}, 1.0,
       {{0, 0, 0x1.102863e37e6fbp+3, 0x1.933ab5649f2fep+3},
        {0, 1, 0x1.40f9e6edf88b9p+1, 0x1.20b130b00cdb9p+4},
        {0, 2, 0x1.0ad82b0a20dfbp+4, 0x1.621767fd61f2p+0},
        {5, 0, 0x1.0792baa7b4f1p+0, 0x1.cc9fbfa444e0cp+3},
        {5, 1, 0x1.42edb4c9e9a2ap+2, 0x1.a1392102692acp+1},
        {5, 2, 0x1.e44408f314f7ep+2, 0x1.a9918dfe09758p+3}});
  walk({net::MobilityKind::kWaypoint, 2.0, 30.0}, 99, {15.0, 15.0, 15.0},
       {15.0, 15.0, 15.0}, 4.0,
       {{0, 0, 0x1.808ff6e3e56abp+3, 0x1.66c5c4a1b5139p+4},
        {0, 1, 0x1.93a0b27fc3dfbp+3, 0x1.d7509efc02827p+2},
        {0, 2, 0x1.66008c05a8914p+4, 0x1.2197e2bf3d951p+4},
        {5, 0, 0x1.1013267053495p+4, 0x1.becda7f8345f4p+3},
        {5, 1, 0x1.ec152cd84020ap+3, 0x1.302d98d8d4d86p+4},
        {5, 2, 0x1.5f635c2685aep+3, 0x1.7308aaac52bc1p+3}});
}

// An infinite step (from the time step, the speed or the engine's round
// period) used to spin reflect() or the waypoint walk forever. Non-finite
// or out-of-range values are rejected up front, and a huge finite velocity
// step folds into the area in constant time.
TEST(Mobility, RejectsStepsThatNeverEnd) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using net::MobilityKind;
  for (const MobilityKind kind :
       {MobilityKind::kStatic, MobilityKind::kVelocity,
        MobilityKind::kWaypoint}) {
    for (const double speed : {inf, -inf, nan, -1.0})
      EXPECT_THROW(net::MobilityModel({kind, speed, 20.0}, 1, 7),
                   std::invalid_argument);
    for (const double area : {inf, nan, 0.0, -5.0})
      EXPECT_THROW(net::MobilityModel({kind, 1.0, area}, 1, 7),
                   std::invalid_argument);
    net::MobilityModel m({kind, 20.0, 20.0}, 1, 7);
    double x = 10.0, y = 10.0;
    for (const double dt : {inf, -inf, nan})
      EXPECT_THROW(m.advance(0, dt, &x, &y), std::invalid_argument);
    EXPECT_EQ(x, 10.0);
    EXPECT_EQ(y, 10.0);
  }
  net::MobilityModel v({MobilityKind::kVelocity, 1e300, 20.0}, 1, 7);
  double x = 10.0, y = 10.0;
  EXPECT_THROW(v.advance(0, 1e10, &x, &y), std::invalid_argument);
  v.advance(0, 1.0, &x, &y);
  EXPECT_GE(x, 0.0);
  EXPECT_LE(x, 20.0);
  EXPECT_GE(y, 0.0);
  EXPECT_LE(y, 20.0);

  const auto table = synthetic_table(0.0, 0.1);
  for (const double period : {inf, nan, 0.0}) {
    net::NetScaleConfig cfg;
    cfg.mobility = MobilityKind::kWaypoint;
    cfg.round_period_s = period;
    EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  }
  for (const double speed : {inf, nan, -1.0}) {
    net::NetScaleConfig cfg;
    cfg.speed_mps = speed;
    EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  }
  net::NetScaleConfig cfg;
  cfg.area_m = inf;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
}

// ------------------------------------------------------------------ engine

TEST(Engine, ValidatesConfig) {
  const auto table = synthetic_table(0.0, 0.1);
  net::NetScaleConfig cfg;
  cfg.anchor_grid = 1;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  cfg = {};
  cfg.tag_count = 0;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  cfg = {};
  cfg.max_links_per_tag = 2;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  cfg = {};
  cfg.rounds = 0;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
  EXPECT_THROW(net::NetScaleEngine({}, net::SurrogateTable{}),
               std::invalid_argument);
}

namespace {

net::NetScaleConfig engine_config() {
  net::NetScaleConfig cfg;
  cfg.seed = 5;
  cfg.area_m = 40.0;
  cfg.anchor_grid = 6;
  cfg.tag_count = 50;
  cfg.rounds = 3;
  cfg.ppm_spread = 20.0;
  return cfg;
}

void expect_results_equal(const net::NetScaleResult& a,
                          const net::NetScaleResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  ASSERT_EQ(a.tag_rounds.size(), b.tag_rounds.size());
  EXPECT_EQ(a.overall_rmse_m, b.overall_rmse_m);
  EXPECT_EQ(a.overall_availability, b.overall_availability);
  EXPECT_EQ(a.total_draws, b.total_draws);
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].rmse_m, b.rounds[r].rmse_m);
    EXPECT_EQ(a.rounds[r].tags_solved, b.rounds[r].tags_solved);
    EXPECT_EQ(a.rounds[r].anchors_dark, b.rounds[r].anchors_dark);
    EXPECT_EQ(a.rounds[r].bias_est_m, b.rounds[r].bias_est_m);
    ASSERT_EQ(a.tag_rounds[r].size(), b.tag_rounds[r].size());
    for (std::size_t t = 0; t < a.tag_rounds[r].size(); ++t) {
      const auto& x = a.tag_rounds[r][t];
      const auto& y = b.tag_rounds[r][t];
      EXPECT_EQ(x.true_x, y.true_x);
      EXPECT_EQ(x.true_y, y.true_y);
      EXPECT_EQ(x.est_x, y.est_x);
      EXPECT_EQ(x.est_y, y.est_y);
      EXPECT_EQ(x.err_m, y.err_m);
      EXPECT_EQ(x.links, y.links);
      EXPECT_EQ(x.solved, y.solved);
    }
  }
}

}  // namespace

TEST(Engine, BitIdenticalAcrossJobsAndReruns) {
  const auto table = synthetic_table(0.7, 0.3, 0.05, 0.02);
  // Exercise every stochastic subsystem: mobility, dropout, loss, outliers.
  net::NetScaleConfig cfg = engine_config();
  cfg.mobility = net::MobilityKind::kWaypoint;
  cfg.packet_loss = 0.05;
  cfg.anchor_dropout = 0.1;
  cfg.dropout_rounds = 1;

  const base::ParallelRunner pool1(1);
  const base::ParallelRunner pool8(8);
  net::NetScaleEngine e_serial(cfg, table);
  net::NetScaleEngine e1(cfg, table);
  net::NetScaleEngine e8(cfg, table);
  net::NetScaleEngine e8b(cfg, table);
  const auto r_serial = e_serial.run(nullptr);
  const auto r1 = e1.run(&pool1);
  const auto r8 = e8.run(&pool8);
  const auto r8b = e8b.run(&pool8);
  expect_results_equal(r_serial, r1);
  expect_results_equal(r1, r8);
  expect_results_equal(r8, r8b);  // re-run on a fresh engine
}

TEST(Engine, ExactTableLocalizesExactly) {
  // Zero bias, zero spread, no failures: every draw returns the true
  // distance, so every tag must localize to numerical precision.
  const auto table = synthetic_table(0.0, 0.0);
  net::NetScaleEngine eng(engine_config(), table);
  const auto res = eng.run(nullptr);
  EXPECT_EQ(res.overall_availability, 1.0);
  EXPECT_LT(res.overall_rmse_m, 1e-6);
}

TEST(Engine, MultiExchangeMedianTightensTheFix) {
  // Same network, 1 vs 3 exchanges per link: the link estimate becomes
  // the median of 3 draws, shrinking the effective spread, so the
  // network RMSE must drop and the draw bookkeeping must triple.
  const auto table = synthetic_table(0.0, 0.8);
  net::NetScaleConfig cfg = engine_config();
  net::NetScaleEngine one(cfg, table);
  const auto r1 = one.run(nullptr);
  cfg.exchanges_per_link = 3;
  net::NetScaleEngine three(cfg, table);
  const auto r3 = three.run(nullptr);
  EXPECT_EQ(r3.overall_availability, 1.0);
  EXPECT_LT(r3.overall_rmse_m, r1.overall_rmse_m);
  EXPECT_EQ(r3.total_draws, 3 * r1.total_draws);

  cfg.exchanges_per_link = 0;
  EXPECT_THROW(net::NetScaleEngine(cfg, table), std::invalid_argument);
}

TEST(Engine, PerLinkCellBiasIsCalibratedOut) {
  // A large *calibrated* bias (it is in the table) with a small spread:
  // every link subtracts its own cell's bias_m, so the network localizes
  // accurately with no anchor-anchor help at all, and the residual
  // common-bias estimate stays near zero.
  const auto table = synthetic_table(1.2, 0.05);
  net::NetScaleConfig cfg = engine_config();
  cfg.bias_links_per_round = 0;
  net::NetScaleEngine eng(cfg, table);
  const auto res = eng.run(nullptr);
  EXPECT_EQ(res.overall_availability, 1.0);
  EXPECT_LT(res.overall_rmse_m, 0.4);
  EXPECT_EQ(res.rounds.back().bias_est_m, 0.0);
}

TEST(Engine, AnchorBiasCalibrationRemovesUncalibratedBias) {
  // A deployment bias the surrogate calibration never saw (uncal_bias_m
  // models post-installation antenna/cable delay): the anchor-anchor
  // residual calibration must estimate and subtract it, leaving a small
  // RMSE. With it left in, every range is ~1.2 m long and the solve is
  // off by far more than the spread.
  const auto table = synthetic_table(0.3, 0.05);
  net::NetScaleConfig cfg = engine_config();
  cfg.uncal_bias_m = 1.2;
  net::NetScaleEngine eng(cfg, table);
  const auto res = eng.run(nullptr);
  EXPECT_EQ(res.overall_availability, 1.0);
  EXPECT_LT(res.overall_rmse_m, 0.4);
  // The per-round estimate converges on the injected deployment bias.
  EXPECT_NEAR(res.rounds.back().bias_est_m, 1.2, 0.1);

  // Same network with the residual calibration disabled: visibly worse.
  net::NetScaleConfig no_cal = cfg;
  no_cal.bias_links_per_round = 0;
  net::NetScaleEngine eng2(no_cal, table);
  const auto res2 = eng2.run(nullptr);
  EXPECT_GT(res2.overall_rmse_m, res.overall_rmse_m);
  EXPECT_GT(res2.overall_rmse_m, 0.8);
}

TEST(Engine, FullDropoutKillsAvailability) {
  const auto table = synthetic_table(0.0, 0.1);
  net::NetScaleConfig cfg = engine_config();
  cfg.anchor_dropout = 1.0;
  cfg.dropout_rounds = 100;  // never recover within the run
  net::NetScaleEngine eng(cfg, table);
  const auto res = eng.run(nullptr);
  EXPECT_EQ(res.overall_availability, 0.0);
  for (const auto& st : res.rounds)
    EXPECT_EQ(st.anchors_dark, 36);  // every 6x6 grid anchor dark
}

TEST(Engine, DropoutRecoveryRestoresAnchors) {
  const auto table = synthetic_table(0.0, 0.1);
  net::NetScaleConfig cfg = engine_config();
  cfg.rounds = 6;
  cfg.anchor_dropout = 0.5;
  cfg.dropout_rounds = 1;  // drop for one round, recover the next
  net::NetScaleEngine eng(cfg, table);
  const auto res = eng.run(nullptr);
  // With recovery every round, the network never collapses entirely.
  int max_dark = 0;
  for (const auto& st : res.rounds) max_dark = std::max(max_dark, st.anchors_dark);
  EXPECT_GT(max_dark, 0);               // faults fired
  EXPECT_LT(max_dark, 36);              // but recovery kept anchors cycling
  EXPECT_GT(res.overall_availability, 0.3);
}

TEST(Engine, OutlierDrawsAreTrimmedByTheSolver) {
  // 15% wrong-slot outliers at ~9.6 m: the solver's robust re-solve must
  // keep the RMSE near the inlier spread, far below the outlier scale.
  const auto table = synthetic_table(0.3, 0.2, 0.0, 0.15);
  net::NetScaleEngine eng(engine_config(), table);
  const auto res = eng.run(nullptr);
  EXPECT_GT(res.overall_availability, 0.95);
  EXPECT_LT(res.overall_rmse_m, 1.5);
}

// --------------------------------------------------------- anchor window

namespace {

// The reference for anchors_in_range: every anchor of the lattice, same
// distance test, same (distance, index) order.
std::vector<net::AnchorCandidate> all_anchors_in_range(
    const net::NetScaleConfig& cfg,
    const std::vector<uwb::NodePosition>& anchors,
    const std::vector<bool>& dark, const uwb::NodePosition& pos) {
  std::vector<net::AnchorCandidate> cand;
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    if (dark[a]) continue;
    const double d = std::hypot(pos.x - anchors[a].x, pos.y - anchors[a].y);
    if (d <= cfg.max_range_m) cand.push_back({d, a});
  }
  std::sort(cand.begin(), cand.end());
  return cand;
}

}  // namespace

TEST(AnchorWindow, MatchesTheFullLatticeScan) {
  const auto table = synthetic_table(0.0, 0.1);
  struct Case {
    double area_m;
    int grid;
    double range_m;
  };
  const Case cases[] = {
      {40.0, 6, 12.0},   // the engine defaults
      {30.0, 6, 10.0},   // range an exact multiple of the 5 m spacing
      {40.0, 6, 7.3},    // range not a multiple of the spacing
      {40.0, 6, 100.0},  // range beyond the whole area
      {40.0, 2, 12.0},   // the smallest lattice
      {10.0, 2, 3.1},    // smallest lattice, short range
      {210.0, 42, 12.0},  // the 20k-node deployment
  };
  base::Rng rng(2024);
  for (const Case& c : cases) {
    net::NetScaleConfig cfg;
    cfg.area_m = c.area_m;
    cfg.anchor_grid = c.grid;
    cfg.max_range_m = c.range_m;
    const net::NetScaleEngine eng(cfg, table);
    const std::vector<uwb::NodePosition>& anchors = eng.anchors();

    // Area corners and edge midpoints, every anchor, points at exactly the
    // range from an anchor along each axis, then seeded positions over
    // the area and a margin around it.
    const double a = c.area_m;
    std::vector<uwb::NodePosition> probes = {
        {0.0, 0.0},   {a, 0.0},     {0.0, a},     {a, a},
        {a / 2, 0.0}, {0.0, a / 2}, {a, a / 2},   {a / 2, a}};
    for (const auto& p : anchors) {
      probes.push_back(p);
      probes.push_back({p.x + c.range_m, p.y});
      probes.push_back({p.x - c.range_m, p.y});
      probes.push_back({p.x, p.y + c.range_m});
      probes.push_back({p.x, p.y - c.range_m});
    }
    for (int i = 0; i < 10000; ++i)
      probes.push_back({rng.uniform(-0.05 * a, 1.05 * a),
                        rng.uniform(-0.05 * a, 1.05 * a)});

    // All anchors alive, then about a quarter dark.
    std::vector<bool> dark(anchors.size(), false);
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1)
        for (std::size_t k = 0; k < dark.size(); ++k)
          dark[k] = rng.uniform() < 0.25;
      int mismatches = 0;
      std::size_t found = 0;
      for (const auto& p : probes) {
        const auto got = net::anchors_in_range(cfg, anchors, dark, p);
        const auto want = all_anchors_in_range(cfg, anchors, dark, p);
        mismatches += got != want ? 1 : 0;
        found += got.size();
      }
      EXPECT_EQ(mismatches, 0) << "area " << a << ", grid " << c.grid
                               << ", range " << c.range_m << ", pass "
                               << pass;
      EXPECT_GT(found, 0u);
    }
  }
}
