// Integration tests of the two-way ranging engine (Table 2 machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "base/parallel.hpp"
#include "core/block_variant.hpp"
#include "uwb/channel.hpp"
#include "uwb/ranging.hpp"

namespace {

using namespace uwbams;

uwb::TwrConfig fast_cfg() {
  uwb::TwrConfig cfg;
  cfg.sys.dt = 0.2e-9;
  return cfg;
}

TEST(Twr, SingleExchangeIdealIntegrator) {
  auto cfg = fast_cfg();
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto it = twr.run_iteration(/*channel_seed=*/1, /*noise_seed=*/18);
  ASSERT_TRUE(it.ok);
  EXPECT_NEAR(it.distance_estimate, 9.9, 1.5);
  EXPECT_LT(std::abs(it.toa_bias_a), 8e-9);
  EXPECT_LT(std::abs(it.toa_bias_b), 8e-9);
}

TEST(Twr, ReproducibleWithSameSeeds) {
  auto cfg = fast_cfg();
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto a = twr.run_iteration(3, 5);
  const auto b = twr.run_iteration(3, 5);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_DOUBLE_EQ(a.distance_estimate, b.distance_estimate);
}

TEST(Twr, FixedChannelStatsAreTight) {
  // Paper mode: one CM1 realization, noise re-drawn -> small spread.
  // The realization is drawn from the derive_seed channel sub-stream (the
  // PR-5 re-seeding; an intentional Table-2 baseline change): seed 2 gives
  // a representative LOS realization — per-realization leading-edge bias
  // can reach several meters on unlucky dispersed draws, which is physics,
  // not spread.
  auto cfg = fast_cfg();
  cfg.sys.seed = 2;
  cfg.iterations = 4;
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto res = twr.run();
  EXPECT_EQ(res.failures, 0);
  EXPECT_NEAR(res.mean(), 9.9, 1.2);
  EXPECT_LT(res.stddev(), 0.5);
}

TEST(Twr, DistanceScalesWithTruth) {
  auto cfg = fast_cfg();
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
  cfg.sys.distance = 6.0;
  uwb::TwoWayRanging twr6(cfg, fact);
  const auto d6 = twr6.run_iteration(2, 31);
  cfg.sys.distance = 12.0;
  uwb::TwoWayRanging twr12(cfg, fact);
  const auto d12 = twr12.run_iteration(2, 31);
  ASSERT_TRUE(d6.ok);
  ASSERT_TRUE(d12.ok);
  EXPECT_NEAR(d12.distance_estimate - d6.distance_estimate, 6.0, 1.5);
}

TEST(Twr, ShardedRunIsBitIdenticalToSerial) {
  // table2_twr fans iterations across the pool with the per-iteration
  // seeds fixed up front (TwrConfig::channel_seed / noise_seed, both
  // derive_seed sub-streams): any job count must reproduce the serial
  // run() loop bit for bit.
  auto cfg = fast_cfg();
  cfg.sys.seed = 2;
  cfg.iterations = 4;
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto serial = twr.run();

  base::ParallelRunner pool(8);
  const auto sharded = pool.map<uwb::TwrIteration>(
      static_cast<std::size_t>(cfg.iterations), [&](std::size_t i) {
        const int rep = static_cast<int>(i);
        uwb::TwoWayRanging worker(
            cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                               cfg.sys));
        return worker.run_iteration(cfg.channel_seed(rep),
                                    cfg.noise_seed(rep));
      });
  ASSERT_EQ(serial.iterations.size(), sharded.size());
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(serial.iterations[i].ok, sharded[i].ok);
    EXPECT_EQ(serial.iterations[i].distance_estimate,
              sharded[i].distance_estimate);
    EXPECT_EQ(serial.iterations[i].toa_bias_a, sharded[i].toa_bias_a);
    EXPECT_EQ(serial.iterations[i].toa_bias_b, sharded[i].toa_bias_b);
  }
}

// Pinned exchange results. run_iteration ends an exchange once both sides
// have synced and retires the responder's receive path at its own sync;
// these bit patterns were captured from the full-length exchange (every
// block stepped to t_end), so they hold the early exit to exactness. The
// cases cover each channel type, nonideal clocks, interference blocks on
// both receive paths, and an exchange that fails acquisition and runs to
// t_end.
std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

struct TwrPin {
  const char* name;
  std::function<void(uwb::TwrConfig&)> setup;
  core::IntegratorKind kind;
  bool ok;
  const char* distance_estimate;
  const char* distance_raw;
  const char* toa_bias_a;
  const char* toa_bias_b;
};

TEST(Twr, ExchangeResultsPinnedBitForBit) {
  const TwrPin pins[] = {
      {"awgn", [](uwb::TwrConfig& c) { c.sys.multipath = false; },
       core::IntegratorKind::kIdeal, true,
       "0x1.369cf2cf199dcp+3", "0x1.369cf2cf199dcp+3",
       "-0x1.f8b6851ace4p-32", "-0x1.c8bcbc67c72p-31"},
      {"cm1", [](uwb::TwrConfig&) {}, core::IntegratorKind::kIdeal, true,
       "0x1.de0abc13afa92p+3", "0x1.de0abc13afa92p+3",
       "0x1.6a89732463f2p-28", "0x1.e6df65fb921c8p-26"},
      {"cm1_behavioral", [](uwb::TwrConfig&) {},
       core::IntegratorKind::kBehavioral, true,
       "0x1.deb4b1d5fe5ffp+3", "0x1.deb4b1d5fe5ffp+3",
       "0x1.6fc88e70d0f2p-28", "0x1.e7f05a75959c8p-26"},
      {"cm3",
       [](uwb::TwrConfig& c) {
         uwb::apply_channel_class(&c.sys, uwb::ChannelClass::kCm3);
       },
       core::IntegratorKind::kIdeal, true,
       "0x1.3792a842ecfe4p+3", "0x1.3792a842ecfe4p+3",
       "-0x1.2b071c5adee8p-30", "-0x1.08a8ae39dp-39"},
      {"clocks",
       [](uwb::TwrConfig& c) {
         c.processing_time = 40e-6;
         c.clock_a.ppm = 12.0;
         c.clock_a.drift_ppm_per_s = 3e3;
         c.clock_a.jitter_rms = 20e-12;
         c.clock_b.ppm = -17.0;
         c.clock_b.drift_ppm_per_s = -2e3;
         c.clock_b.jitter_rms = 35e-12;
         c.compensate_ppm = true;
       },
       core::IntegratorKind::kIdeal, true,
       "0x1.e0b03cb4e5603p+3", "0x1.e640a8b61770cp+3",
       "0x1.fbf983783ec8p-28", "0x1.dfebabbc3f7c8p-26"},
      {"interference",
       [](uwb::TwrConfig& c) {
         c.sys.interference.cw_amplitude = 1e-4;
         c.sys.interference.uwb_count = 1;
         c.sys.interference.uwb_amplitude = 1e-4;
       },
       core::IntegratorKind::kIdeal, true,
       "0x1.93c74e260ffa9p+3", "0x1.93c74e260ffa9p+3",
       "0x1.87b349b097f2p-28", "0x1.ab328d75dd4ep-27"},
      {"out_of_range", [](uwb::TwrConfig& c) { c.sys.distance = 400.0; },
       core::IntegratorKind::kIdeal, false,
       "-0x1p+0", "-0x1p+0",
       "0x0p+0", "0x0p+0"},
  };
  for (const TwrPin& pin : pins) {
    auto cfg = fast_cfg();
    cfg.sys.seed = 5;
    pin.setup(cfg);
    const auto it = uwb::run_twr_exchange(
        cfg, core::make_integrator_factory(pin.kind, cfg.sys), 0);
    EXPECT_EQ(it.ok, pin.ok) << pin.name;
    EXPECT_EQ(hex(it.distance_estimate), pin.distance_estimate) << pin.name;
    EXPECT_EQ(hex(it.distance_raw), pin.distance_raw) << pin.name;
    EXPECT_EQ(hex(it.toa_bias_a), pin.toa_bias_a) << pin.name;
    EXPECT_EQ(hex(it.toa_bias_b), pin.toa_bias_b) << pin.name;
  }
}

TEST(TwrResult, StatsHelpers) {
  uwb::TwrResult r;
  for (double d : {10.0, 10.2, 9.8}) {
    uwb::TwrIteration it;
    it.ok = true;
    it.distance_estimate = d;
    r.iterations.push_back(it);
  }
  uwb::TwrIteration bad;  // failures excluded from the statistics
  r.iterations.push_back(bad);
  r.failures = 1;
  EXPECT_NEAR(r.mean(), 10.0, 1e-12);
  EXPECT_NEAR(r.variance(), 0.04, 1e-12);
  EXPECT_NEAR(r.stddev(), 0.2, 1e-12);
}

}  // namespace
