// Tests of the clock-nonideality layer (uwb/clock.hpp) and the multi-node
// ranging network (uwb/network.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/parallel.hpp"
#include "base/random.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "uwb/clock.hpp"
#include "uwb/network.hpp"
#include "uwb/ranging.hpp"

namespace {

using namespace uwbams;

// ---------------------------------------------------------------- ClockModel

TEST(ClockModel, IdentityIsExact) {
  uwb::ClockModel ideal;
  EXPECT_TRUE(ideal.is_identity());
  for (double t : {0.0, 1e-9, 12.345e-6, 1.0, -3.0e-6}) {
    EXPECT_EQ(ideal.local_time(t), t);   // bit-exact, not just NEAR
    EXPECT_EQ(ideal.true_time(t), t);
    EXPECT_EQ(ideal.event_true_time(t), t);
    EXPECT_EQ(ideal.jitter_at(t), 0.0);
  }
}

TEST(ClockModel, PpmOffsetMapsBothWays) {
  uwb::ClockConfig cfg;
  cfg.ppm = 40.0;
  uwb::ClockModel clk(cfg, /*base_seed=*/7);
  EXPECT_FALSE(clk.is_identity());
  const double t = 100e-6;
  // +40 ppm: the local clock runs fast.
  EXPECT_NEAR(clk.local_time(t) - t, 40e-6 * t, 1e-18);
  // Round trip to double precision.
  EXPECT_NEAR(clk.true_time(clk.local_time(t)), t, 1e-18);
}

TEST(ClockModel, DriftAndOffsetRoundTrip) {
  uwb::ClockConfig cfg;
  cfg.ppm = -25.0;
  cfg.drift_ppm_per_s = 3.0;
  cfg.offset = 2e-9;
  uwb::ClockModel clk(cfg, 7);
  for (double t : {1e-6, 50e-6, 0.3}) {
    const double tau = clk.local_time(t);
    EXPECT_NEAR(clk.true_time(tau), t, 1e-15);
  }
}

TEST(ClockModel, JitterIsDeterministicPerNodeAndSeed) {
  uwb::ClockConfig cfg;
  cfg.jitter_rms = 10e-12;
  cfg.node_id = 0;
  uwb::ClockConfig cfg1 = cfg;
  cfg1.node_id = 1;
  uwb::ClockModel a(cfg, 42), a2(cfg, 42), b(cfg1, 42), c(cfg, 43);
  const double t = 12.5e-6;
  // Same (seed, node, edge) -> same draw; different node or seed -> an
  // independent stream.
  EXPECT_EQ(a.jitter_at(t), a2.jitter_at(t));
  EXPECT_NE(a.jitter_at(t), b.jitter_at(t));
  EXPECT_NE(a.jitter_at(t), c.jitter_at(t));
  // Magnitude is jitter-scale, and distinct edges draw independently.
  EXPECT_LT(std::abs(a.jitter_at(t)), 10 * cfg.jitter_rms);
  EXPECT_NE(a.jitter_at(t), a.jitter_at(t + 1e-9));
}

// ------------------------------------------------- clock-threaded TWR engine

uwb::TwrConfig fast_twr() {
  uwb::TwrConfig cfg;
  cfg.sys.dt = 0.2e-9;
  return cfg;
}

TEST(TwrClock, ZeroNonidealityIsBitExactIdentity) {
  // The nominal ClockModel must be invisible: an explicit all-zero
  // ClockConfig reproduces the default-config estimate bit for bit (the
  // pin that guarantees the historical Table-2 path is unchanged).
  auto base = fast_twr();
  uwb::TwoWayRanging twr_default(
      base, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                          base.sys));
  const auto ref = twr_default.run_iteration(3, 5);

  auto cfg = fast_twr();
  cfg.clock_a = uwb::ClockConfig{};
  cfg.clock_b = uwb::ClockConfig{};
  uwb::TwoWayRanging twr_zero(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto zero = twr_zero.run_iteration(3, 5);
  ASSERT_TRUE(ref.ok);
  ASSERT_TRUE(zero.ok);
  EXPECT_EQ(ref.distance_estimate, zero.distance_estimate);
  EXPECT_EQ(ref.toa_bias_a, zero.toa_bias_a);
  EXPECT_EQ(ref.toa_bias_b, zero.toa_bias_b);
}

TEST(TwrClock, ResponderPpmOffsetBiasesWithPredictedSign) {
  // bias = 0.5 c PT (delta_a - delta_b): a *fast* responder crystal
  // (+ppm on B) shortens the measured RTT -> underestimated distance, and
  // symmetrically for a slow one. A long PT makes the term dominate the
  // (seed-shared) estimator jitter.
  auto cfg = fast_twr();
  cfg.processing_time = 40e-6;
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);

  cfg.clock_b.ppm = 150.0;
  uwb::TwoWayRanging fast_b(cfg, fact);
  const auto est_fast = fast_b.run_iteration(3, 5);
  cfg.clock_b.ppm = -150.0;
  uwb::TwoWayRanging slow_b(cfg, fact);
  const auto est_slow = slow_b.run_iteration(3, 5);
  ASSERT_TRUE(est_fast.ok);
  ASSERT_TRUE(est_slow.ok);

  const double predicted_split = 0.5 * units::speed_of_light *
                                 cfg.processing_time * 2.0 * 150e-6;
  const double split = est_slow.distance_raw - est_fast.distance_raw;
  EXPECT_GT(split, 0.0);  // slow B overestimates relative to fast B
  EXPECT_NEAR(split, predicted_split, 0.5 * predicted_split);
}

TEST(TwrClock, PpmCompensationRemovesTheBias) {
  auto cfg = fast_twr();
  cfg.processing_time = 40e-6;
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
  // Zero-ppm baseline with the same seeds: the estimator's own offset is
  // common-mode, so compensation quality is judged against it, not against
  // the true distance.
  uwb::TwoWayRanging ideal_clk(cfg, fact);
  const auto baseline = ideal_clk.run_iteration(3, 5);

  cfg.clock_b.ppm = 150.0;
  cfg.compensate_ppm = true;
  uwb::TwoWayRanging twr(cfg, fact);
  const auto it = twr.run_iteration(3, 5);
  ASSERT_TRUE(baseline.ok);
  ASSERT_TRUE(it.ok);

  const double bias_term =
      0.5 * units::speed_of_light * cfg.processing_time * 150e-6;
  // Raw and compensated straddle the bias term exactly.
  EXPECT_NEAR(it.distance_estimate - it.distance_raw, bias_term,
              1e-9 * bias_term + 1e-12);
  // The raw estimate carries most of the drift bias; the compensated one
  // lands back near the zero-ppm baseline.
  EXPECT_GT(std::abs(it.distance_raw - baseline.distance_estimate),
            0.5 * bias_term);
  // The residual is second-order: at 150 ppm the responder's windows also
  // drift ~ns across its acquisition, which moves the ToA estimate itself.
  EXPECT_LT(std::abs(it.distance_estimate - baseline.distance_estimate),
            0.4 * bias_term);
}

TEST(TwrClock, SurvivesJitterOffsetAndDrift) {
  // Realistic per-edge jitter, a start offset and drift must not crash the
  // exchange (a jitter draw can map an edge before the kernel's current
  // time; the controller clamps it to "fires immediately").
  auto cfg = fast_twr();
  cfg.clock_a.ppm = 12.0;
  cfg.clock_a.jitter_rms = 100e-12;
  cfg.clock_a.offset = 80e-9;
  cfg.clock_b.ppm = -9.0;
  cfg.clock_b.drift_ppm_per_s = 50.0;
  cfg.clock_b.jitter_rms = 100e-12;
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto it = twr.run_iteration(3, 5);
  ASSERT_TRUE(it.ok);
  EXPECT_NEAR(it.distance_estimate, cfg.sys.distance, 3.0);
}

// ------------------------------------------------------------ seed derivation

TEST(TwrSeeds, ChannelAndNoiseStreamsNeverCollide) {
  // The fixed-purpose derive_seed sub-streams keep channel and noise draws
  // independent for any (seed, iteration): across a grid of seeds and
  // iterations, no channel seed may equal any noise seed (the old additive
  // arithmetic aliased them across nearby seeds).
  std::set<std::uint64_t> channel, noise;
  for (std::uint64_t s = 1; s <= 40; ++s) {
    uwb::TwrConfig cfg;
    cfg.sys.seed = s;
    cfg.fresh_channel_per_iteration = true;
    for (int i = 0; i < 25; ++i) {
      channel.insert(cfg.channel_seed(i));
      noise.insert(cfg.noise_seed(i));
    }
  }
  EXPECT_EQ(channel.size(), 40u * 25u);
  EXPECT_EQ(noise.size(), 40u * 25u);
  for (const auto s : channel) EXPECT_EQ(noise.count(s), 0u);
}

TEST(TwrSeeds, FixedChannelModeKeepsOneRealizationPerSeed) {
  uwb::TwrConfig cfg;
  cfg.sys.seed = 9;
  cfg.fresh_channel_per_iteration = false;
  EXPECT_EQ(cfg.channel_seed(0), cfg.channel_seed(7));
  cfg.fresh_channel_per_iteration = true;
  EXPECT_NE(cfg.channel_seed(0), cfg.channel_seed(7));
}

// --------------------------------------------------------------- the network

uwb::IntegratorFactory network_factory(const uwb::NetworkConfig& cfg) {
  return core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
}

uwb::NetworkConfig fast_network(int nodes) {
  uwb::NetworkConfig cfg;
  cfg.sys.dt = 0.2e-9;
  cfg.sys.seed = 11;
  cfg.node_count = nodes;
  cfg.exchanges_per_pair = 1;
  return cfg;
}

TEST(RangingNetwork, RejectsUnderAnchoredConfigs) {
  // run() hands anchor_count to the position solver; configurations that
  // could only throw *after* paying for the simulation are rejected at
  // construction instead.
  auto cfg = fast_network(2);  // fewer nodes than the 3 default anchors
  EXPECT_THROW(uwb::RangingNetwork(cfg, network_factory(cfg)),
               std::invalid_argument);
  auto cfg2 = fast_network(4);
  cfg2.anchor_count = 2;  // not enough anchors for the 2-D gauge
  EXPECT_THROW(uwb::RangingNetwork(cfg2, network_factory(cfg2)),
               std::invalid_argument);
}

TEST(RangingNetwork, PairEnumerationCoversTheUpperTriangle) {
  auto cfg = fast_network(5);
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  ASSERT_EQ(net.pair_count(), 10);
  std::set<std::pair<int, int>> seen;
  for (int k = 0; k < net.pair_count(); ++k) {
    const auto [i, j] = net.pair_nodes(k);
    EXPECT_LT(i, j);
    EXPECT_GE(i, 0);
    EXPECT_LT(j, 5);
    seen.insert({i, j});
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RangingNetwork, NodeClocksAreDeterministicPerNodeId) {
  auto cfg = fast_network(6);
  cfg.ppm_spread = 20.0;
  uwb::RangingNetwork net1(cfg, network_factory(cfg));
  uwb::RangingNetwork net2(cfg, network_factory(cfg));
  ASSERT_EQ(net1.node_ppm().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net1.node_ppm()[i], net2.node_ppm()[i]);
    EXPECT_LE(std::abs(net1.node_ppm()[i]), 20.0);
  }
  // The draws actually spread (not all equal).
  EXPECT_NE(net1.node_ppm()[0], net1.node_ppm()[1]);
  // And move with the seed.
  auto cfg2 = cfg;
  cfg2.sys.seed = 12;
  uwb::RangingNetwork net3(cfg2, network_factory(cfg2));
  EXPECT_NE(net1.node_ppm()[0], net3.node_ppm()[0]);
}

TEST(RangingNetwork, BitIdenticalAcrossJobCounts) {
  auto cfg = fast_network(4);
  cfg.ppm_spread = 20.0;
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  base::ParallelRunner serial(1), pool(8);
  const auto r1 = net.run(&serial);
  const auto r8 = net.run(&pool);
  ASSERT_EQ(r1.pairs.size(), r8.pairs.size());
  for (std::size_t k = 0; k < r1.pairs.size(); ++k) {
    EXPECT_EQ(r1.pairs[k].est_distance, r8.pairs[k].est_distance);
    EXPECT_EQ(r1.pairs[k].failures, r8.pairs[k].failures);
  }
  EXPECT_EQ(r1.position_rmse, r8.position_rmse);
}

TEST(RangingNetwork, MeasuresAndLocalizesASquareLayout) {
  auto cfg = fast_network(4);
  cfg.exchanges_per_pair = 2;
  // 7-9.9 m pairwise distances: inside the link budget's working range
  // (the 12.7 m diagonal of a 9 m square ranges marginally).
  cfg.positions = {{0.0, 0.0}, {7.0, 0.0}, {0.0, 7.0}, {7.0, 7.0}};
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  const auto res = net.run();
  ASSERT_EQ(res.pairs.size(), 6u);
  EXPECT_EQ(res.failed_pairs, 0);
  for (const auto& m : res.pairs) {
    ASSERT_TRUE(m.ok());
    // The CM1 leading-edge latch is late, never early: per-pair errors sit
    // in [-1, +5] m depending on the realization (see docs/ranging.md).
    EXPECT_GT(m.est_distance, m.true_distance - 1.5);
    EXPECT_LT(m.est_distance, m.true_distance + 5.0);
  }
  // Nodes 0..2 anchor the gauge; node 3 must come back near (7, 7) after
  // the solver's common-bias estimate absorbs the shared latch delay.
  const auto& p3 = res.solved[3];
  EXPECT_NEAR(p3.x, 7.0, 2.0);
  EXPECT_NEAR(p3.y, 7.0, 2.0);
  EXPECT_LT(res.position_rmse, 2.0);
}

TEST(RangingNetwork, AllFailedPairsAreExplicitNotSentinel) {
  // Regression: est_distance used to carry a -1.0 "failed" sentinel that a
  // caller could silently feed to the solver as a negative distance. Links
  // far outside the budget (~100 m) make every exchange fail to acquire;
  // the run must finish, flag every pair via ok()/ok_exchanges, and leave
  // est_distance at its inert default instead of a magic value.
  auto cfg = fast_network(4);
  cfg.positions = {{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {100.0, 100.0}};
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  const auto res = net.run();
  ASSERT_EQ(res.pairs.size(), 6u);
  EXPECT_EQ(res.failed_pairs, 6);
  for (const auto& m : res.pairs) {
    EXPECT_FALSE(m.ok());
    EXPECT_EQ(m.ok_exchanges, 0);
    EXPECT_EQ(m.failures, m.exchanges);
    EXPECT_EQ(m.est_distance, 0.0);  // untouched default, not -1
  }
  // With zero usable observations the solver still returns a well-formed
  // layout (anchors pinned; the unknown stays at its trilateration-free
  // init) and the aggregate metrics stay finite.
  ASSERT_EQ(res.solved.size(), 4u);
  EXPECT_TRUE(std::isfinite(res.position_rmse));
  EXPECT_EQ(res.distance_rmse, 0.0);
}

// ------------------------------------------------------------ position solver

TEST(PositionSolver, RecoversExactGeometryFromExactDistances) {
  const std::vector<uwb::NodePosition> truth = {
      {0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 3}};
  std::vector<uwb::PairDistance> obs;
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j)
      obs.push_back({i, j,
                     std::hypot(truth[i].x - truth[j].x,
                                truth[i].y - truth[j].y)});
  // Unknowns start from a deliberately wrong init.
  auto init = truth;
  init[3] = {2.0, 2.0};
  init[4] = {8.0, 8.0};
  const auto solved = uwb::solve_positions_2d(init, 3, obs);
  for (int k = 3; k < 5; ++k) {
    EXPECT_NEAR(solved[k].x, truth[k].x, 1e-6);
    EXPECT_NEAR(solved[k].y, truth[k].y, 1e-6);
  }
}

TEST(PositionSolver, RejectsDegenerateGauge) {
  const std::vector<uwb::NodePosition> pts = {{0, 0}, {1, 0}, {2, 0}};
  EXPECT_THROW(uwb::solve_positions_2d(pts, 2, {}), std::invalid_argument);
  EXPECT_THROW(uwb::solve_positions_2d(pts, 4, {}), std::invalid_argument);
}

TEST(PositionSolver, RejectsMeasurementNamingABadNode) {
  const std::vector<uwb::NodePosition> pts = {{0, 0}, {4, 0}, {0, 4}, {1, 1}};
  const auto message = [&](const std::vector<uwb::PairDistance>& obs) {
    try {
      uwb::solve_positions_2d(pts, 3, obs);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const uwb::PairDistance good = {0, 3, 1.4};
  // Out of [0, n) on either side, and a node paired with itself: each
  // names the offending measurement and node.
  EXPECT_NE(message({good, {3, 4, 2.0}}).find("measurement 1 names node 4"),
            std::string::npos);
  EXPECT_NE(message({{-1, 3, 2.0}}).find("measurement 0 names node -1"),
            std::string::npos);
  EXPECT_NE(message({good, good, {3, 3, 0.0}})
                .find("measurement 2 pairs node 3 with itself"),
            std::string::npos);
  EXPECT_NE(message({{1, 1, 0.0}}).find("pairs node 1 with itself"),
            std::string::npos);
  EXPECT_EQ(message({good, {1, 3, 3.2}, {2, 3, 3.2}}), "no throw");
}

// ------------------------------------------- position solver bitwise oracle

// The multi-start solver before its start-independent init was hoisted out
// of the start loop and its sweeps learned to stop at a bitwise fixed point:
// every start re-seeds the bias, re-trilaterates every unknown and runs all
// `sweeps`. Kept verbatim as the oracle the faster solver must match bit for
// bit.
namespace reference {

double distance_between(const uwb::NodePosition& a,
                        const uwb::NodePosition& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

bool trilaterate(const std::vector<uwb::NodePosition>& refs,
                 const std::vector<double>& dists, uwb::NodePosition* out) {
  if (refs.size() < 3) return false;
  const double x0 = refs[0].x, y0 = refs[0].y, d0 = dists[0];
  double a11 = 0, a12 = 0, a22 = 0, b1 = 0, b2 = 0;
  for (std::size_t i = 1; i < refs.size(); ++i) {
    const double ax = 2.0 * (refs[i].x - x0);
    const double ay = 2.0 * (refs[i].y - y0);
    const double rhs = d0 * d0 - dists[i] * dists[i] +
                       (refs[i].x * refs[i].x - x0 * x0) +
                       (refs[i].y * refs[i].y - y0 * y0);
    a11 += ax * ax;
    a12 += ax * ay;
    a22 += ay * ay;
    b1 += ax * rhs;
    b2 += ay * rhs;
  }
  const double det = a11 * a22 - a12 * a12;
  if (std::abs(det) < 1e-12) return false;  // collinear references
  out->x = (a22 * b1 - a12 * b2) / det;
  out->y = (a11 * b2 - a12 * b1) / det;
  return true;
}

std::vector<uwb::NodePosition> solve_positions_2d(
    const std::vector<uwb::NodePosition>& positions_init, int anchor_count,
    const std::vector<uwb::PairDistance>& measurements, int sweeps,
    bool estimate_range_bias, double* bias_out) {
  using uwb::NodePosition;
  using uwb::PairDistance;
  const int n = static_cast<int>(positions_init.size());
  if (anchor_count < 3)
    throw std::invalid_argument(
        "solve_positions_2d: need >= 3 anchors to fix the 2-D gauge");
  if (anchor_count > n)
    throw std::invalid_argument("solve_positions_2d: more anchors than nodes");

  const auto solve_from = [&](const std::vector<PairDistance>& measurements,
                              double off_x, double off_y, double* bias_used) {
    std::vector<NodePosition> pos = positions_init;
    for (int k = anchor_count; k < n; ++k) {
      pos[static_cast<std::size_t>(k)].x += off_x;
      pos[static_cast<std::size_t>(k)].y += off_y;
    }

    double bias = 0.0;
    if (estimate_range_bias) {
      double sum = 0.0;
      int count = 0;
      for (const auto& m : measurements) {
        if (m.node_a >= anchor_count || m.node_b >= anchor_count) continue;
        sum += m.distance -
               distance_between(pos[static_cast<std::size_t>(m.node_a)],
                                pos[static_cast<std::size_t>(m.node_b)]);
        ++count;
      }
      if (count > 0) bias = sum / count;
    }

    for (int k = anchor_count; k < n; ++k) {
      std::vector<NodePosition> refs;
      std::vector<double> dists;
      for (const auto& m : measurements) {
        const int other =
            m.node_a == k ? m.node_b : (m.node_b == k ? m.node_a : -1);
        if (other < 0 || other >= anchor_count) continue;
        refs.push_back(positions_init[static_cast<std::size_t>(other)]);
        dists.push_back(m.distance - bias);
      }
      NodePosition p;
      if (trilaterate(refs, dists, &p)) pos[static_cast<std::size_t>(k)] = p;
    }

    for (int sweep = 0; sweep < sweeps; ++sweep) {
      if (estimate_range_bias) {
        double sum = 0.0;
        int count = 0;
        for (const auto& m : measurements) {
          sum += m.distance -
                 distance_between(pos[static_cast<std::size_t>(m.node_a)],
                                  pos[static_cast<std::size_t>(m.node_b)]);
          ++count;
        }
        if (count > 0) bias = sum / count;
      }
      for (int k = anchor_count; k < n; ++k) {
        double a11 = 1e-9, a12 = 0, a22 = 1e-9, b1 = 0, b2 = 0;
        auto& pk = pos[static_cast<std::size_t>(k)];
        for (const auto& m : measurements) {
          const int other =
              m.node_a == k ? m.node_b : (m.node_b == k ? m.node_a : -1);
          if (other < 0) continue;
          const auto& po = pos[static_cast<std::size_t>(other)];
          const double dx = pk.x - po.x;
          const double dy = pk.y - po.y;
          const double r = std::hypot(dx, dy);
          if (r < 1e-9) continue;
          const double ux = dx / r, uy = dy / r;
          const double res = r - (m.distance - bias);
          a11 += ux * ux;
          a12 += ux * uy;
          a22 += uy * uy;
          b1 += ux * res;
          b2 += uy * res;
        }
        const double det = a11 * a22 - a12 * a12;
        if (std::abs(det) < 1e-15) continue;
        pk.x -= (a22 * b1 - a12 * b2) / det;
        pk.y -= (a11 * b2 - a12 * b1) / det;
      }
    }
    *bias_used = bias;
    return pos;
  };

  const auto total_residual = [&](const std::vector<PairDistance>& measurements,
                                  const std::vector<NodePosition>& pos,
                                  double bias) {
    double ssq = 0.0;
    for (const auto& m : measurements) {
      const double r =
          distance_between(pos[static_cast<std::size_t>(m.node_a)],
                           pos[static_cast<std::size_t>(m.node_b)]) -
          (m.distance - bias);
      ssq += r * r;
    }
    return ssq;
  };

  double spread = 0.0;
  for (int i = 0; i < anchor_count; ++i)
    for (int j = i + 1; j < anchor_count; ++j)
      spread = std::max(spread,
                        distance_between(positions_init[static_cast<std::size_t>(i)],
                                         positions_init[static_cast<std::size_t>(j)]));
  const double r0 = spread > 0.0 ? spread : 1.0;
  const double offsets[][2] = {{0, 0},   {r0, 0},   {-r0, 0},  {0, r0},
                               {0, -r0}, {r0, r0},  {-r0, -r0}, {r0, -r0},
                               {-r0, r0}};
  const auto run_multistart = [&](const std::vector<PairDistance>& meas,
                                  double* bias_used) {
    std::vector<NodePosition> best;
    double best_bias = 0.0;
    double best_ssq = 0.0;
    bool first = true;
    for (const auto& off : offsets) {
      double bias = 0.0;
      auto pos = solve_from(meas, off[0], off[1], &bias);
      const double ssq = total_residual(meas, pos, bias);
      if (first || ssq < best_ssq) {
        best = std::move(pos);
        best_bias = bias;
        best_ssq = ssq;
        first = false;
      }
    }
    *bias_used = best_bias;
    return best;
  };

  double best_bias = 0.0;
  std::vector<NodePosition> best = run_multistart(measurements, &best_bias);

  std::vector<double> abs_res;
  abs_res.reserve(measurements.size());
  for (const auto& m : measurements) {
    const double r =
        distance_between(best[static_cast<std::size_t>(m.node_a)],
                         best[static_cast<std::size_t>(m.node_b)]) -
        (m.distance - best_bias);
    abs_res.push_back(std::abs(r));
  }
  if (!abs_res.empty()) {
    std::vector<double> sorted = abs_res;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double cut = std::max(3.0 * median, 2.0);
    std::vector<PairDistance> kept;
    kept.reserve(measurements.size());
    for (std::size_t i = 0; i < measurements.size(); ++i)
      if (abs_res[i] <= cut) kept.push_back(measurements[i]);
    if (kept.size() < measurements.size() &&
        static_cast<int>(kept.size()) >= 3 * (n - anchor_count))
      best = run_multistart(kept, &best_bias);
  }

  if (bias_out != nullptr) *bias_out = best_bias;
  return best;
}

}  // namespace reference

struct SolverCase {
  std::vector<uwb::NodePosition> init;
  int anchors = 3;
  std::vector<uwb::PairDistance> obs;
};

// Measured distance of a link: truth plus gaussian noise, a common offset
// (what the bias estimate fits) and, now and then, a +9.6 m wrong-slot
// latch (what the trimmed re-solve drops).
double draw_distance(base::Rng& rng, const uwb::NodePosition& a,
                     const uwb::NodePosition& b, double offset) {
  double d = reference::distance_between(a, b) + offset +
             rng.gaussian(0.0, 0.3);
  if (rng.uniform() < 0.15) d += 9.6;
  return d;
}

// One tag against 3-8 anchors on a 5 m lattice, initialized at the anchor
// centroid as the netscale engine does. A third of the cases put every
// anchor in one row, so trilateration fails and all nine starts run.
SolverCase single_tag_case(base::Rng& rng) {
  SolverCase c;
  c.anchors = rng.uniform_int(3, 8);
  const bool collinear = rng.uniform() < 1.0 / 3.0;
  const int row = rng.uniform_int(0, 3);
  std::set<std::pair<int, int>> used;
  while (static_cast<int>(used.size()) < c.anchors) {
    const int col = rng.uniform_int(0, collinear ? 7 : 3);
    used.insert({col, collinear ? row : rng.uniform_int(0, 3)});
  }
  uwb::NodePosition centroid;
  for (const auto& [col, r] : used) {
    c.init.push_back({5.0 * col, 5.0 * r});
    centroid.x += 5.0 * col / c.anchors;
    centroid.y += 5.0 * r / c.anchors;
  }
  const uwb::NodePosition tag = {rng.uniform(-2.0, 17.0),
                                 rng.uniform(-2.0, 17.0)};
  const double offset = rng.uniform(0.0, 1.5);
  // Anchor-anchor links only reach the bias estimate.
  for (int i = 0; i < c.anchors; ++i)
    for (int j = i + 1; j < c.anchors; ++j)
      if (rng.uniform() < 0.3)
        c.obs.push_back({i, j, draw_distance(rng, c.init[i], c.init[j], offset)});
  for (int i = 0; i < c.anchors; ++i)
    c.obs.push_back({i, c.anchors, draw_distance(rng, c.init[i], tag, offset)});
  c.init.push_back(centroid);
  return c;
}

// 3-5 anchors and 2-6 unknowns scattered over a 20 m square, with sparse
// anchor links so that some unknowns cannot trilaterate and take the start
// offsets. Unknowns start from the anchor centroid or a random point.
SolverCase network_case(base::Rng& rng) {
  SolverCase c;
  c.anchors = rng.uniform_int(3, 5);
  const int n = c.anchors + rng.uniform_int(2, 6);
  std::vector<uwb::NodePosition> truth;
  for (int i = 0; i < n; ++i)
    truth.push_back({rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)});
  c.init = truth;
  uwb::NodePosition centroid;
  for (int i = 0; i < c.anchors; ++i) {
    centroid.x += truth[i].x / c.anchors;
    centroid.y += truth[i].y / c.anchors;
  }
  for (int k = c.anchors; k < n; ++k)
    c.init[k] = rng.uniform() < 0.5
                    ? centroid
                    : uwb::NodePosition{rng.uniform(0.0, 20.0),
                                        rng.uniform(0.0, 20.0)};
  const double offset = rng.uniform(0.0, 1.5);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const double keep =
          i < c.anchors ? (j < c.anchors ? 1.0 : 0.55) : 0.7;
      if (rng.uniform() < keep)
        c.obs.push_back({i, j, draw_distance(rng, truth[i], truth[j], offset)});
    }
  return c;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Runs both solvers on `c` for every bias mode and sweep budget; returns ""
// when every position and bias matches bit for bit, else what differed.
std::string oracle_mismatch(const SolverCase& c) {
  for (const bool bias_on : {false, true})
    for (const int sweeps : {0, 1, 16, 24}) {
      double bias_ref = -1.0, bias_new = -2.0;
      const auto ref = reference::solve_positions_2d(
          c.init, c.anchors, c.obs, sweeps, bias_on, &bias_ref);
      const auto got = uwb::solve_positions_2d(c.init, c.anchors, c.obs,
                                               sweeps, bias_on, &bias_new);
      const std::string where = " (nodes " + std::to_string(c.init.size()) +
                                ", anchors " + std::to_string(c.anchors) +
                                ", links " + std::to_string(c.obs.size()) +
                                ", bias " + std::to_string(bias_on) +
                                ", sweeps " + std::to_string(sweeps) + ")";
      if (got.size() != ref.size()) return "size" + where;
      for (std::size_t k = 0; k < ref.size(); ++k)
        if (!same_bits(got[k].x, ref[k].x) || !same_bits(got[k].y, ref[k].y))
          return "node " + std::to_string(k) + where;
      if (!same_bits(bias_new, bias_ref)) return "bias" + where;
    }
  return "";
}

TEST(PositionSolver, SingleTagMatchesReferenceBitwise) {
  base::Rng rng(0x5eed0001ULL);
  for (int i = 0; i < 400; ++i) {
    const SolverCase c = single_tag_case(rng);
    ASSERT_EQ(oracle_mismatch(c), "") << "case " << i;
  }
}

TEST(PositionSolver, NetworkMatchesReferenceBitwise) {
  base::Rng rng(0x5eed0002ULL);
  for (int i = 0; i < 300; ++i) {
    const SolverCase c = network_case(rng);
    ASSERT_EQ(oracle_mismatch(c), "") << "case " << i;
  }
}

}  // namespace
