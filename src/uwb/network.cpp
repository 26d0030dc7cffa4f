#include "uwb/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "base/random.hpp"

namespace uwbams::uwb {

namespace {

// Fixed purpose tags of the network sub-streams (base::derive_seed).
constexpr std::uint64_t kPairPurpose = 0x6e777072ULL;   // "nwpr"
constexpr std::uint64_t kNodeClockPurpose = 0x6e77636bULL;  // "nwck"

constexpr double kPi = 3.141592653589793238462643383279502884;

double distance_between(const NodePosition& a, const NodePosition& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

// Linear trilateration of one point from >= 3 (position, distance)
// references: subtracting the first circle equation from the others yields
// a linear system solved in least squares via its 2x2 normal equations.
bool trilaterate(const std::vector<NodePosition>& refs,
                 const std::vector<double>& dists, NodePosition* out) {
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

bool same_bits(const NodePosition& a, const NodePosition& b) {
  using Bits = std::uint64_t;
  return std::bit_cast<Bits>(a.x) == std::bit_cast<Bits>(b.x) &&
         std::bit_cast<Bits>(a.y) == std::bit_cast<Bits>(b.y);
}

}  // namespace

std::vector<NodePosition> solve_positions_2d(
    const std::vector<NodePosition>& positions_init, int anchor_count,
    const std::vector<PairDistance>& measurements, int sweeps,
    bool estimate_range_bias, double* bias_out) {
  const int n = static_cast<int>(positions_init.size());
  if (anchor_count < 3)
    throw std::invalid_argument(
        "solve_positions_2d: need >= 3 anchors to fix the 2-D gauge");
  if (anchor_count > n)
    throw std::invalid_argument("solve_positions_2d: more anchors than nodes");
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const auto& m = measurements[i];
    for (const int node : {m.node_a, m.node_b})
      if (node < 0 || node >= n)
        throw std::invalid_argument(
            "solve_positions_2d: measurement " + std::to_string(i) +
            " names node " + std::to_string(node) + " outside [0, " +
            std::to_string(n) + ")");
    if (m.node_a == m.node_b)
      throw std::invalid_argument(
          "solve_positions_2d: measurement " + std::to_string(i) +
          " pairs node " + std::to_string(m.node_a) + " with itself");
  }

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

  // Deterministic multi-start: a node that lost its anchor links (failed
  // pairs) falls back to its seed position, where Gauss-Newton can lock
  // onto the mirror solution. Re-solving from a fixed star of seed offsets
  // (scaled by the anchor spread) and keeping the lowest-residual result
  // resolves the ambiguity without randomness.
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
    // Common range bias, seeded from the anchor-anchor links (known true
    // separations observe the bias directly) and refined each sweep over
    // all measurements once positions firm up.
    double seed_bias = 0.0;
    if (estimate_range_bias) {
      double sum = 0.0;
      int count = 0;
      for (const auto& m : meas) {
        if (m.node_a >= anchor_count || m.node_b >= anchor_count) continue;
        sum += m.distance -
               distance_between(positions_init[static_cast<std::size_t>(m.node_a)],
                                positions_init[static_cast<std::size_t>(m.node_b)]);
        ++count;
      }
      if (count > 0) seed_bias = sum / count;
    }

    // Init every unknown node by trilateration against the anchors it has
    // measurements to. Neither this nor the bias seed reads the start
    // offset (anchors never move), so both run once for all starts. Nodes
    // without enough anchor links are `loose`: they keep their init
    // position plus the start offset and are refined by the sweeps below
    // through node-node links.
    std::vector<NodePosition> seeded = positions_init;
    std::vector<int> loose;
    for (int k = anchor_count; k < n; ++k) {
      std::vector<NodePosition> refs;
      std::vector<double> dists;
      for (const auto& m : meas) {
        const int other =
            m.node_a == k ? m.node_b : (m.node_b == k ? m.node_a : -1);
        if (other < 0 || other >= anchor_count) continue;
        refs.push_back(positions_init[static_cast<std::size_t>(other)]);
        dists.push_back(m.distance - seed_bias);
      }
      NodePosition p;
      if (trilaterate(refs, dists, &p))
        seeded[static_cast<std::size_t>(k)] = p;
      else
        loose.push_back(k);
    }

    std::vector<NodePosition> best;
    double best_bias = 0.0;
    double best_ssq = 0.0;
    bool first = true;
    for (const auto& off : offsets) {
      std::vector<NodePosition> pos = seeded;
      for (const int k : loose) {
        pos[static_cast<std::size_t>(k)].x += off[0];
        pos[static_cast<std::size_t>(k)].y += off[1];
      }
      double bias = seed_bias;

      // Gauss-Newton coordinate sweeps: each unknown node refines against
      // all of its measured neighbours (anchors and previously-updated
      // unknowns). The tiny Levenberg damping keeps the 2x2 solve
      // well-posed when a node has nearly collinear neighbours.
      for (int sweep = 0; sweep < sweeps; ++sweep) {
        if (estimate_range_bias) {
          // Re-estimate the common bias against the current geometry (all
          // links; the fixed anchors keep it from drifting with the gauge).
          double sum = 0.0;
          int count = 0;
          for (const auto& m : meas) {
            sum += m.distance -
                   distance_between(pos[static_cast<std::size_t>(m.node_a)],
                                    pos[static_cast<std::size_t>(m.node_b)]);
            ++count;
          }
          if (count > 0) bias = sum / count;
        }
        bool moved = false;
        for (int k = anchor_count; k < n; ++k) {
          double a11 = 1e-9, a12 = 0, a22 = 1e-9, b1 = 0, b2 = 0;
          auto& pk = pos[static_cast<std::size_t>(k)];
          for (const auto& m : meas) {
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
          const NodePosition before = pk;
          pk.x -= (a22 * b1 - a12 * b2) / det;
          pk.y -= (a11 * b2 - a12 * b1) / det;
          moved = moved || !same_bits(before, pk);
        }
        // A sweep that left every position bitwise unchanged is a fixed
        // point: the next sweep would redo the same arithmetic (the bias is
        // either constant or recomputed from these same positions).
        if (!moved) break;
      }

      const double ssq = total_residual(meas, pos, bias);
      if (first || ssq < best_ssq) {
        best = std::move(pos);
        best_bias = bias;
        best_ssq = ssq;
        first = false;
      }
      // With no loose node the offset reaches no position, so the other
      // starts would repeat this one and the strict < would keep it.
      if (loose.empty()) break;
    }
    *bias_used = best_bias;
    return best;
  };

  double best_bias = 0.0;
  std::vector<NodePosition> best = run_multistart(measurements, &best_bias);

  // Robust re-solve: a wrong-slot sync lock inflates a single range by
  // many meters (half a symbol period is ~9.6 m), and one such outlier
  // drags the whole least-squares fit. Trim measurements whose residual
  // against the first solution exceeds max(3 median |residual|, 2 m) and
  // re-solve once on the survivors.
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
    // Only re-solve when something was dropped and enough links survive to
    // keep every unknown constrained on average (>= 3 per node).
    if (kept.size() < measurements.size() &&
        static_cast<int>(kept.size()) >= 3 * (n - anchor_count))
      best = run_multistart(kept, &best_bias);
  }

  if (bias_out != nullptr) *bias_out = best_bias;
  return best;
}

RangingNetwork::RangingNetwork(const NetworkConfig& cfg,
                               IntegratorFactory make_integrator)
    : cfg_(cfg), make_integrator_(std::move(make_integrator)) {
  if (cfg_.node_count < 2)
    throw std::invalid_argument("RangingNetwork: need >= 2 nodes");
  // Fail fast before paying for any simulation: run() hands anchor_count
  // straight to solve_positions_2d, which needs 3 anchors for the 2-D
  // gauge and rejects more anchors than nodes.
  if (cfg_.anchor_count < 3 || cfg_.anchor_count > cfg_.node_count)
    throw std::invalid_argument(
        "RangingNetwork: anchor_count must be in [3, node_count]");
  if (!cfg_.positions.empty() &&
      static_cast<int>(cfg_.positions.size()) != cfg_.node_count)
    throw std::invalid_argument(
        "RangingNetwork: positions size != node_count");

  if (cfg_.positions.empty()) {
    // Circle layout: every pairwise distance stays within the link budget's
    // working range for radii of a few meters.
    positions_.reserve(static_cast<std::size_t>(cfg_.node_count));
    for (int i = 0; i < cfg_.node_count; ++i) {
      const double ang = 2.0 * kPi * i / cfg_.node_count;
      positions_.push_back({cfg_.layout_radius * std::cos(ang),
                            cfg_.layout_radius * std::sin(ang)});
    }
  } else {
    positions_ = cfg_.positions;
  }

  // Per-node clock offsets: template ppm + U(-spread, spread) from the
  // node's deterministic sub-stream.
  node_ppm_.reserve(static_cast<std::size_t>(cfg_.node_count));
  const std::uint64_t clock_stream =
      base::derive_seed(cfg_.sys.seed, kNodeClockPurpose);
  for (int i = 0; i < cfg_.node_count; ++i) {
    double ppm = cfg_.clock_template.ppm;
    if (cfg_.ppm_spread > 0.0) {
      base::Rng rng(base::derive_seed(clock_stream,
                                      static_cast<std::uint64_t>(i)));
      ppm += rng.uniform(-cfg_.ppm_spread, cfg_.ppm_spread);
    }
    node_ppm_.push_back(ppm);
  }
}

ClockConfig RangingNetwork::node_clock(int node) const {
  ClockConfig c = cfg_.clock_template;
  c.ppm = node_ppm_[static_cast<std::size_t>(node)];
  c.node_id = static_cast<std::uint64_t>(node);
  return c;
}

int RangingNetwork::pair_count() const {
  return cfg_.node_count * (cfg_.node_count - 1) / 2;
}

std::pair<int, int> RangingNetwork::pair_nodes(int k) const {
  // Row-major over the strict upper triangle: (0,1), (0,2), ..., (n-2,n-1).
  int i = 0;
  int remaining = k;
  int row = cfg_.node_count - 1;
  while (remaining >= row) {
    remaining -= row;
    ++i;
    --row;
  }
  return {i, i + 1 + remaining};
}

PairMeasurement RangingNetwork::measure_pair(int k) const {
  const auto [i, j] = pair_nodes(k);
  PairMeasurement m;
  m.node_a = i;
  m.node_b = j;
  m.true_distance = distance_between(positions_[static_cast<std::size_t>(i)],
                                     positions_[static_cast<std::size_t>(j)]);

  // Pair-local TWR setup: independent CM1 realization + noise streams via
  // the pair's fixed-purpose sub-stream, so every pair is statistically
  // independent and the fan-out order is irrelevant.
  TwrConfig twr;
  twr.apply_system_template(cfg_.sys);  // keeps the acquire packet tuning
  twr.sys.distance = m.true_distance;
  twr.sys.seed = base::derive_seed(
      base::derive_seed(cfg_.sys.seed, kPairPurpose),
      static_cast<std::uint64_t>(k));
  twr.processing_time = cfg_.processing_time;
  twr.noise_psd = cfg_.noise_psd;
  twr.compensate_ppm = cfg_.compensate_ppm;
  // Every exchange sees a fresh realization: the leading-edge bias of a
  // single CM1 draw can reach meters, so multi-exchange pairs average over
  // realizations rather than re-sampling one unlucky profile.
  twr.fresh_channel_per_iteration = true;

  base::RunningStats est;
  for (int e = 0; e < cfg_.exchanges_per_pair; ++e) {
    // Round-robin initiator: node i initiates when (i + j + e) is even.
    const bool i_initiates = ((i + j + e) % 2) == 0;
    TwrConfig cfg_e = twr;
    cfg_e.clock_a = node_clock(i_initiates ? i : j);
    cfg_e.clock_b = node_clock(i_initiates ? j : i);
    // compensate_ppm consumes clock_a/clock_b, so the swap is transparent
    // to the correction term's sign.
    const auto it = run_twr_exchange(cfg_e, make_integrator_, e);
    ++m.exchanges;
    if (it.ok)
      est.add(it.distance_estimate);
    else
      ++m.failures;
  }
  m.ok_exchanges = static_cast<int>(est.count());
  if (m.ok()) m.est_distance = est.mean();
  return m;
}

NetworkResult RangingNetwork::run(const base::ParallelRunner* pool) const {
  NetworkResult res;
  res.positions = positions_;
  res.node_ppm = node_ppm_;

  const int pairs = pair_count();
  if (pool != nullptr) {
    res.pairs = pool->map<PairMeasurement>(
        static_cast<std::size_t>(pairs),
        [this](std::size_t k) { return measure_pair(static_cast<int>(k)); });
  } else {
    res.pairs.reserve(static_cast<std::size_t>(pairs));
    for (int k = 0; k < pairs; ++k) res.pairs.push_back(measure_pair(k));
  }

  base::RunningStats derr;
  std::vector<PairDistance> obs;
  for (const auto& m : res.pairs) {
    if (!m.ok()) {
      ++res.failed_pairs;
      continue;
    }
    obs.push_back({m.node_a, m.node_b, m.est_distance});
    derr.add(m.est_distance - m.true_distance);
  }
  res.distance_rmse = std::sqrt(derr.count() > 0
                                    ? derr.variance_population() +
                                          derr.mean() * derr.mean()
                                    : 0.0);

  // The solver only knows the anchors: unknown nodes start from the anchor
  // centroid (trilateration then Gauss-Newton does the rest), never from
  // the true layout.
  std::vector<NodePosition> init = positions_;
  NodePosition centroid;
  for (int k = 0; k < cfg_.anchor_count; ++k) {
    centroid.x += positions_[static_cast<std::size_t>(k)].x / cfg_.anchor_count;
    centroid.y += positions_[static_cast<std::size_t>(k)].y / cfg_.anchor_count;
  }
  for (int k = cfg_.anchor_count; k < cfg_.node_count; ++k)
    init[static_cast<std::size_t>(k)] = centroid;
  res.solved = solve_positions_2d(init, cfg_.anchor_count, obs, /*sweeps=*/24,
                                  /*estimate_range_bias=*/true,
                                  &res.range_bias);
  base::RunningStats perr;
  for (int k = cfg_.anchor_count; k < cfg_.node_count; ++k) {
    const auto& t = res.positions[static_cast<std::size_t>(k)];
    const auto& s = res.solved[static_cast<std::size_t>(k)];
    const double e = distance_between(t, s);
    perr.add(e * e);
  }
  res.position_rmse = perr.count() > 0 ? std::sqrt(perr.mean()) : 0.0;
  return res;
}

}  // namespace uwbams::uwb
