/// @file network.hpp
/// @brief N-node two-way-ranging network + 2-D position solver.
///
/// Radar / localization deployments of pulsed-UWB transceivers are
/// many-node: every pair of nodes measures its distance with the §5 TWR
/// exchange, and a solver turns the pairwise estimates into positions.
/// RangingNetwork builds exactly that on top of the existing per-pair
/// engine (ranging.hpp):
///
///   * each unordered pair (i, j) gets an *independent* CM1 channel
///     realization and noise stream, seeded from fixed-purpose
///     base::derive_seed sub-streams of the network seed and the pair
///     index alone — measuring pairs in any order, or fanning them across
///     any number of workers, reproduces the serial result bit for bit;
///   * the initiator role rotates round-robin across exchanges (exchange e
///     of pair (i, j) is initiated by i when (i + j + e) is even), so every
///     node spends comparable time in the counter-running role — with
///     per-node clock offsets the initiator's oscillator dominates the
///     drift bias, and the rotation keeps that bias from piling onto one
///     side of the network;
///   * every node owns a ClockModel: a per-node ppm offset drawn uniformly
///     from [-ppm_spread, +ppm_spread] (deterministic per node id) on top
///     of the shared drift/jitter template.
///
/// solve_positions_2d() is a deterministic least-squares multilateration:
/// the first `anchor_count` nodes are anchors at known positions, the rest
/// are initialized by linear trilateration against the anchors and refined
/// by per-node Gauss-Newton sweeps over *all* measured pair distances.
#pragma once

#include <cstdint>
#include <vector>

#include "base/parallel.hpp"
#include "uwb/ranging.hpp"

namespace uwbams::uwb {

struct NodePosition {
  double x = 0.0;  ///< [m]
  double y = 0.0;  ///< [m]
};

struct NetworkConfig {
  /// Template system parameters shared by every node (per-node clock and
  /// per-pair distance/seed are overridden internally).
  SystemConfig sys;
  int node_count = 4;
  /// Auto layout when `positions` is empty: nodes on a circle of this
  /// radius centered on the origin (keeps every pairwise link inside the
  /// distance range the link budget is tuned for).
  double layout_radius = 6.0;             ///< [m]
  std::vector<NodePosition> positions;    ///< explicit layout (optional)

  double processing_time = 12e-6;         ///< per-exchange PT [s]
  double noise_psd = 8e-19;               ///< receiver-input N0 [V^2/Hz]
  int exchanges_per_pair = 1;             ///< TWR exchanges averaged per pair

  /// Per-node oscillators: ppm ~ U(-ppm_spread, +ppm_spread) drawn from a
  /// deterministic per-node sub-stream; drift/jitter copied from
  /// clock_template. Zero spread + zero template = ideal clocks.
  double ppm_spread = 0.0;
  ClockConfig clock_template;
  bool compensate_ppm = false;  ///< apply the TWR ppm compensation per pair

  int anchor_count = 3;  ///< nodes 0..anchor_count-1 known to the solver
};

struct PairMeasurement {
  int node_a = 0;               ///< lower node index of the pair
  int node_b = 0;               ///< higher node index
  double true_distance = 0.0;   ///< [m]
  double est_distance = 0.0;    ///< mean over ok exchanges [m]; only
                                ///< meaningful when ok()
  int exchanges = 0;
  int ok_exchanges = 0;         ///< exchanges that acquired (the estimate
                                ///< averages over exactly these)
  int failures = 0;             ///< acquisition failures among the exchanges
  /// Explicit success state — no magic sentinel in est_distance: a pair is
  /// usable iff at least one exchange acquired.
  bool ok() const { return ok_exchanges > 0; }
};

struct NetworkResult {
  std::vector<NodePosition> positions;  ///< true layout
  std::vector<double> node_ppm;         ///< per-node drawn clock offsets
  std::vector<PairMeasurement> pairs;   ///< one per unordered pair, ordered
                                        ///< (0,1), (0,2), ... row-major
  std::vector<NodePosition> solved;     ///< solver output (anchors copied)
  double position_rmse = 0.0;           ///< over non-anchor nodes [m]
  double distance_rmse = 0.0;           ///< est vs true over ok pairs [m]
  double range_bias = 0.0;              ///< solver's common-bias estimate [m]
  int failed_pairs = 0;                 ///< pairs with no ok exchange
};

/// A distance observation the position solver consumes.
struct PairDistance {
  int node_a = 0;
  int node_b = 0;
  double distance = 0.0;  ///< [m]
};

/// Least-squares 2-D multilateration. `positions_init` supplies the anchor
/// coordinates (first `anchor_count` entries are held fixed) and the vector
/// length fixes the node count; non-anchor entries are used only when no
/// trilateration init is possible for that node. Deterministic; requires
/// anchor_count >= 3 (the 2-D gauge) and throws std::invalid_argument for a
/// measurement naming a node outside [0, n) or pairing a node with itself.
///
/// When `estimate_range_bias` is set the model becomes
/// d_ij = |p_i - p_j| + b with one network-common bias b solved jointly —
/// the leading-edge energy detector latches *after* the first path on
/// dispersed CM1 realizations, so every pair's range carries a positive
/// offset whose common part the anchor-anchor links pin down (the
/// antenna-delay / ranging-offset calibration every deployed UWB localizer
/// performs). `bias_out` (optional) receives the estimate.
std::vector<NodePosition> solve_positions_2d(
    const std::vector<NodePosition>& positions_init, int anchor_count,
    const std::vector<PairDistance>& measurements, int sweeps = 24,
    bool estimate_range_bias = false, double* bias_out = nullptr);

class RangingNetwork {
 public:
  /// `make_integrator` is the per-node I&D factory, as in TwoWayRanging
  /// (every node runs the same fidelity).
  RangingNetwork(const NetworkConfig& cfg, IntegratorFactory make_integrator);

  /// True node layout (explicit positions or the generated circle).
  const std::vector<NodePosition>& positions() const { return positions_; }
  /// Per-node ppm offsets (clock_template.ppm + the U(-spread, spread)
  /// draw of the node's sub-stream).
  const std::vector<double>& node_ppm() const { return node_ppm_; }

  int pair_count() const;
  /// The k-th unordered pair, k in [0, pair_count()), ordered (0,1),
  /// (0,2), ..., (n-2, n-1).
  std::pair<int, int> pair_nodes(int k) const;

  /// Measures one pair: `exchanges_per_pair` TWR exchanges with the
  /// round-robin initiator schedule, all seeds derived from the network
  /// seed and k alone (safe to call from any worker, in any order).
  PairMeasurement measure_pair(int k) const;

  /// Measures every pair (fanned across `pool` when given) and solves
  /// positions. Bit-identical for any job count.
  NetworkResult run(const base::ParallelRunner* pool = nullptr) const;

 private:
  ClockConfig node_clock(int node) const;

  NetworkConfig cfg_;
  IntegratorFactory make_integrator_;
  std::vector<NodePosition> positions_;
  std::vector<double> node_ppm_;
};

}  // namespace uwbams::uwb
