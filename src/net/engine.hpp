/// @file engine.hpp
/// @brief Event-driven large-scale ranging network over the PHY surrogate.
///
/// The simulation tier above the waveform engine: anchors on a known grid,
/// thousands of tags at drawn positions, and a discrete-event loop that
/// schedules ranging *rounds* instead of waveform samples. Per round every
/// tag ranges to its nearest in-budget anchors with ToA errors drawn from
/// the calibrated SurrogateTable (surrogate.hpp) and multilaterates its own
/// position with uwb::solve_positions_2d — the per-tag solve a deployed
/// localizer runs, which keeps the whole round embarrassingly parallel.
///
/// Event queue contents:
///   * kRoundBegin   — advance mobility, draw anchor-dropout faults,
///                     refresh the common range-bias estimate from
///                     anchor-anchor surrogate draws (the antenna-delay
///                     calibration anchors perform among themselves);
///   * kAnchorRecover— a dropped anchor comes back dropout_rounds later;
///   * kRoundMeasure — fan the per-tag measure+solve batch across the
///                     worker pool and record round statistics.
///
/// Determinism contract (the CI gate byte-compares positions.csv across
/// --jobs): every stochastic draw is keyed by fixed-purpose
/// base::derive_seed sub-streams of (seed, round, node/pair/link) alone;
/// mobility and fault state advance serially inside the event loop; the
/// measurement fan-out reads engine state but never mutates it. Any worker
/// count, and any re-run, reproduces the same artifacts bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/parallel.hpp"
#include "net/mobility.hpp"
#include "net/surrogate.hpp"
#include "uwb/network.hpp"

namespace uwbams::net {

struct NetScaleConfig {
  std::uint64_t seed = 1;

  /// Square deployment area [0, area_m]^2 with anchor_grid x anchor_grid
  /// anchors centered on a uniform grid (spacing area_m / anchor_grid; keep
  /// the spacing <= ~0.63 * max_range_m so any tag position sees >= 3
  /// anchors). Tags draw uniform positions.
  double area_m = 40.0;
  int anchor_grid = 6;
  int tag_count = 64;

  int rounds = 5;
  double round_period_s = 1.0;

  /// Link budget: anchors farther than this cannot be ranged at all (the
  /// full-physics engine stops acquiring near ~12 m with the default TX
  /// level); among in-range anchors each tag uses the nearest
  /// max_links_per_tag.
  double max_range_m = 12.0;
  int max_links_per_tag = 6;

  /// TWR exchanges per link per round; the link's range estimate is the
  /// (lower-)median of the successful exchanges — robust to a minority of
  /// wrong-slot latches, and matching the multi-exchange averaging the
  /// full-physics RangingNetwork performs per pair.
  int exchanges_per_link = 1;

  /// Operating point handed to the surrogate lookup.
  double noise_psd = 8e-19;
  /// Channel environment of the deployment: uwb::ChannelClass integer code
  /// (0 = CM1 ... 3 = CM4), selecting the surrogate's channel-class axis
  /// for every draw. The table must have been calibrated with that class
  /// on its grid (nearest-cell lookup clamps otherwise).
  int channel_class = 0;
  /// Per-node crystal offsets ~ U(-ppm_spread, +ppm_spread); the link's
  /// |ppm difference| selects the surrogate's dppm axis.
  double ppm_spread = 20.0;

  /// Fault injection. packet_loss is per link per round; anchor_dropout is
  /// the per-round probability an alive anchor goes dark for
  /// dropout_rounds rounds.
  double packet_loss = 0.0;
  double anchor_dropout = 0.0;
  int dropout_rounds = 2;

  MobilityKind mobility = MobilityKind::kStatic;
  double speed_mps = 1.5;

  /// Deployment-specific common range bias the surrogate calibration never
  /// saw (antenna/cable delay drift after installation). Added to every
  /// draw; the anchor-anchor calibration estimates and removes it.
  double uncal_bias_m = 0.0;

  /// Anchor-anchor surrogate draws per round feeding the *residual*
  /// common-bias estimate — what remains after each link subtracts its own
  /// cell's calibrated bias (0 disables bias calibration).
  int bias_links_per_round = 16;
  int solver_sweeps = 16;
};

/// One tag's outcome in one round.
struct TagRound {
  double true_x = 0.0, true_y = 0.0;
  double est_x = 0.0, est_y = 0.0;
  double err_m = 0.0;
  int links = 0;       ///< measurements that survived loss + acquisition
  bool solved = false;
  std::uint16_t draws = 0, failures = 0, outlier_suspects = 0, lost = 0;
};

struct RoundStats {
  int round = 0;
  double time_s = 0.0;
  int tags_solved = 0;
  double availability = 0.0;  ///< solved / tag_count
  double rmse_m = 0.0;        ///< over solved tags
  double p95_err_m = 0.0;     ///< 95th percentile position error
  double mean_links = 0.0;
  int anchors_dark = 0;
  double bias_est_m = 0.0;  ///< residual common bias subtracted this round
                            ///< (on top of the per-cell calibrated bias)
  std::uint64_t toa_draws = 0, toa_failures = 0, packets_lost = 0;
  /// Tags whose measure+solve task failed even after retries this round:
  /// kept as unsolved rows (true position only), never dropped silently.
  std::uint64_t tags_quarantined = 0;
};

struct NetScaleResult {
  std::vector<RoundStats> rounds;
  /// tag_rounds[r][t] — every tag, every round (solved flag inside).
  std::vector<std::vector<TagRound>> tag_rounds;
  double overall_rmse_m = 0.0;
  double overall_availability = 0.0;
  std::uint64_t total_draws = 0;
  std::uint64_t quarantined = 0;  ///< sum of tags_quarantined over rounds
};

/// (distance, anchor index) of one candidate link.
using AnchorCandidate = std::pair<double, std::size_t>;

/// Candidate links of a tag at `pos`: the anchors of the row-major
/// anchor_grid x anchor_grid lattice `anchors` (spacing area_m /
/// anchor_grid, centered, as NetScaleEngine lays it out) that are not
/// `dark` and lie within max_range_m, nearest first with ties broken by
/// anchor index. Only the lattice rows and columns within max_range_m of
/// `pos` are scanned.
std::vector<AnchorCandidate> anchors_in_range(
    const NetScaleConfig& cfg, const std::vector<uwb::NodePosition>& anchors,
    const std::vector<bool>& dark, const uwb::NodePosition& pos);

class NetScaleEngine {
 public:
  /// Validates the config (throws std::invalid_argument) and draws the
  /// deterministic initial state: anchor grid, tag layout, per-node ppm.
  NetScaleEngine(const NetScaleConfig& cfg, const SurrogateTable& table);

  const std::vector<uwb::NodePosition>& anchors() const { return anchors_; }
  /// Tag positions *now* (initial layout before run(), final after).
  const std::vector<uwb::NodePosition>& tags() const { return tags_; }
  int node_count() const {
    return static_cast<int>(anchors_.size()) + cfg_.tag_count;
  }

  /// Runs the event loop over cfg.rounds rounds. Bit-identical for any
  /// `pool` job count and across repeated calls on fresh engines.
  NetScaleResult run(const base::ParallelRunner* pool = nullptr);

 private:
  struct Event {
    double t = 0.0;
    std::uint64_t seq = 0;  ///< tie-break: schedule order
    enum Kind { kRoundBegin, kAnchorRecover, kRoundMeasure } kind = kRoundBegin;
    int id = 0;  ///< round or anchor index
  };

  void round_begin(int round, std::vector<Event>* queue, std::uint64_t* seq);
  void refresh_bias(int round);
  TagRound measure_tag(int round, int tag) const;
  /// The configured channel class as the surrogate's axis coordinate.
  double cls() const { return static_cast<double>(cfg_.channel_class); }

  NetScaleConfig cfg_;
  const SurrogateTable& table_;
  MobilityModel mobility_;

  std::vector<uwb::NodePosition> anchors_;
  std::vector<uwb::NodePosition> tags_;
  std::vector<double> anchor_ppm_;
  std::vector<double> tag_ppm_;
  std::vector<bool> anchor_dark_;
  base::RunningStats bias_stats_;  ///< anchor-anchor bias, all rounds so far
  double bias_est_ = 0.0;
  /// Signed-residual band that identifies a wrong-slot measurement (the
  /// calibrated outlier cluster, ~+9.6 m: a late slot latch always makes
  /// the range read *long*). Computed once from the table's outlier cells.
  double slot_lo_ = 0.0, slot_hi_ = 0.0;
};

}  // namespace uwbams::net
