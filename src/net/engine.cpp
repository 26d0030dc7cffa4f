#include "net/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "base/faults.hpp"
#include "base/random.hpp"
#include "base/stats.hpp"
#include "uwb/config.hpp"

namespace uwbams::net {

namespace {

// Fixed-purpose seed streams ("nlay", "nppm", "nmob", "nflt", "nbia",
// "nmes" in hex ASCII) — disjoint from each other and from every other
// purpose tag in the repo, so no two subsystems ever share a draw stream.
constexpr std::uint64_t kLayoutPurpose = 0x6e6c6179ULL;
constexpr std::uint64_t kPpmPurpose = 0x6e70706dULL;
constexpr std::uint64_t kMobilityPurpose = 0x6e6d6f62ULL;
constexpr std::uint64_t kFaultPurpose = 0x6e666c74ULL;
constexpr std::uint64_t kBiasPurpose = 0x6e626961ULL;
constexpr std::uint64_t kMeasurePurpose = 0x6e6d6573ULL;

std::uint64_t chain(std::uint64_t seed, std::uint64_t purpose, std::uint64_t a,
                    std::uint64_t b) {
  return base::derive_seed(
      base::derive_seed(base::derive_seed(seed, purpose), a), b);
}

double dist2d(const uwb::NodePosition& p, const uwb::NodePosition& q) {
  return std::hypot(p.x - q.x, p.y - q.y);
}

// Lattice indices [lo, hi] whose coordinate (i + 0.5) * spacing can lie
// within r of v, clamped to [0, n) (empty when lo > hi). floor/ceil round
// the bounds outward, which absorbs the few-ulp error of the bound
// arithmetic. The clamps compare in double before converting, so a far-off
// v cannot overflow the int and a NaN bound falls back to the full range.
std::pair<int, int> lattice_window(double v, double r, double spacing,
                                   int n) {
  const double lo = std::floor((v - r) / spacing - 0.5);
  const double hi = std::ceil((v + r) / spacing - 0.5);
  return {lo > 0.0 ? (lo < n ? static_cast<int>(lo) : n) : 0,
          hi < n - 1.0 ? (hi > -1.0 ? static_cast<int>(hi) : -1) : n - 1};
}

}  // namespace

std::vector<AnchorCandidate> anchors_in_range(
    const NetScaleConfig& cfg, const std::vector<uwb::NodePosition>& anchors,
    const std::vector<bool>& dark, const uwb::NodePosition& pos) {
  const int g = cfg.anchor_grid;
  const double spacing = cfg.area_m / g;
  const auto [col_lo, col_hi] =
      lattice_window(pos.x, cfg.max_range_m, spacing, g);
  const auto [row_lo, row_hi] =
      lattice_window(pos.y, cfg.max_range_m, spacing, g);
  std::vector<AnchorCandidate> cand;
  for (int row = row_lo; row <= row_hi; ++row) {
    for (int col = col_lo; col <= col_hi; ++col) {
      const std::size_t a = static_cast<std::size_t>(row) * g + col;
      if (dark[a]) continue;
      const double d = dist2d(pos, anchors[a]);
      if (d <= cfg.max_range_m) cand.push_back({d, a});
    }
  }
  std::sort(cand.begin(), cand.end());
  return cand;
}

NetScaleEngine::NetScaleEngine(const NetScaleConfig& cfg,
                               const SurrogateTable& table)
    : cfg_(cfg),
      table_(table),
      mobility_({cfg.mobility, cfg.speed_mps, cfg.area_m},
                static_cast<std::size_t>(std::max(cfg.tag_count, 0)),
                base::derive_seed(cfg.seed, kMobilityPurpose)) {
  // mobility_ has already rejected a bad area_m or speed_mps.
  if (cfg_.anchor_grid < 2)
    throw std::invalid_argument("NetScaleEngine: anchor_grid must be >= 2");
  if (cfg_.tag_count < 1)
    throw std::invalid_argument("NetScaleEngine: tag_count must be >= 1");
  if (cfg_.rounds < 1)
    throw std::invalid_argument("NetScaleEngine: rounds must be >= 1");
  if (!std::isfinite(cfg_.round_period_s) || cfg_.round_period_s <= 0.0)
    throw std::invalid_argument(
        "NetScaleEngine: round_period_s must be finite and > 0");
  if (cfg_.max_range_m <= 0.0)
    throw std::invalid_argument("NetScaleEngine: max_range_m must be > 0");
  if (cfg_.max_links_per_tag < 3 || cfg_.max_links_per_tag > 200)
    throw std::invalid_argument(
        "NetScaleEngine: max_links_per_tag must be in [3, 200]");
  if (cfg_.exchanges_per_link < 1 || cfg_.exchanges_per_link > 32)
    throw std::invalid_argument(
        "NetScaleEngine: exchanges_per_link must be in [1, 32]");
  if (cfg_.dropout_rounds < 1)
    throw std::invalid_argument("NetScaleEngine: dropout_rounds must be >= 1");
  if (cfg_.channel_class < 0 ||
      cfg_.channel_class >= uwb::kChannelClassCount)
    throw std::invalid_argument(
        "NetScaleEngine: channel_class must be a ChannelClass code (0..3)");
  if (table_.cell_count() == 0)
    throw std::invalid_argument("NetScaleEngine: surrogate table is empty");

  // Anchors centered on a uniform grid: index a = row * grid + col.
  const int g = cfg_.anchor_grid;
  const double spacing = cfg_.area_m / g;
  anchors_.reserve(static_cast<std::size_t>(g) * g);
  for (int row = 0; row < g; ++row)
    for (int col = 0; col < g; ++col)
      anchors_.push_back({(col + 0.5) * spacing, (row + 0.5) * spacing});
  anchor_dark_.assign(anchors_.size(), false);

  // Tag layout: uniform in the area, one sub-stream per tag.
  base::Rng layout(base::derive_seed(cfg_.seed, kLayoutPurpose));
  tags_.reserve(static_cast<std::size_t>(cfg_.tag_count));
  for (int t = 0; t < cfg_.tag_count; ++t) {
    base::Rng r = layout.fork(static_cast<std::uint64_t>(t));
    tags_.push_back({r.uniform(0.0, cfg_.area_m), r.uniform(0.0, cfg_.area_m)});
  }

  // Per-node crystal offsets, anchors first then tags in the node index.
  const std::uint64_t ppm_seed = base::derive_seed(cfg_.seed, kPpmPurpose);
  anchor_ppm_.reserve(anchors_.size());
  for (std::size_t a = 0; a < anchors_.size(); ++a) {
    base::Rng r(base::derive_seed(ppm_seed, a));
    anchor_ppm_.push_back(r.uniform(-cfg_.ppm_spread, cfg_.ppm_spread));
  }
  tag_ppm_.reserve(tags_.size());
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    base::Rng r(base::derive_seed(ppm_seed, anchors_.size() + t));
    tag_ppm_.push_back(r.uniform(-cfg_.ppm_spread, cfg_.ppm_spread));
  }

  // The wrong-slot signature band, aggregated over every cell that
  // observed outliers during calibration. The solver uses it to decide
  // whether an off-tolerance link can be *explained* as a slot error
  // (residual in the band) or discredits the fix entirely.
  slot_lo_ = std::numeric_limits<double>::infinity();
  slot_hi_ = -std::numeric_limits<double>::infinity();
  for (const auto& c : table_.cells()) {
    if (c.outliers <= 0) continue;
    const double s = std::max(c.outlier_spread_m, 0.25);
    slot_lo_ = std::min(slot_lo_, c.outlier_bias_m - 4.0 * s);
    slot_hi_ = std::max(slot_hi_, c.outlier_bias_m + 4.0 * s);
  }
  if (slot_lo_ > slot_hi_) {
    // No outlier was ever observed: fall back to "anything from the split
    // threshold up to three thresholds" (the slot offset is ~2x the
    // threshold by construction).
    slot_lo_ = table_.outlier_threshold_m();
    slot_hi_ = 3.0 * table_.outlier_threshold_m();
  }
}

void NetScaleEngine::round_begin(int round, std::vector<Event>* queue,
                                 std::uint64_t* seq) {
  const double period = cfg_.round_period_s;

  // 1. Mobility: advance every tag serially, in tag order (the model's
  //    draw-order contract).
  if (round > 0) {
    for (std::size_t t = 0; t < tags_.size(); ++t)
      mobility_.advance(t, period, &tags_[t].x, &tags_[t].y);
  }

  // 2. Fault injection: each alive anchor draws its dropout fate from the
  //    (round, anchor) sub-stream; a dropped anchor goes dark and schedules
  //    its recovery dropout_rounds later (after that round's begin, before
  //    its measure, so it serves again from that round on).
  if (cfg_.anchor_dropout > 0.0) {
    const auto later = [](const Event& a, const Event& b) {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    };
    for (std::size_t a = 0; a < anchors_.size(); ++a) {
      if (anchor_dark_[a]) continue;
      base::Rng r(chain(cfg_.seed, kFaultPurpose,
                        static_cast<std::uint64_t>(round), a));
      if (r.uniform() < cfg_.anchor_dropout) {
        anchor_dark_[a] = true;
        Event e;
        e.t = (round + cfg_.dropout_rounds) * period + 0.1 * period;
        e.seq = (*seq)++;
        e.kind = Event::kAnchorRecover;
        e.id = static_cast<int>(a);
        queue->push_back(e);
        std::push_heap(queue->begin(), queue->end(), later);
      }
    }
  }

  // 3. Refresh the common range-bias estimate from anchor-anchor links.
  refresh_bias(round);
}

void NetScaleEngine::refresh_bias(int round) {
  if (cfg_.bias_links_per_round <= 0) {
    bias_est_ = 0.0;
    return;
  }
  // Grid-adjacent anchor pairs (right + down neighbors) with both ends
  // alive, in canonical scan order. Draws are seeded by each pair's index
  // in the *static* adjacency list, so the serially-updated fault state
  // decides which pairs measure but never shifts another pair's stream.
  struct AlivePair {
    std::size_t id;    // static adjacency index (seed key)
    std::size_t a, b;  // anchor indices
  };
  const int g = cfg_.anchor_grid;
  std::vector<AlivePair> alive;
  std::size_t pair_id = 0;
  for (int row = 0; row < g; ++row) {
    for (int col = 0; col < g; ++col) {
      const std::size_t a = static_cast<std::size_t>(row) * g + col;
      if (col + 1 < g) {
        if (!anchor_dark_[a] && !anchor_dark_[a + 1])
          alive.push_back({pair_id, a, a + 1});
        ++pair_id;
      }
      if (row + 1 < g) {
        if (!anchor_dark_[a] && !anchor_dark_[a + g])
          alive.push_back({pair_id, a, a + static_cast<std::size_t>(g)});
        ++pair_id;
      }
    }
  }
  if (!alive.empty()) {
    const auto want = static_cast<std::size_t>(cfg_.bias_links_per_round);
    const std::size_t n = std::min(want, alive.size());
    // Round-robin start offset walks the selection window across rounds so
    // a handful of pairs never dominates the running estimate.
    const std::size_t start =
        (static_cast<std::size_t>(round) * want) % alive.size();
    for (std::size_t k = 0; k < n; ++k) {
      const AlivePair& p = alive[(start + k) % alive.size()];
      base::Rng rng(chain(cfg_.seed, kBiasPurpose,
                          static_cast<std::uint64_t>(round), p.id));
      const double true_d = dist2d(anchors_[p.a], anchors_[p.b]);
      const double dppm = std::abs(anchor_ppm_[p.a] - anchor_ppm_[p.b]);
      const SurrogateDraw d = table_.draw(true_d, cfg_.noise_psd, dppm,
                                          cls(), rng);
      if (!d.ok) continue;
      // Anchors know their geometry exactly: subtract the cell's
      // calibrated bias and reject wrong-slot outliers outright. What
      // accumulates is the *residual* common bias — the deployment offset
      // the surrogate calibration never saw.
      const double resid =
          d.error_m + cfg_.uncal_bias_m -
          table_.lookup(true_d, cfg_.noise_psd, dppm, cls()).bias_m;
      if (std::abs(resid) <= table_.outlier_threshold_m())
        bias_stats_.add(resid);
    }
  }
  bias_est_ = bias_stats_.count() > 0 ? bias_stats_.mean() : 0.0;
}

TagRound NetScaleEngine::measure_tag(int round, int tag) const {
  // Fault site: a simulated per-tag measurement failure, keyed by the
  // (round, tag) measurement seed so the same plan fails the same tags for
  // any --jobs value.
  base::faults::check("netscale.measure",
                      chain(cfg_.seed, kMeasurePurpose,
                            static_cast<std::uint64_t>(round),
                            static_cast<std::uint64_t>(tag)));
  TagRound out;
  const uwb::NodePosition pos = tags_[static_cast<std::size_t>(tag)];
  out.true_x = pos.x;
  out.true_y = pos.y;

  // Candidate anchors: alive and inside the link budget, nearest first
  // (ties broken by anchor index for determinism).
  const std::vector<AnchorCandidate> cand =
      anchors_in_range(cfg_, anchors_, anchor_dark_, pos);
  const std::size_t links =
      std::min(cand.size(), static_cast<std::size_t>(cfg_.max_links_per_tag));

  // One sub-stream per (round, tag), one fork per link slot: the draw
  // pattern is fixed regardless of which worker evaluates this tag.
  const base::Rng tag_rng(
      chain(cfg_.seed, kMeasurePurpose, static_cast<std::uint64_t>(round),
            static_cast<std::uint64_t>(tag)));
  std::vector<uwb::NodePosition> used;  // anchor positions of usable links
  std::vector<double> dists;            // bias-corrected measured distances
  std::vector<double> tols;             // per-link consistency tolerances
  std::vector<double> exch;  // per-exchange estimates of the current link
  for (std::size_t s = 0; s < links; ++s) {
    base::Rng lr = tag_rng.fork(s);
    if (lr.uniform() < cfg_.packet_loss) {
      ++out.draws;
      ++out.lost;
      continue;
    }
    const auto [true_d, a] = cand[s];
    const double dppm =
        std::abs(anchor_ppm_[a] - tag_ppm_[static_cast<std::size_t>(tag)]);
    // One ranging round runs exchanges_per_link TWR exchanges on the
    // link, each an independent surrogate draw from the same per-link
    // sub-stream (sequential draws, fixed pattern — deterministic for
    // any worker count).
    exch.clear();
    bool outlier_seen = false;
    for (int e = 0; e < cfg_.exchanges_per_link; ++e) {
      ++out.draws;
      const SurrogateDraw d = table_.draw(true_d, cfg_.noise_psd, dppm,
                                          cls(), lr);
      if (!d.ok) {
        ++out.failures;
        continue;
      }
      outlier_seen = outlier_seen || d.outlier;
      exch.push_back(d.distance_m);
    }
    if (exch.empty()) continue;  // every exchange failed to acquire
    if (outlier_seen) ++out.outlier_suspects;
    // Lower-median of the successful exchanges: robust to a minority of
    // wrong-slot latches, and never the average of an inlier and an
    // outlier (which would be a mid-range value no classifier can catch).
    std::sort(exch.begin(), exch.end());
    const double link_est = exch[(exch.size() - 1) / 2];
    // What the radio reports: the estimate plus any deployment bias the
    // calibration never saw.
    const double raw = link_est + cfg_.uncal_bias_m;
    // Per-link calibration: subtract the cell's fitted inlier bias (the
    // surrogate table is the shared calibration artifact every node
    // carries) and the network's residual common-bias estimate. Tag-only
    // links cannot separate a common bias from position, so the solver
    // must run with both removed. The cell is keyed on the *reported*
    // distance — the solver side does not know the true range.
    const SurrogateCell& cell =
        table_.lookup(raw, cfg_.noise_psd, dppm, cls());
    const double meas_d = std::max(0.0, raw - cell.bias_m - bias_est_);
    // Link-budget wrong-slot rejection: the radio cannot range past
    // max_range_m, so a corrected distance beyond it (+ slack for the
    // inlier tail) can only be a wrong-slot latch (~9.6 m long). Dropping
    // these up front leaves at most the short-link outliers for the
    // solver's residual trim, which handles isolated ones well.
    if (meas_d > cfg_.max_range_m + 1.5) continue;
    used.push_back(anchors_[a]);
    dists.push_back(meas_d);
    // Per-link consistency tolerance: 4 sigma of the link's *effective*
    // spread — the cell's calibrated single-exchange spread shrunk by the
    // median's variance reduction (sigma * sqrt(pi / 2n) for a gaussian
    // median of n) — floored at a quarter of the wrong-slot scale. Links
    // near the budget edge (inlier tail reaching meters) get a wide
    // tolerance — that is not evidence of a slot error — while tight
    // cells keep the tolerance small enough that a wrong fix cannot stay
    // range-consistent in weak corner geometry.
    const double eff_spread =
        exch.size() > 1
            ? cell.spread_m *
                  std::sqrt(3.14159265358979324 / (2.0 * exch.size()))
            : cell.spread_m;
    tols.push_back(std::max(0.25 * table_.outlier_threshold_m(),
                            4.0 * eff_spread));
  }
  out.links = static_cast<int>(used.size());
  if (used.size() < 3) return out;

  // Per-tag multilateration: the used anchors are the known nodes, the tag
  // is the single unknown, initialized at the used-anchor centroid.
  const auto solve_once = [&](const std::vector<uwb::NodePosition>& a,
                              const std::vector<double>& d) {
    const int n_anchors = static_cast<int>(a.size());
    std::vector<uwb::PairDistance> m;
    m.reserve(a.size());
    for (int i = 0; i < n_anchors; ++i) m.push_back({i, n_anchors, d[i]});
    uwb::NodePosition centroid;
    for (const auto& p : a) {
      centroid.x += p.x / n_anchors;
      centroid.y += p.y / n_anchors;
    }
    std::vector<uwb::NodePosition> init = a;
    init.push_back(centroid);
    return uwb::solve_positions_2d(init, n_anchors, m, cfg_.solver_sweeps)
        .back();
  };
  uwb::NodePosition est = solve_once(used, dists);

  // Wrong-slot recovery for the outliers that survived the budget filter
  // (short links). A least-squares solve dragged by a ~9.6 m slot error
  // inflates *every* residual, so post-hoc median trimming cannot separate
  // the outlier. Instead, classify each link against a candidate position
  // by its *signed* residual (measured minus predicted):
  //   * inlier     — |residual| within the link's tolerance;
  //   * slot error — residual inside the calibrated wrong-slot band
  //                  (~+9.6 m: a late latch always reads long);
  //   * unexplained— anything else.
  // A candidate is a valid fix only if every link is an inlier or an
  // identified slot error, with >= 3 inliers. This is what breaks the
  // n=4 single-fault symmetry a pure residual quantile cannot: a clean
  // triple leaves the outlier at its slot signature, while a contaminated
  // triple leaves a clean link at some arbitrary residual.
  const auto signed_res = [&](const uwb::NodePosition& p, std::size_t i) {
    return dists[i] - dist2d(p, used[i]);
  };
  struct Verdict {
    bool valid = false;
    int inliers = 0;
  };
  const auto classify = [&](const uwb::NodePosition& p) {
    Verdict v;
    int unexplained = 0;
    for (std::size_t i = 0; i < used.size(); ++i) {
      const double r = signed_res(p, i);
      if (std::abs(r) <= tols[i])
        ++v.inliers;
      else if (std::abs(r) <= table_.outlier_threshold_m() || r < slot_lo_ ||
               r > slot_hi_)
        ++unexplained;
    }
    // >= 4 inliers redundantly confirm the position, so a minority
    // unexplained link (the inlier distribution's late-multipath tail
    // reaches past 4 sigma) indicts the *link*, which the refit below
    // drops. A zero-redundancy 3-inlier fix, by contrast, is only
    // trusted when every other link is an identified slot error.
    v.valid = v.inliers >= 4 || (v.inliers >= 3 && unexplained == 0);
    return v;
  };
  // Tie-break score: median residual over the links a minimal fit does
  // not nail exactly (the first 3 order statistics of a triple fit are
  // ~0 by construction, so the plain median is blind for n <= 7).
  const auto score = [&](const uwb::NodePosition& p) {
    std::vector<double> r(used.size());
    for (std::size_t i = 0; i < used.size(); ++i)
      r[i] = std::abs(signed_res(p, i));
    const std::size_t q =
        used.size() <= 4 ? used.size() - 1 : 3 + (used.size() - 4) / 2;
    std::nth_element(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(q),
                     r.end());
    return r[q];
  };

  Verdict best_v = classify(est);
  uwb::NodePosition best = est;
  double best_score = score(est);
  if ((!best_v.valid || best_v.inliers < static_cast<int>(used.size())) &&
      used.size() >= 4) {
    // Consensus search over link triples. Links are nearest-first;
    // capping the pool bounds the cost for large max_links_per_tag
    // configurations without losing the property that any clean triple
    // suffices. Candidate order: validity first, then inlier count, then
    // the residual score.
    const std::size_t pool = std::min<std::size_t>(used.size(), 8);
    std::vector<uwb::NodePosition> ta(3);
    std::vector<double> td(3);
    for (std::size_t i = 0; i < pool; ++i)
      for (std::size_t j = i + 1; j < pool; ++j)
        for (std::size_t k = j + 1; k < pool; ++k) {
          ta[0] = used[i], ta[1] = used[j], ta[2] = used[k];
          td[0] = dists[i], td[1] = dists[j], td[2] = dists[k];
          const uwb::NodePosition cand3 = solve_once(ta, td);
          const Verdict v3 = classify(cand3);
          const double s3 = score(cand3);
          const bool better =
              v3.valid != best_v.valid
                  ? v3.valid
                  : (v3.inliers != best_v.inliers ? v3.inliers > best_v.inliers
                                                  : s3 < best_score);
          if (better) {
            best_v = v3;
            best = cand3;
            best_score = s3;
          }
        }
  }
  if (!best_v.valid) return out;  // nothing explains the batch: no fix

  // Refine on the consensus inliers, then confirm the refined fix still
  // explains every link (the refit only moves within the inlier cloud,
  // but a near-degenerate geometry could push a marginal link out).
  if (best_v.inliers < static_cast<int>(used.size())) {
    std::vector<uwb::NodePosition> ka;
    std::vector<double> kd;
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (std::abs(signed_res(best, i)) > tols[i]) continue;
      ka.push_back(used[i]);
      kd.push_back(dists[i]);
    }
    if (ka.size() < 3) return out;
    est = solve_once(ka, kd);
  } else {
    est = best;
  }
  const Verdict final_v = classify(est);
  if (!final_v.valid) return out;

  out.est_x = est.x;
  out.est_y = est.y;
  out.err_m = std::hypot(out.est_x - pos.x, out.est_y - pos.y);
  out.solved = true;
  return out;
}

NetScaleResult NetScaleEngine::run(const base::ParallelRunner* pool) {
  // Reset the serially-updated state so each run() on a fresh engine (or a
  // static-mobility re-run) starts from the same point.
  anchor_dark_.assign(anchors_.size(), false);
  bias_stats_ = base::RunningStats();
  bias_est_ = 0.0;

  const auto later = [](const Event& a, const Event& b) {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  };
  std::vector<Event> queue;
  std::uint64_t seq = 0;
  for (int r = 0; r < cfg_.rounds; ++r) {
    const double t0 = r * cfg_.round_period_s;
    queue.push_back({t0, seq++, Event::kRoundBegin, r});
    queue.push_back({t0 + 0.25 * cfg_.round_period_s, seq++,
                     Event::kRoundMeasure, r});
  }
  std::make_heap(queue.begin(), queue.end(), later);

  NetScaleResult result;
  base::RunningStats all_err2;
  std::uint64_t total_solved = 0;

  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), later);
    const Event ev = queue.back();
    queue.pop_back();

    switch (ev.kind) {
      case Event::kRoundBegin:
        round_begin(ev.id, &queue, &seq);
        break;
      case Event::kAnchorRecover:
        anchor_dark_[static_cast<std::size_t>(ev.id)] = false;
        break;
      case Event::kRoundMeasure: {
        const int round = ev.id;
        const auto n_tags = static_cast<std::size_t>(cfg_.tag_count);
        const auto task = [&](std::size_t t) {
          return measure_tag(round, static_cast<int>(t));
        };
        // Tolerant fan-out (a local serial runner when no pool is given,
        // so both paths share the retry/quarantine semantics): a tag whose
        // task still fails after retries keeps an unsolved placeholder row
        // with its true position, and is counted as quarantined.
        const base::ParallelRunner serial(1);
        const base::ParallelRunner& runner = pool != nullptr ? *pool : serial;
        std::vector<base::TaskFailure> failures;
        std::vector<TagRound> rows =
            runner.map_tolerant<TagRound>(n_tags, task, &failures);
        for (const base::TaskFailure& f : failures) {
          TagRound placeholder;
          placeholder.true_x = tags_[f.index].x;
          placeholder.true_y = tags_[f.index].y;
          rows[f.index] = placeholder;
        }

        RoundStats st;
        st.round = round;
        st.time_s = ev.t;
        st.bias_est_m = bias_est_;
        st.tags_quarantined = failures.size();
        result.quarantined += st.tags_quarantined;
        st.anchors_dark = static_cast<int>(
            std::count(anchor_dark_.begin(), anchor_dark_.end(), true));
        base::RunningStats err2;
        std::vector<double> errs;
        for (const TagRound& row : rows) {
          st.toa_draws += row.draws;
          st.toa_failures += row.failures;
          st.packets_lost += row.lost;
          st.mean_links += static_cast<double>(row.links) / cfg_.tag_count;
          if (row.solved) {
            ++st.tags_solved;
            err2.add(row.err_m * row.err_m);
            all_err2.add(row.err_m * row.err_m);
            errs.push_back(row.err_m);
          }
        }
        st.availability =
            static_cast<double>(st.tags_solved) / cfg_.tag_count;
        st.rmse_m = err2.count() > 0 ? std::sqrt(err2.mean()) : 0.0;
        if (!errs.empty()) {
          std::sort(errs.begin(), errs.end());
          const auto idx = static_cast<std::size_t>(
              std::min<double>(errs.size() - 1.0,
                               std::ceil(0.95 * errs.size()) - 1.0));
          st.p95_err_m = errs[idx];
        }
        total_solved += static_cast<std::uint64_t>(st.tags_solved);
        result.total_draws += st.toa_draws;
        result.rounds.push_back(st);
        result.tag_rounds.push_back(std::move(rows));
        break;
      }
    }
  }

  result.overall_rmse_m = all_err2.count() > 0 ? std::sqrt(all_err2.mean()) : 0.0;
  result.overall_availability =
      static_cast<double>(total_solved) /
      (static_cast<double>(cfg_.tag_count) * cfg_.rounds);
  return result;
}

}  // namespace uwbams::net
