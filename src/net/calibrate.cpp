#include "net/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "base/faults.hpp"
#include "base/random.hpp"
#include "base/stats.hpp"
#include "core/memo.hpp"
#include "uwb/channel.hpp"

namespace uwbams::net {

namespace {

// Cell index -> (range, noise, dppm, channel class) grid coordinates,
// row-major with channel class fastest (the same order SurrogateTable
// stores cells in).
struct CellCoord {
  double range_m, noise_psd, dppm, channel_class;
};

CellCoord cell_coord(const CalibrationConfig& cfg, std::size_t cell) {
  const std::size_t nc = cfg.channel_class.size();
  const std::size_t np = cfg.dppm.size();
  const std::size_t nn = cfg.noise_psd.size();
  return {cfg.ranges_m[cell / (nn * np * nc)],
          cfg.noise_psd[(cell / (np * nc)) % nn],
          cfg.dppm[(cell / nc) % np], cfg.channel_class[cell % nc]};
}

// Per-cell statistics accumulated from a batch of exchanges.
struct CellFit {
  int samples = 0, ok = 0, outliers = 0;
  base::RunningStats inlier;
  base::RunningStats outlier;
};

CellFit fit_cell(const std::vector<uwb::TwrIteration>& its, double range_m,
                 double threshold_m) {
  CellFit f;
  for (const auto& it : its) {
    ++f.samples;
    if (!it.ok) continue;
    ++f.ok;
    const double err = it.distance_estimate - range_m;
    if (std::abs(err) > threshold_m) {
      ++f.outliers;
      f.outlier.add(err);
    } else {
      f.inlier.add(err);
    }
  }
  return f;
}

// Fans `n` exchanges tolerantly over `pool` (a local serial runner when
// null, so the serial path shares the retry/quarantine semantics). A task
// that still fails after retries keeps its default TwrIteration — ok stays
// false, so quarantined work feeds the failure-rate statistics honestly
// instead of vanishing.
std::vector<uwb::TwrIteration> run_exchanges(
    const base::ParallelRunner* pool, std::size_t n,
    const std::function<uwb::TwrIteration(std::size_t)>& run_task,
    int* quarantined) {
  const base::ParallelRunner serial(1);
  const base::ParallelRunner& runner = pool != nullptr ? *pool : serial;
  std::vector<base::TaskFailure> failures;
  auto flat = runner.map_tolerant<uwb::TwrIteration>(n, run_task, &failures);
  if (quarantined != nullptr) *quarantined = static_cast<int>(failures.size());
  return flat;
}

}  // namespace

uwb::TwrIteration run_calibration_exchange(const CalibrationConfig& cfg,
                                           std::size_t cell_index, int sample,
                                           std::uint64_t purpose,
                                           const uwb::IntegratorFactory& fact) {
  const CellCoord c = cell_coord(cfg, cell_index);
  uwb::TwrConfig twr = cfg.twr;
  twr.sys.distance = c.range_m;
  twr.noise_psd = c.noise_psd;
  // The dppm axis is the crystal *split* between the two nodes; placing
  // +/- half on each side keeps the mean network rate nominal, which is
  // how a population of U(-spread, spread) crystals actually pairs up.
  twr.clock_a.ppm = +0.5 * c.dppm;
  twr.clock_b.ppm = -0.5 * c.dppm;
  // The channel-class axis swaps in that class's multipath statistics and
  // d^n path-loss law together — a CM2 cell at 8 m really sees CM2's NLOS
  // attenuation, not CM1's.
  uwb::apply_channel_class(
      &twr.sys, static_cast<uwb::ChannelClass>(
                    static_cast<int>(c.channel_class)));
  twr.fresh_channel_per_iteration = true;
  // Per-(cell, sample) seed: every exchange is an independent realization,
  // and the (purpose, cell, sample) chain never collides with any other
  // stream in the repo. run_twr_exchange then derives the channel/noise
  // sub-streams exactly as the full-physics network layer does.
  twr.sys.seed = base::derive_seed(
      base::derive_seed(base::derive_seed(cfg.seed, purpose),
                        static_cast<std::uint64_t>(cell_index)),
      static_cast<std::uint64_t>(sample));
  // Fault site: a simulated calibration-exchange failure, keyed by the
  // exchange seed (a pure function of seed/purpose/cell/sample, so the
  // same plan fails the same exchanges for any --jobs value).
  base::faults::check("net.calibrate", twr.sys.seed);
  return uwb::run_twr_exchange(twr, fact, 0);
}

SurrogateTable calibrate_surrogate(const CalibrationConfig& cfg,
                                   const uwb::IntegratorFactory& fact,
                                   const base::ParallelRunner* pool,
                                   int* quarantined) {
  if (cfg.samples_per_cell < 2)
    throw std::invalid_argument(
        "calibrate_surrogate: need >= 2 samples per cell");
  SurrogateTable table(cfg.ranges_m, cfg.noise_psd, cfg.dppm,
                       cfg.channel_class, cfg.outlier_threshold_m, cfg.seed,
                       cfg.samples_per_cell);

  const std::size_t cells = cfg.cell_count();
  const auto n_samples = static_cast<std::size_t>(cfg.samples_per_cell);
  const auto run_task = [&](std::size_t t) {
    return run_calibration_exchange(cfg, t / n_samples,
                                    static_cast<int>(t % n_samples),
                                    kCalibratePurpose, fact);
  };
  const std::vector<uwb::TwrIteration> flat =
      run_exchanges(pool, cells * n_samples, run_task, quarantined);

  for (std::size_t c = 0; c < cells; ++c) {
    const std::vector<uwb::TwrIteration> its(
        flat.begin() + static_cast<std::ptrdiff_t>(c * n_samples),
        flat.begin() + static_cast<std::ptrdiff_t>((c + 1) * n_samples));
    const CellCoord coord = cell_coord(cfg, c);
    const CellFit f = fit_cell(its, coord.range_m, cfg.outlier_threshold_m);
    SurrogateCell& cell = table.cell_at(c);
    cell.samples = f.samples;
    cell.ok = f.ok;
    cell.outliers = f.outliers;
    cell.p_fail =
        f.samples > 0 ? 1.0 - static_cast<double>(f.ok) / f.samples : 1.0;
    cell.p_outlier =
        f.ok > 0 ? static_cast<double>(f.outliers) / f.ok : 0.0;
    cell.bias_m = f.inlier.mean();
    cell.spread_m = f.inlier.count() > 1 ? f.inlier.stddev() : 0.0;
    cell.outlier_bias_m = f.outlier.mean();
    cell.outlier_spread_m = f.outlier.count() > 1 ? f.outlier.stddev() : 0.0;
  }
  return table;
}

std::uint64_t surrogate_content_key(const CalibrationConfig& cfg,
                                    core::IntegratorKind kind) {
  CalibrationConfig copy = cfg;
  base::JsonObject fields;
  core::canonical::visit_fields(copy, core::canonical::FieldWriter{&fields});
  fields["twr"] = core::canonical::to_json(cfg.twr);
  fields["integrator"] = base::JsonValue(std::string(core::to_string(kind)));
  // /2: the memoized artifact is a schema-v2 table (channel-class axis).
  return core::canonical::content_key("uwbams-surrogate-cal/2",
                                      std::move(fields));
}

SurrogateTable load_or_calibrate_surrogate(const CalibrationConfig& cfg,
                                           core::IntegratorKind kind,
                                           const base::ParallelRunner* pool,
                                           std::optional<int>* quarantined) {
  const core::memo::Codec<SurrogateTable> codec{
      [](const SurrogateTable& t) { return t.to_json(); },
      &SurrogateTable::from_json};
  return core::memo::memoize(surrogate_content_key(cfg, kind), codec, [&] {
    int quar = 0;
    SurrogateTable table = calibrate_surrogate(
        cfg, core::make_integrator_factory(kind, cfg.twr.sys), pool, &quar);
    if (quarantined != nullptr) *quarantined = quar;
    return table;
  });
}

ValidationReport validate_surrogate(const SurrogateTable& table,
                                    const CalibrationConfig& cfg,
                                    int held_out_samples,
                                    const uwb::IntegratorFactory& fact,
                                    const base::ParallelRunner* pool) {
  if (held_out_samples < 1)
    throw std::invalid_argument("validate_surrogate: need >= 1 sample");
  const std::size_t cells = cfg.cell_count();
  if (cells != table.cell_count())
    throw std::invalid_argument(
        "validate_surrogate: config grid does not match the table");

  const auto n_samples = static_cast<std::size_t>(held_out_samples);
  const auto run_task = [&](std::size_t t) {
    return run_calibration_exchange(cfg, t / n_samples,
                                    static_cast<int>(t % n_samples),
                                    kValidatePurpose, fact);
  };
  int quarantined = 0;
  const std::vector<uwb::TwrIteration> flat =
      run_exchanges(pool, cells * n_samples, run_task, &quarantined);

  ValidationReport report;
  report.quarantined = quarantined;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::vector<uwb::TwrIteration> its(
        flat.begin() + static_cast<std::ptrdiff_t>(c * n_samples),
        flat.begin() + static_cast<std::ptrdiff_t>((c + 1) * n_samples));
    const CellCoord coord = cell_coord(cfg, c);
    const CellFit f = fit_cell(its, coord.range_m, cfg.outlier_threshold_m);
    const SurrogateCell& cell = table.cells()[c];

    CellValidation v;
    v.cell_index = c;
    v.range_m = coord.range_m;
    v.noise_psd = coord.noise_psd;
    v.dppm = coord.dppm;
    v.channel_class = coord.channel_class;
    v.samples = f.samples;
    v.ok = f.ok;
    v.outliers = f.outliers;
    v.held_bias_m = f.inlier.mean();
    v.held_spread_m = f.inlier.count() > 1 ? f.inlier.stddev() : 0.0;

    const auto n_cal = static_cast<double>(cell.ok - cell.outliers);
    const double n_val = static_cast<double>(f.inlier.count());
    // Judge only cells where both sides have enough inliers for the
    // two-sample bounds to be meaningful.
    v.checked = n_cal >= 4.0 && n_val >= 3.0;
    if (v.checked) {
      // Bias: 3-sigma two-sample bound with a pooled spread, floored at
      // 0.15 m — the fine-ToA search is quantized (fine_step = 2 ns is
      // 0.3 m of one-way range), so tiny-spread cells still differ by a
      // quantization step legitimately.
      const double pooled =
          std::max({cell.spread_m, v.held_spread_m, 0.05});
      v.bias_bound_m =
          3.0 * pooled * std::sqrt(1.0 / n_cal + 1.0 / n_val) + 0.15;
      v.bias_delta_m = std::abs(v.held_bias_m - cell.bias_m);
      v.bias_ok = v.bias_delta_m <= v.bias_bound_m;

      // Spread: ratio band standing in for an F-test (both sides floored
      // by one quantization step). The inlier batch is itself a mixture —
      // clean latches plus late multipath latches below the outlier
      // threshold — so its sample stddev fluctuates well beyond gaussian
      // chi-square at these counts; the band widens with 1/sqrt(n)
      // (4.5 sigma in log-space) and is never tighter than [1/3.3, 3.3].
      const double s_cal = std::max(cell.spread_m, 0.15);
      const double s_val = std::max(v.held_spread_m, 0.15);
      const double ratio = s_val / s_cal;
      const double log_sigma =
          std::sqrt(0.5 / (n_cal - 1.0) + 0.5 / (n_val - 1.0));
      const double band = std::max(3.3, std::exp(4.5 * log_sigma));
      v.spread_ok = ratio >= 1.0 / band && ratio <= band;

      // Outlier and failure rates: 3-sigma binomial bounds around the
      // fitted probabilities, widened by 2/n so a single unlucky draw in a
      // small held-out batch cannot fail the gate.
      const auto binom_ok = [](double p_fit, int hits, int trials) {
        if (trials <= 0) return true;
        const double p_obs = static_cast<double>(hits) / trials;
        const double sigma =
            std::sqrt(std::max(p_fit * (1.0 - p_fit), 1e-12) / trials);
        return std::abs(p_obs - p_fit) <= 3.0 * sigma + 2.0 / trials;
      };
      v.outlier_ok = binom_ok(cell.p_outlier, f.outliers, f.ok);
      v.fail_rate_ok = binom_ok(cell.p_fail, f.samples - f.ok, f.samples);
    }
    if (v.checked) {
      ++report.checked;
      if (v.pass()) ++report.passed;
    }
    report.cells.push_back(v);
  }
  return report;
}

}  // namespace uwbams::net
