#include "uwb/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "base/units.hpp"

namespace uwbams::uwb {

double ChannelRealization::total_energy() const {
  double e = 0.0;
  for (const auto& t : taps) e += t.gain * t.gain;
  return e;
}

double ChannelRealization::rms_delay_spread() const {
  const double e = total_energy();
  if (e <= 0.0) return 0.0;
  double m1 = 0.0, m2 = 0.0;
  for (const auto& t : taps) {
    const double p = t.gain * t.gain / e;
    m1 += p * t.delay;
    m2 += p * t.delay * t.delay;
  }
  return std::sqrt(std::max(m2 - m1 * m1, 0.0));
}

double ChannelRealization::mean_excess_delay() const {
  const double e = total_energy();
  if (e <= 0.0) return 0.0;
  double m1 = 0.0;
  for (const auto& t : taps) m1 += t.gain * t.gain / e * t.delay;
  return m1;
}

double ChannelRealization::peak_gain() const {
  double g = 0.0;
  for (const auto& t : taps) g = std::max(g, std::abs(t.gain));
  return g;
}

const char* to_string(ChannelClass c) {
  switch (c) {
    case ChannelClass::kCm1: return "cm1";
    case ChannelClass::kCm2: return "cm2";
    case ChannelClass::kCm3: return "cm3";
    case ChannelClass::kCm4: return "cm4";
  }
  return "?";
}

bool parse_channel_class(const std::string& text, ChannelClass* out) {
  for (const ChannelClass c : {ChannelClass::kCm1, ChannelClass::kCm2,
                               ChannelClass::kCm3, ChannelClass::kCm4}) {
    if (text == to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

// TG4a final-report cluster/ray columns. CM1 must equal the struct
// defaults exactly — test_channel pins `channel_class_params(kCm1) == {}`
// and every historical scenario rides on that identity.
SalehValenzuelaParams channel_class_params(ChannelClass cls) {
  SalehValenzuelaParams p;  // the CM1 column
  switch (cls) {
    case ChannelClass::kCm1:
      break;
    case ChannelClass::kCm2:  // residential NLOS
      p.cluster_rate = 0.12e9;
      p.ray_rate1 = 1.77e9;
      p.ray_rate2 = 0.15e9;
      p.ray_mix_beta = 0.045;
      p.cluster_decay = 26.27e-9;
      p.ray_decay = 17.50e-9;
      p.mean_clusters = 3.5;
      p.los = false;
      p.max_excess_delay = 200e-9;
      break;
    case ChannelClass::kCm3:  // office LOS
      p.cluster_rate = 0.016e9;
      p.ray_rate1 = 0.19e9;
      p.ray_rate2 = 2.97e9;
      p.ray_mix_beta = 0.0184;
      p.cluster_decay = 14.6e-9;
      p.ray_decay = 6.4e-9;
      p.mean_clusters = 5.4;
      break;
    case ChannelClass::kCm4:  // office NLOS
      p.cluster_rate = 0.19e9;
      p.ray_rate1 = 0.11e9;
      p.ray_rate2 = 2.09e9;
      p.ray_mix_beta = 0.0096;
      p.cluster_decay = 19.8e-9;
      p.ray_decay = 11.2e-9;
      p.mean_clusters = 3.1;
      p.los = false;
      p.max_excess_delay = 200e-9;
      break;
  }
  return p;
}

void channel_class_path_loss(ChannelClass cls, double* exponent,
                             double* pl0_db) {
  switch (cls) {
    case ChannelClass::kCm1: *exponent = 1.79; *pl0_db = 43.9; return;
    case ChannelClass::kCm2: *exponent = 4.58; *pl0_db = 48.7; return;
    case ChannelClass::kCm3: *exponent = 1.63; *pl0_db = 35.4; return;
    case ChannelClass::kCm4: *exponent = 3.07; *pl0_db = 57.9; return;
  }
  throw std::invalid_argument("channel_class_path_loss: bad class");
}

void apply_channel_class(SystemConfig* sys, ChannelClass cls) {
  sys->channel_class = cls;
  channel_class_path_loss(cls, &sys->path_loss_exponent,
                          &sys->path_loss_db_1m);
}

ChannelRealization generate_sv(base::Rng& rng,
                               const SalehValenzuelaParams& p) {
  ChannelRealization cr;

  // Number of clusters: Poisson with mean L-bar, at least one (the LOS
  // cluster at zero excess delay).
  int n_clusters = 0;
  {
    // Poisson(mean_clusters) by exponential inter-arrival counting: the
    // number of rate-L arrivals in a unit interval.
    double acc = rng.exponential(p.mean_clusters);
    while (acc < 1.0) {
      ++n_clusters;
      acc += rng.exponential(p.mean_clusters);
    }
    n_clusters = std::max(1, n_clusters);
  }

  double t_cluster = 0.0;
  for (int c = 0; c < n_clusters; ++c) {
    if (c > 0) t_cluster = rng.poisson_arrival_after(t_cluster, p.cluster_rate);
    if (t_cluster > p.max_excess_delay) break;
    const double cluster_power = std::exp(-t_cluster / p.cluster_decay);

    double t_ray = 0.0;
    bool first_ray = true;
    while (true) {
      if (!first_ray) {
        const double rate =
            (rng.uniform() < p.ray_mix_beta) ? p.ray_rate1 : p.ray_rate2;
        t_ray = rng.poisson_arrival_after(t_ray, rate);
      }
      first_ray = false;
      if (t_cluster + t_ray > p.max_excess_delay) break;
      const double omega =
          cluster_power * std::exp(-t_ray / p.ray_decay);
      if (omega < 1e-5 * cluster_power && t_ray > 3.0 * p.ray_decay) break;
      // Nakagami-m magnitude with lognormal m (clamped to >= 0.5 where the
      // Nakagami distribution is defined). The gaussian is drawn even when
      // the first-path override applies — the draw order is pinned. LOS
      // classes give the first path the higher first-component m of the
      // 4a report; NLOS classes fade every ray.
      double m = p.nakagami_m_median *
                 std::exp(p.nakagami_m_sigma * rng.gaussian());
      if (p.los && c == 0 && t_ray == 0.0) m = p.nakagami_m_first;
      m = std::max(m, 0.5);
      const double amp = rng.nakagami(m, omega);
      const double sign = rng.bit() ? 1.0 : -1.0;
      cr.taps.push_back({t_cluster + t_ray, sign * amp});
      if (static_cast<int>(cr.taps.size()) > 16 * p.max_taps) break;
    }
  }
  if (cr.taps.empty()) cr.taps.push_back({0.0, 1.0});

  // Keep the strongest max_taps taps (coverage vs. cost trade documented in
  // DESIGN.md), re-sort by delay, then normalize to unit energy.
  std::sort(cr.taps.begin(), cr.taps.end(),
            [](const ChannelTap& a, const ChannelTap& b) {
              return std::abs(a.gain) > std::abs(b.gain);
            });
  if (static_cast<int>(cr.taps.size()) > p.max_taps)
    cr.taps.resize(static_cast<std::size_t>(p.max_taps));
  std::sort(cr.taps.begin(), cr.taps.end(),
            [](const ChannelTap& a, const ChannelTap& b) {
              return a.delay < b.delay;
            });
  // Shift so the first kept tap defines zero excess delay (the LOS path).
  const double t0 = cr.taps.front().delay;
  for (auto& t : cr.taps) t.delay -= t0;

  const double e = cr.total_energy();
  const double norm = 1.0 / std::sqrt(e);
  for (auto& t : cr.taps) t.gain *= norm;
  return cr;
}

std::vector<ChannelRealization> draw_realizations(
    ChannelClass /*cls*/, const SalehValenzuelaParams& params,
    std::uint64_t seed, int count) {
  base::Rng rng(seed);
  std::vector<ChannelRealization> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(generate_sv(rng, params));
  return out;
}

double path_loss_db(double distance_m, double pl0_db, double exponent) {
  if (distance_m <= 0.0)
    throw std::invalid_argument("path_loss_db: distance must be positive");
  return pl0_db + 10.0 * exponent * std::log10(distance_m);
}

ChannelBlock::ChannelBlock(const SystemConfig& cfg, const double* input)
    : cfg_(cfg), in_(input), n0_(cfg.noise_psd), distance_(cfg.distance),
      rng_(cfg.seed) {
  taps_.push_back({0.0, 1.0});
  rebuild_taps();
}

void ChannelBlock::set_realization(const ChannelRealization& realization,
                                   double amplitude_scale) {
  taps_ = realization.taps;
  scale_ = amplitude_scale;
  rebuild_taps();
}

void ChannelBlock::set_awgn_only(double amplitude_scale) {
  taps_.assign(1, ChannelTap{0.0, 1.0});
  scale_ = amplitude_scale;
  rebuild_taps();
}

void ChannelBlock::set_distance(double meters) {
  distance_ = meters;
  rebuild_taps();
}

void ChannelBlock::set_input_delay(int samples) {
  if (samples < 0)
    throw std::invalid_argument("ChannelBlock: negative input delay");
  input_delay_ = samples;
  rebuild_taps();
}

void ChannelBlock::rebuild_taps() {
  // Guard for the reconfiguration contract (see header): a rebuild resets
  // the line, so any waveform still propagating is silently dropped. Only
  // *live* history counts — the ring slots a tap of the outgoing
  // configuration could still read (the last max-delay samples); expired
  // samples awaiting overwrite are not in flight.
  if (!delay_line_.empty() && !sampled_.empty()) {
    const std::size_t len = delay_line_.size();
    for (std::size_t k = 1; k <= static_cast<std::size_t>(max_delay_); ++k) {
      if (delay_line_[(write_pos_ + len - k) % len] != 0.0) {
        ++history_discards_;
        break;
      }
    }
  }
  const double prop_delay = distance_ / units::speed_of_light;
  sampled_.clear();
  max_delay_ = 0;
  for (const auto& t : taps_) {
    const int d =
        static_cast<int>(std::round((prop_delay + t.delay) / cfg_.dt)) +
        input_delay_;
    const double g = t.gain * scale_;
    // Taps read backwards and with finite gains, or a silent line would
    // not sum to exactly +0.0 (see step_block).
    if (d < 0 || !std::isfinite(g))
      throw std::invalid_argument(
          "ChannelBlock: tap needs a delay >= 0 and a finite gain");
    sampled_.push_back({d, g});
    max_delay_ = std::max(max_delay_, d);
  }
  // kMaxBatch slots of headroom beyond the longest tap: step_block() writes
  // the whole batch before any tap reads, and the headroom guarantees those
  // writes never land on a slot an in-flight tap still needs.
  delay_line_.assign(
      static_cast<std::size_t>(std::max(max_delay_, 1) + 2) + ams::kMaxBatch,
      0.0);
  write_pos_ = 0;
  silent_ = delay_line_.size();
}

void ChannelBlock::step_block(const double* /*t*/, double /*dt*/, int n) {
  const std::size_t len = delay_line_.size();
  // Phase 1: write the whole batch into the ring. Tap reads only ever look
  // backwards (delay >= 0), and the kMaxBatch headroom keeps these writes
  // clear of every slot a tap can still read, so pre-writing is equivalent
  // to the per-sample interleaving. -0.0 and a null input count as silence.
  {
    std::size_t w = write_pos_;
    int last_loud = -1;
    for (int i = 0; i < n; ++i) {
      const double x = (in_ != nullptr) ? in_[i] : 0.0;
      delay_line_[w] = x;
      last_loud = (x != 0.0) ? i : last_loud;
      if (++w == len) w = 0;
    }
    silent_ = last_loud < 0
                  ? std::min(silent_ + static_cast<std::size_t>(n), len)
                  : static_cast<std::size_t>(n - 1 - last_loud);
  }
  // Phase 2: accumulate taps. Looping taps outer / samples inner adds each
  // sample's contributions in tap order whatever the batch size, so the
  // floating-point sums do not depend on batch cuts. Each tap reads the ring as at
  // most two contiguous spans (up to the end of the line, then from its
  // start), so the inner loops carry no wrap branch. The batch's taps read
  // the newest max_delay_ + n slots; when all of those are silent, every
  // sum is exactly +0.0 and the pass is skipped.
  for (int i = 0; i < n; ++i) out_[i] = 0.0;
  if (silent_ < static_cast<std::size_t>(max_delay_ + n)) {
    const double* line = delay_line_.data();
    for (const auto& tap : sampled_) {
      const std::size_t idx =
          (write_pos_ + len - static_cast<std::size_t>(tap.delay_samples)) %
          len;
      const double g = tap.gain;
      const int head = static_cast<int>(
          std::min(static_cast<std::size_t>(n), len - idx));
      const double* span = line + idx;
      for (int i = 0; i < head; ++i) out_[i] += g * span[i];
      for (int i = head; i < n; ++i) out_[i] += g * line[i - head];
    }
  }
  // Phase 3: the AWGN draws, one per sample in sample order, so the RNG
  // sequence does not depend on batch cuts.
  if (n0_ > 0.0) {
    const double s = std::sqrt(0.5 * n0_ * cfg_.sample_rate());
    for (int i = 0; i < n; ++i) out_[i] += rng_.gaussian() * s;
  }
  write_pos_ = (write_pos_ + static_cast<std::size_t>(n)) % len;
}

}  // namespace uwbams::uwb
