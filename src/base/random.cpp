#include "base/random.hpp"

#include <algorithm>
#include <cmath>

namespace uwbams::base {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // splitmix64 (Steele/Lea/Flood) over the combined value; the golden-ratio
  // stride decorrelates consecutive stream indices before mixing.
  std::uint64_t z = base ^ (stream + 0x9e3779b97f4a7c15ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  // Never hand back 0: mt19937_64 accepts it, but a zero seed is a common
  // sentinel in configs and would alias with "unset".
  return z ? z : 0x9e3779b97f4a7c15ull;
}

void Mt19937_64::refill() {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const auto twist = [](std::uint64_t cur, std::uint64_t succ,
                        std::uint64_t far) {
    const std::uint64_t y = (cur & kUpper) | (succ & ~kUpper);
    // Branch-free: the low bit of y is a coin flip no predictor learns.
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ull);
  };
  if (ready_ == kN) {
    // The standard in-place twist of the whole block.
    for (int k = 0; k < kN - kM; ++k)
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (int k = kN - kM; k < kN - 1; ++k)
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    next_ = 0;
    return;
  }
  // First block: the same in-place recurrence one word at a time, seeding
  // just far enough ahead to supply its successor and its far word.
  const int k = ready_;
  for (const int need = std::min(k + kM, kN - 1) + 1; seeded_ < need;
       ++seeded_) {
    const std::uint64_t prev = x_[seeded_ - 1];
    x_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) +
                  static_cast<std::uint64_t>(seeded_);
  }
  x_[k] = twist(x_[k], x_[k + 1 < kN ? k + 1 : 0],
                x_[k + kM < kN ? k + kM : k + kM - kN]);
  ++ready_;
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::gaussian() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

double Rng::lognormal_db(double mean_db, double sigma_db) {
  const double db = gaussian(mean_db, sigma_db);
  return std::pow(10.0, db / 10.0);
}

double Rng::nakagami(double m, double omega) {
  // Power of a Nakagami-m amplitude is Gamma(shape=m, scale=omega/m).
  std::gamma_distribution<double> gamma(m, omega / m);
  return std::sqrt(gamma(engine_));
}

bool Rng::bit() { return uniform_int(0, 1) != 0; }

std::vector<bool> Rng::bits(std::size_t n) {
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = bit();
  return out;
}

double Rng::poisson_arrival_after(double now, double rate) {
  return now + exponential(rate);
}

}  // namespace uwbams::base
