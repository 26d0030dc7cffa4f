// random.hpp — seeded random number generation for reproducible experiments.
//
// Every stochastic element of the framework (AWGN, channel realizations,
// payload bits) draws from an explicitly seeded Rng so that experiments are
// bit-reproducible given the same seed. Distributions beyond the standard
// library (Nakagami-m, Poisson arrival processes) are provided for the
// IEEE 802.15.4a channel model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace uwbams::base {

/// The 64-bit Mersenne Twister: for every seed, the same output sequence as
/// the standard library's mt19937_64, and a drop-in engine for the standard
/// distributions.
/// Seeding is lazy. The standard engine writes all 312 state words on seed()
/// and twists all 312 on the first draw; this one seeds and twists the
/// first block a word at a time, as draws need them (word k needs the seed
/// words up to k + 156). A fresh sub-stream that draws a handful of words
/// therefore costs ~160 word steps instead of 624. Later blocks use the
/// standard full twist. Only x_[0, seeded_) is ever written or read, so a
/// fresh engine leaves the rest of its state uninitialized, and a copy
/// copies only the live words.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type s) { seed(s); }
  Mt19937_64(const Mt19937_64& o) { *this = o; }
  Mt19937_64& operator=(const Mt19937_64& o) {
    if (this != &o) {
      std::copy_n(o.x_, o.seeded_, x_);
      seeded_ = o.seeded_;
      next_ = o.next_;
      ready_ = o.ready_;
    }
    return *this;
  }

  void seed(result_type s) {
    x_[0] = s;
    seeded_ = 1;
    next_ = 0;
    ready_ = 0;
  }

  result_type operator()() {
    if (next_ == ready_) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr int kN = 312;  ///< state words
  static constexpr int kM = 156;  ///< twist offset
  /// Makes x_[next_] ready: twists the next word of the first block, or the
  /// whole next block once the first is spent.
  void refill();

  /// x_[0, seeded_) hold state (seed words not yet twisted, or twisted
  /// words); x_[0, ready_) of the current block are twisted; next_ is the
  /// next word to temper.
  result_type x_[kN];
  int seeded_ = 0;
  int next_ = 0;
  int ready_ = 0;
};

// Stateless seed mixer (splitmix64 over base ^ f(stream)). Two calls with
// the same (base, stream) always produce the same seed, and nearby streams
// land far apart, so worker seeds never collide or correlate.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : seed_(seed), engine_(seed) {}

  void reseed(std::uint64_t seed) {
    seed_ = seed;
    engine_.seed(seed);
  }

  // Seed this engine was last (re)seeded with. Draws do not change it.
  std::uint64_t seed() const { return seed_; }

  // Deterministic sub-stream: an independent Rng derived from this one's
  // *seed* (not its current state), so fork(i) yields the same stream no
  // matter how many draws happened before or which worker calls it — the
  // property that makes parallel Monte-Carlo runs reproducible regardless
  // of the job count.
  Rng fork(std::uint64_t stream) const { return Rng(derive_seed(seed_, stream)); }

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  // Standard normal (mean 0, stddev 1).
  double gaussian();
  // Normal with given mean and stddev.
  double gaussian(double mean, double stddev);
  // Exponential with given rate (mean 1/rate).
  double exponential(double rate);
  // Lognormal where the *underlying dB value* is N(mean_db, sigma_db):
  // returns 10^(N(mean_db, sigma_db)/10) — the 4a shadowing convention.
  double lognormal_db(double mean_db, double sigma_db);
  // Nakagami-m distributed *amplitude* with E[x^2] = omega.
  // Implemented by sampling a Gamma(m, omega/m) power and taking sqrt.
  double nakagami(double m, double omega);
  // Random bit (fair coin).
  bool bit();
  // Vector of random bits.
  std::vector<bool> bits(std::size_t n);

  // Next arrival time of a Poisson process with given rate, after `now`.
  double poisson_arrival_after(double now, double rate);

  /// The underlying engine, for the standard distributions and algorithms.
  Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_ = 1;
  Mt19937_64 engine_;
};

}  // namespace uwbams::base
