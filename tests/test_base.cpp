// Tests for base utilities: random distributions, statistics, tables, traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "base/random.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/trace.hpp"
#include "base/units.hpp"

namespace {

using namespace uwbams;
using base::Rng;

TEST(Units, DbConversionsRoundTrip) {
  EXPECT_NEAR(units::db_to_lin(20.0), 10.0, 1e-12);
  EXPECT_NEAR(units::lin_to_db(100.0), 40.0, 1e-12);
  EXPECT_NEAR(units::db_to_pow(10.0), 10.0, 1e-12);
  EXPECT_NEAR(units::pow_to_db(1000.0), 30.0, 1e-12);
  for (double db : {-17.0, -3.0, 0.0, 6.0, 21.0}) {
    EXPECT_NEAR(units::lin_to_db(units::db_to_lin(db)), db, 1e-9);
    EXPECT_NEAR(units::pow_to_db(units::db_to_pow(db)), db, 1e-9);
  }
}

TEST(Units, ThermalVoltage) {
  EXPECT_NEAR(units::thermal_voltage(27.0), 0.02585, 2e-4);
}

TEST(Rng, Reproducible) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  base::RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  base::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.exponential(4.0));
  EXPECT_NEAR(st.mean(), 0.25, 0.01);
}

TEST(Rng, NakagamiSecondMoment) {
  // E[x^2] must equal omega for any m.
  Rng rng(13);
  for (double m : {0.7, 1.0, 3.0}) {
    base::RunningStats st;
    for (int i = 0; i < 100000; ++i) {
      const double x = rng.nakagami(m, 2.5);
      st.add(x * x);
    }
    EXPECT_NEAR(st.mean(), 2.5, 0.08) << "m=" << m;
  }
}

TEST(Rng, NakagamiM1IsRayleigh) {
  // m=1 Nakagami amplitude = Rayleigh: var(x^2) = omega^2.
  Rng rng(17);
  base::RunningStats st;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.nakagami(1.0, 1.0);
    st.add(x * x);
  }
  EXPECT_NEAR(st.variance(), 1.0, 0.05);
}

TEST(Rng, LognormalDbMedian) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(rng.lognormal_db(0.0, 3.0));
  EXPECT_NEAR(base::percentile_of(xs, 50.0), 1.0, 0.05);
}

TEST(Rng, PoissonArrivalRate) {
  Rng rng(23);
  double t = 0.0;
  int count = 0;
  while (t < 1000.0) {
    t = rng.poisson_arrival_after(t, 5.0);
    ++count;
  }
  EXPECT_NEAR(count / 1000.0, 5.0, 0.3);
}

// ---- stream identity: Rng draws the std::mt19937_64 sequence bit for bit.
// The engine seeds and twists its first 312-word block lazily, so every
// check runs past the 312- and 624-word block edges.

using StdMt = std::mt19937_64;

// The edges of the seed space plus derive_seed outputs (what every
// sub-stream in the repo is seeded with).
std::vector<std::uint64_t> identity_seeds() {
  const std::uint64_t max = ~std::uint64_t{0};
  return {0, 1, max, base::derive_seed(1, 0), base::derive_seed(42, 7),
          base::derive_seed(max, 123456)};
}

constexpr int kIdentityDraws = 700;

// One Rng method and its reference: the same standard distribution driven
// by a plain std::mt19937_64.
struct MethodPair {
  const char* name;
  std::function<double(Rng&)> draw;
  std::function<double(StdMt&)> reference;
};

std::vector<MethodPair> method_pairs() {
  const auto normal = [](double m, double s, StdMt& e) {
    return std::normal_distribution<double>(m, s)(e);
  };
  const auto uniform_int = [](int lo, int hi, StdMt& e) {
    return std::uniform_int_distribution<int>(lo, hi)(e);
  };
  const auto exponential = [](double rate, StdMt& e) {
    return std::exponential_distribution<double>(rate)(e);
  };
  const auto nakagami = [](double m, double omega, StdMt& e) {
    return std::sqrt(std::gamma_distribution<double>(m, omega / m)(e));
  };
  return {
      {"uniform", [](Rng& r) { return r.uniform(); },
       [](StdMt& e) {
         return std::uniform_real_distribution<double>(0.0, 1.0)(e);
       }},
      {"uniform(lo, hi)", [](Rng& r) { return r.uniform(-3.0, 5.0); },
       [](StdMt& e) {
         return std::uniform_real_distribution<double>(-3.0, 5.0)(e);
       }},
      {"uniform_int", [](Rng& r) { return 1.0 * r.uniform_int(-7, 1000); },
       [=](StdMt& e) { return 1.0 * uniform_int(-7, 1000, e); }},
      {"gaussian", [](Rng& r) { return r.gaussian(); },
       [=](StdMt& e) { return normal(0.0, 1.0, e); }},
      {"gaussian(mean, stddev)", [](Rng& r) { return r.gaussian(2.0, 0.5); },
       [=](StdMt& e) { return normal(2.0, 0.5, e); }},
      {"exponential", [](Rng& r) { return r.exponential(4.0); },
       [=](StdMt& e) { return exponential(4.0, e); }},
      {"lognormal_db", [](Rng& r) { return r.lognormal_db(-3.0, 4.8); },
       [=](StdMt& e) { return std::pow(10.0, normal(-3.0, 4.8, e) / 10.0); }},
      {"nakagami(m < 1)", [](Rng& r) { return r.nakagami(0.7, 2.0); },
       [=](StdMt& e) { return nakagami(0.7, 2.0, e); }},
      {"nakagami(m > 1)", [](Rng& r) { return r.nakagami(3.5, 0.5); },
       [=](StdMt& e) { return nakagami(3.5, 0.5, e); }},
      {"bit", [](Rng& r) { return r.bit() ? 1.0 : 0.0; },
       [=](StdMt& e) { return uniform_int(0, 1, e) != 0 ? 1.0 : 0.0; }},
      {"bits",
       [](Rng& r) {
         double packed = 0.0;
         for (bool b : r.bits(5)) packed = 2.0 * packed + (b ? 1.0 : 0.0);
         return packed;
       },
       [=](StdMt& e) {
         double packed = 0.0;
         for (int i = 0; i < 5; ++i)
           packed = 2.0 * packed + (uniform_int(0, 1, e) != 0 ? 1.0 : 0.0);
         return packed;
       }},
      {"poisson_arrival_after",
       [](Rng& r) { return r.poisson_arrival_after(1.5, 2.0); },
       [=](StdMt& e) { return 1.5 + exponential(2.0, e); }},
  };
}

TEST(RngStream, EngineWordsMatchStdMt19937_64) {
  static_assert(base::Mt19937_64::min() == StdMt::min());
  static_assert(base::Mt19937_64::max() == StdMt::max());
  for (const std::uint64_t seed : identity_seeds()) {
    base::Mt19937_64 lazy(seed);
    StdMt ref(seed);
    int mismatches = 0;
    for (int i = 0; i < 2000; ++i) mismatches += lazy() != ref() ? 1 : 0;
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

// Copies carry only the live state words: a copy (or an assignment over an
// engine further along) taken mid-way through the lazily seeded first block,
// at its end, or in a later block continues the stream exactly, and so does
// the original.
TEST(RngStream, EngineCopyKeepsTheStream) {
  constexpr int kTail = 1000;  // runs past the next block boundary
  for (const std::uint64_t seed : identity_seeds()) {
    for (const int drawn : {0, 5, 157, 312, 700}) {
      base::Mt19937_64 original(seed);
      StdMt ref(seed);
      for (int i = 0; i < drawn; ++i) {
        original();
        ref();
      }
      base::Mt19937_64 copied(original);
      base::Mt19937_64 assigned(seed ^ 1);
      for (int i = 0; i < 400; ++i) assigned();
      assigned = original;
      base::Mt19937_64& self = assigned;
      assigned = self;
      int mismatches = 0;
      for (int j = 0; j < kTail; ++j) {
        const std::uint64_t want = ref();
        mismatches += copied() != want ? 1 : 0;
        mismatches += assigned() != want ? 1 : 0;
        mismatches += original() != want ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << ", copied after "
                               << drawn << " draws";
    }
  }
}

TEST(RngStream, EveryMethodMatchesStdDistributions) {
  const std::vector<MethodPair> methods = method_pairs();
  for (const std::uint64_t seed : identity_seeds()) {
    // Each method alone: the first n draws match for every n <= 700.
    for (const MethodPair& m : methods) {
      Rng rng(seed);
      StdMt ref(seed);
      int mismatches = 0;
      for (int i = 0; i < kIdentityDraws; ++i)
        mismatches += m.draw(rng) != m.reference(ref) ? 1 : 0;
      EXPECT_EQ(mismatches, 0) << m.name << ", seed " << seed;
    }
    // All methods interleaved in one stream.
    Rng rng(seed);
    StdMt ref(seed);
    int mismatches = 0;
    for (int i = 0; i < kIdentityDraws; ++i) {
      const MethodPair& m =
          methods[static_cast<std::size_t>(i) % methods.size()];
      mismatches += m.draw(rng) != m.reference(ref) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0) << "interleaved, seed " << seed;
  }
}

TEST(RngStream, CopyForkAndReseedContinueIdentically) {
  constexpr int kTail = 64;
  for (const std::uint64_t seed : identity_seeds()) {
    StdMt ref_engine(seed);
    std::vector<std::uint64_t> ref(kIdentityDraws + kTail);
    for (auto& w : ref) w = ref_engine();
    int mismatches = 0;
    for (int k = 0; k <= kIdentityDraws; ++k) {
      Rng rng(seed);
      for (int i = 0; i < k; ++i) rng.engine()();
      Rng copied = rng;
      Rng assigned(99);
      assigned.engine()();
      assigned = rng;
      for (int j = 0; j < kTail; ++j) {
        const std::uint64_t want = ref[static_cast<std::size_t>(k + j)];
        mismatches += copied.engine()() != want ? 1 : 0;
        mismatches += assigned.engine()() != want ? 1 : 0;
        mismatches += rng.engine()() != want ? 1 : 0;
      }
      // fork() depends on the seed alone, never on the draws made so far.
      Rng forked = rng.fork(static_cast<std::uint64_t>(k));
      StdMt fork_ref(base::derive_seed(seed, static_cast<std::uint64_t>(k)));
      for (int j = 0; j < kTail; ++j)
        mismatches += forked.engine()() != fork_ref() ? 1 : 0;
      // reseed() mid-stream restarts the new seed's sequence from its start.
      const std::uint64_t reseed = base::derive_seed(seed, 1000 + k);
      rng.reseed(reseed);
      EXPECT_EQ(rng.seed(), reseed);
      StdMt reseed_ref(reseed);
      for (int j = 0; j < kTail; ++j)
        mismatches += rng.engine()() != reseed_ref() ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(RunningStats, AgainstClosedForm) {
  base::RunningStats st;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) st.add(x);
  EXPECT_EQ(st.count(), 5u);
  EXPECT_DOUBLE_EQ(st.mean(), 4.0);
  EXPECT_NEAR(st.variance(), 12.5, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 10.0);
}

TEST(RunningStats, MatchesBatchHelpers) {
  Rng rng(3);
  std::vector<double> xs;
  base::RunningStats st;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.uniform(-5, 5));
    st.add(xs.back());
  }
  EXPECT_NEAR(st.mean(), base::mean_of(xs), 1e-9);
  EXPECT_NEAR(st.variance(), base::variance_of(xs), 1e-9);
}

TEST(BerCounter, CountsAndInterval) {
  base::BerCounter c;
  for (int i = 0; i < 1000; ++i) c.add(i % 100 == 0);
  EXPECT_EQ(c.bits(), 1000u);
  EXPECT_EQ(c.errors(), 10u);
  EXPECT_DOUBLE_EQ(c.ber(), 0.01);
  EXPECT_GT(c.half_width_95(), 0.0);
  EXPECT_LT(c.half_width_95(), 0.02);
  EXPECT_TRUE(c.converged(10));
  EXPECT_FALSE(c.converged(11));
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(base::percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(base::percentile_of(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(base::percentile_of(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(base::percentile_of(xs, 25), 2.0);
}

TEST(Stats, QuantileSummaryEdgeCases) {
  // Empty: a well-defined all-zero summary (count 0), not a throw or UB
  // interpolation indices.
  const auto empty = base::summarize_quantiles({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.min, 0.0);
  EXPECT_EQ(empty.p05, 0.0);
  EXPECT_EQ(empty.p95, 0.0);
  EXPECT_EQ(empty.max, 0.0);

  // Single element: every quantile collapses onto the value.
  const auto one = base::summarize_quantiles({42.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.5);
  EXPECT_DOUBLE_EQ(one.min, 42.5);
  EXPECT_DOUBLE_EQ(one.p05, 42.5);
  EXPECT_DOUBLE_EQ(one.p50, 42.5);
  EXPECT_DOUBLE_EQ(one.p95, 42.5);
  EXPECT_DOUBLE_EQ(one.max, 42.5);

  // Two elements interpolate sanely (no index overrun at the extremes).
  const auto two = base::summarize_quantiles({1.0, 3.0});
  EXPECT_EQ(two.count, 2u);
  EXPECT_DOUBLE_EQ(two.min, 1.0);
  EXPECT_DOUBLE_EQ(two.max, 3.0);
  EXPECT_DOUBLE_EQ(two.p50, 2.0);
  EXPECT_GE(two.p05, 1.0);
  EXPECT_LE(two.p95, 3.0);

  // percentile_of keeps its contract: the empty input still throws (the
  // summary wrapper is the defined-degenerate entry point).
  EXPECT_THROW(base::percentile_of({}, 50.0), std::invalid_argument);
}

TEST(Stats, LineFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.5 - 0.25 * i);
  }
  const auto f = base::fit_line(x, y);
  EXPECT_NEAR(f.intercept, 3.5, 1e-9);
  EXPECT_NEAR(f.slope, -0.25, 1e-9);
}

TEST(Table, RendersAllCells) {
  base::Table t("Table X. demo");
  t.set_header({"model", "value"});
  t.add_row({"IDEAL", base::Table::num(1.5, 2)});
  t.add_row({"ELDO", base::Table::num(2.25, 2)});
  const std::string s = t.render();
  EXPECT_NE(s.find("Table X. demo"), std::string::npos);
  EXPECT_NE(s.find("IDEAL"), std::string::npos);
  EXPECT_NE(s.find("2.25"), std::string::npos);
}

namespace {

std::string printf_fixed(double v, int precision) {
  std::vector<char> buf(
      static_cast<std::size_t>(
          std::snprintf(nullptr, 0, "%.*f", precision, v)) + 1);
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
  return buf.data();
}

std::string append_fixed(double v, int precision) {
  std::string s;
  base::append_fixed(&s, v, precision);
  return s;
}

}  // namespace

// append_fixed (behind Table::num and positions.csv) prints what printf
// "%.*f" prints, edge values and random bit patterns alike.
TEST(Table, AppendFixedMatchesPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0, -0.0, 5e-7, -5e-7, 2.5e-7, 1.5e-6, 0.5, 1.5, 2.5, -2.5,
      0.125, 1e-300, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3, 1e300, -1e300,
      std::numeric_limits<double>::max(), inf, -inf, nan, -nan};
  for (int p = 0; p <= 9; ++p)
    for (const double v : edges)
      EXPECT_EQ(append_fixed(v, p), printf_fixed(v, p)) << v << " at " << p;
  int mismatches = 0;
  std::mt19937_64 bits(2024);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t w = bits();
    double v;
    std::memcpy(&v, &w, sizeof v);
    const int p = i % 10;
    mismatches += append_fixed(v, p) != printf_fixed(v, p) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0);
  // Appends after what the string holds; precisions past the stack buffer
  // take the heap path.
  std::string s = "x=";
  base::append_fixed(&s, 1.25, 3);
  EXPECT_EQ(s, "x=1.250");
  EXPECT_EQ(append_fixed(1.0 / 3.0, 400), printf_fixed(1.0 / 3.0, 400));
  EXPECT_EQ(append_fixed(-std::numeric_limits<double>::max(), 250),
            printf_fixed(-std::numeric_limits<double>::max(), 250));
}

// Table::num keeps the strings it printed through snprintf.
TEST(Table, NumKeepsItsStrings) {
  EXPECT_EQ(base::Table::num(1.5, 2), "1.50");
  EXPECT_EQ(base::Table::num(2.25, 1), "2.2");  // ties round to even
  EXPECT_EQ(base::Table::num(-0.0), "-0.0000");
  EXPECT_EQ(base::Table::num(2.675, 2), "2.67");  // 2.675 is just below the tie
  EXPECT_EQ(base::Table::num(123456.789, 0), "123457");
  EXPECT_EQ(base::Table::num(std::numeric_limits<double>::infinity()), "inf");
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> mag(-12.0, 12.0);
  int mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, mag(gen)) * (i % 2 ? -1.0 : 1.0);
    const int p = i % 10;
    mismatches += base::Table::num(v, p) != printf_fixed(v, p) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Series, StoresColumnsAndPlots) {
  base::Series s("fig", "x");
  s.add_column("a");
  s.add_column("b");
  for (int i = 1; i <= 10; ++i)
    s.add_row(i, {static_cast<double>(i), 1.0 / i});
  EXPECT_EQ(s.rows(), 10u);
  EXPECT_THROW(s.add_row(11, {1.0}), std::invalid_argument);
  EXPECT_FALSE(s.ascii_plot(40, 10, true).empty());
  EXPECT_NE(s.render().find("fig"), std::string::npos);
}

TEST(Trace, RecordInterpolateCross) {
  base::Trace tr("v");
  for (int i = 0; i <= 100; ++i) tr.record(i * 0.1, i * 0.01);  // ramp 0..1
  EXPECT_EQ(tr.size(), 101u);
  EXPECT_NEAR(tr.at(5.05), 0.505, 1e-12);
  EXPECT_NEAR(tr.first_crossing(0.5), 5.0, 0.11);
  EXPECT_DOUBLE_EQ(tr.max_value(), 1.0);
  EXPECT_DOUBLE_EQ(tr.min_value(), 0.0);
}

TEST(Trace, Decimation) {
  base::Trace tr("v", 10);
  for (int i = 0; i < 100; ++i) tr.record(i, i);
  EXPECT_EQ(tr.size(), 10u);
}

TEST(Trace, CsvHasHeaderAndRows) {
  base::Trace tr("sig");
  tr.record(0.0, 1.0);
  tr.record(1.0, 2.0);
  const std::string csv = tr.to_csv();
  EXPECT_NE(csv.find("t,sig"), std::string::npos);
  EXPECT_NE(csv.find("\n"), std::string::npos);
}

}  // namespace
