// Tests for the dense matrix and LU solver used by the MNA engine.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <random>

#include "base/random.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace uwbams;
using linalg::ComplexMatrix;
using linalg::LuFactor;
using linalg::RealMatrix;

// A fresh partial-pivoting factorization and one solve.
template <typename T>
std::vector<T> solve(const linalg::Matrix<T>& a, const std::vector<T>& b) {
  LuFactor<T> lu;
  lu.factor(a);
  return lu.solve(b);
}

TEST(Matrix, BasicOps) {
  RealMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  const auto y = m.multiply({1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
}

TEST(Matrix, Identity) {
  const auto id = RealMatrix::identity(4);
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_EQ(id.multiply(x), x);
}

TEST(Lu, Solves2x2) {
  RealMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const auto x = solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  RealMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  RealMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactor<double>().factor(a), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  RealMatrix a(2, 3);
  EXPECT_THROW(LuFactor<double>().factor(a), std::invalid_argument);
}

TEST(Lu, ReusableFactorMultipleRhs) {
  RealMatrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 2) = 1;
  a(2, 1) = 1;
  a(2, 2) = 2;
  LuFactor<double> lu;
  lu.factor(a);
  for (const auto& b :
       {std::vector<double>{1, 0, 0}, std::vector<double>{0, 1, 0}}) {
    const auto x = lu.solve(b);
    const auto back = a.multiply(x);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
  }
}

TEST(Lu, ComplexSolve) {
  using cd = std::complex<double>;
  ComplexMatrix a(2, 2);
  a(0, 0) = cd{1, 1};
  a(0, 1) = cd{0, 0};
  a(1, 0) = cd{0, 0};
  a(1, 1) = cd{0, 2};
  const auto x = solve(a, std::vector<cd>{cd{2, 0}, cd{0, 4}});
  EXPECT_NEAR(std::abs(x[0] - cd{1, -1}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - cd{2, 0}), 0.0, 1e-12);
}

// Property sweep: random diagonally-dominant systems of growing size must
// solve to machine-level residual.
class LuRandomSystem : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSystem, ResidualIsTiny) {
  const int n = GetParam();
  base::Rng rng(1000 + static_cast<std::uint64_t>(n));
  RealMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      const double v = rng.uniform(-1.0, 1.0);
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = v;
      row_sum += std::abs(v);
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) =
        row_sum + 1.0;  // diagonal dominance
  }
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
  const auto b = a.multiply(x_true);
  const auto x = solve(a, b);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)],
                1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystem,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Complex property sweep mirroring the AC solve path.
class LuRandomComplex : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomComplex, ResidualIsTiny) {
  using cd = std::complex<double>;
  const int n = GetParam();
  base::Rng rng(2000 + static_cast<std::uint64_t>(n));
  ComplexMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      const cd v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = v;
      row_sum += std::abs(v);
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) =
        cd{row_sum + 1.0, rng.uniform(-1, 1)};
  }
  std::vector<cd> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = cd{rng.uniform(-5, 5), rng.uniform(-5, 5)};
  const auto b = a.multiply(x_true);
  const auto x = solve(a, b);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x[static_cast<std::size_t>(i)] -
                         x_true[static_cast<std::size_t>(i)]),
                0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomComplex,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// ---------------------------------------------------------------------------
// Workspace API: factor / refactor (pivot reuse) / solve_in_place.

// Random sparse diagonally-dominant matrix with ~`density` off-diagonal
// fill, plus the pattern describing it.
RealMatrix random_sparse(base::Rng& rng, int n, double density,
                         linalg::SparsityPattern* pattern) {
  RealMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  *pattern = linalg::SparsityPattern(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (int c = 0; c < n; ++c) {
      if (r == c) continue;
      if (rng.uniform(0.0, 1.0) > density) continue;
      const double v = rng.uniform(-1.0, 1.0);
      a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) = v;
      pattern->add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      row_sum += std::abs(v);
    }
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) = row_sum + 1.0;
    pattern->add(static_cast<std::size_t>(r), static_cast<std::size_t>(r));
  }
  return a;
}

TEST(LuWorkspace, SolveInPlaceMatchesSolve) {
  base::Rng rng(77);
  linalg::SparsityPattern pat;
  const auto a = random_sparse(rng, 12, 0.4, &pat);
  LuFactor<double> lu;
  lu.factor(a);
  std::vector<double> b(12);
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  const auto x1 = lu.solve(b);
  auto x2 = b;
  lu.solve_in_place(x2);
  EXPECT_EQ(std::memcmp(x1.data(), x2.data(), b.size() * sizeof(double)), 0);
}

// A dense schedule differs from a pattern's symbolic one only by entries
// that stay exactly zero, so factor, refactor and solve give the same bits
// with and without the pattern. One workspace each serves every size: the
// dense one keeps its schedule across same-size factor() calls and
// rebuilds it when the size changes.
TEST(LuWorkspace, PatternAndDenseSchedulesAgreeBitwise) {
  base::Rng rng(2024);
  LuFactor<double> sparse;
  LuFactor<double> dense;
  for (int trial = 0; trial < 10; ++trial) {
    linalg::SparsityPattern pat;
    const int n = 6 + 3 * (trial / 2);
    const auto a0 = random_sparse(rng, n, 0.3, &pat);
    sparse.factor(a0, &pat);
    dense.factor(a0);
    for (int rep = 0; rep < 3; ++rep) {
      auto a = a0;
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
          auto& v = a(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
          if (v != 0.0) v *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0);
        }
      ASSERT_TRUE(sparse.refactor(a));
      ASSERT_TRUE(dense.refactor(a));
      EXPECT_EQ(sparse.pivot_ratio(), dense.pivot_ratio());
      std::vector<double> b(static_cast<std::size_t>(n));
      for (auto& v : b) v = rng.uniform(-2.0, 2.0);
      auto xs = b;
      auto xd = b;
      sparse.solve_in_place(xs);
      dense.solve_in_place(xd);
      EXPECT_EQ(std::memcmp(xs.data(), xd.data(), b.size() * sizeof(double)),
                0)
          << "n=" << n << " rep=" << rep;
    }
  }
}

// The acceptance bar from the issue: reused-pivot refactor solutions agree
// with fresh partial-pivoting LU solutions to 1e-10, across perturbed
// matrices and with/without a sparsity pattern (the pattern path must
// reproduce fill-in exactly).
TEST(LuWorkspace, RefactorMatchesFreshFactorTo1em10) {
  base::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    linalg::SparsityPattern pat;
    const int n = 5 + trial;
    const auto a0 = random_sparse(rng, n, 0.35, &pat);
    const bool with_pattern = (trial % 2) == 0;
    LuFactor<double> lu;
    lu.factor(a0, with_pattern ? &pat : nullptr);
    for (int rep = 0; rep < 5; ++rep) {
      // Perturb values only (structure fixed), then refactor with the
      // frozen pivot order.
      auto a = a0;
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c) {
          auto& v = a(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
          if (v != 0.0) v *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0);
        }
      ASSERT_TRUE(lu.refactor(a));
      std::vector<double> b(static_cast<std::size_t>(n));
      for (auto& v : b) v = rng.uniform(-2.0, 2.0);
      const auto x_reused = lu.solve(b);
      const auto x_fresh = solve(a, b);
      for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(x_reused[i], x_fresh[i], 1e-10);
    }
  }
}

TEST(LuWorkspace, RefactorDetectsDegradedPivot) {
  // Factor with a dominant (0,0) pivot, then hand refactor() a matrix whose
  // natural pivot order is different: the frozen order must be refused.
  RealMatrix a(2, 2);
  a(0, 0) = 10.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 10.0;
  LuFactor<double> lu;
  lu.factor(a);
  RealMatrix bad = a;
  bad(0, 0) = 1e-9;  // pivot collapses relative to the column below
  EXPECT_FALSE(lu.refactor(bad));
  EXPECT_FALSE(lu.valid());
  EXPECT_GT(lu.pivot_ratio(), 1e3);  // degradation ratio is reported
  // A fresh factorization recovers (different pivot order).
  lu.factor(bad);
  EXPECT_TRUE(lu.valid());
  const auto x = lu.solve({1.0, 2.0});
  const auto back = bad.multiply(x);
  EXPECT_NEAR(back[0], 1.0, 1e-9);
  EXPECT_NEAR(back[1], 2.0, 1e-9);
}

TEST(LuWorkspace, RefactorRejectsShapeMismatch) {
  LuFactor<double> lu;
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_FALSE(lu.refactor(a));  // never factored
  lu.factor(a);
  RealMatrix b(3, 3);
  EXPECT_FALSE(lu.refactor(b));  // size change needs a fresh factor
}

TEST(LuWorkspace, SolveWithoutFactorThrows) {
  LuFactor<double> lu;
  std::vector<double> b{1.0};
  EXPECT_THROW(lu.solve_in_place(b), std::logic_error);
}

}  // namespace
