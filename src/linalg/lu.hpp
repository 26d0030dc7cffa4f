/// @file lu.hpp
/// @brief Partial-pivoting LU factorization with pivot-order reuse.
///
/// `LuFactor` holds one factorization and one **elimination schedule**, in
/// pivot (permuted-row) order: for each pivot k the rows below it that it
/// eliminates and the columns right of it that carry U, and for each row
/// the columns left of its diagonal that carry L. Every numeric pass after
/// the pivot search runs over that schedule:
///
///  - `factor()` factors with full partial pivoting into reused storage,
///    then records the schedule for the chosen pivot order: from a
///    `SparsityPattern` plus the fill-in elimination creates when one is
///    given, else the dense schedule (every row below k, every column
///    right of k or left of r).
///  - `refactor()` re-eliminates a *numerically different matrix with the
///    same structure* on the frozen pivot order (no pivot search, no row
///    swaps, nothing outside the schedule), and reports degradation of
///    the frozen pivots so the caller can fall back to a fresh `factor()`.
///  - `solve_in_place()` (no allocation) and `solve()` (local buffers)
///    share one forward/back substitution over the schedule.
///
/// The dense schedule visits the same rows and columns in the same order,
/// with the same zero-multiplier skip, as plain dense loops, so dense and
/// sparse callers share the code without a bit of difference. Circuit
/// Jacobians change smoothly between Newton iterations, so a pivot order
/// chosen once stays numerically acceptable for long stretches — the
/// KLU-style refactorization of production SPICE.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace uwbams::linalg {

/// Structural nonzero pattern of a square matrix.
///
/// Built once (e.g. from MNA device stamp footprints) and handed to
/// `LuFactor::factor()`. The pattern must be a **superset** of every matrix
/// later passed to `refactor()`; entries absent from the pattern are treated
/// as structural zeros and skipped during sparse re-elimination.
class SparsityPattern {
 public:
  SparsityPattern() = default;
  /// Creates an empty pattern for an n-by-n matrix.
  explicit SparsityPattern(std::size_t n) : n_(n), set_(n * n, 0) {}

  /// Matrix dimension this pattern describes.
  std::size_t size() const { return n_; }
  /// Marks entry (r, c) as a structural nonzero. Out-of-range is ignored.
  void add(std::size_t r, std::size_t c) {
    if (r < n_ && c < n_) set_[r * n_ + c] = 1;
  }
  /// True if (r, c) is a structural nonzero.
  bool contains(std::size_t r, std::size_t c) const {
    return r < n_ && c < n_ && set_[r * n_ + c] != 0;
  }
  /// Marks every entry (dense fallback for devices without a footprint).
  void fill() { set_.assign(set_.size(), 1); }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint8_t> set_;
};

/// Dense LU factorization (PA = LU) over double or std::complex<double>.
template <typename T>
class LuFactor {
 public:
  /// Empty workspace; call factor() before solving.
  LuFactor() = default;

  /// Fresh factorization with full partial pivoting. Reuses internal
  /// storage when the size is unchanged (no allocation on the hot path).
  /// When `pattern` is non-null and of matching size, the schedule is its
  /// symbolic elimination (pattern + fill-in, in the chosen pivot order),
  /// so later refactor()/solve calls skip structural zeros; otherwise it
  /// is the dense schedule.
  /// @throws std::invalid_argument if `a` is not square;
  ///         std::runtime_error if it is singular to working precision.
  ///         No valid factorization is then held, and a pattern's schedule
  ///         is dropped, so refactor() refuses until the next successful
  ///         factor().
  void factor(const Matrix<T>& a, const SparsityPattern* pattern = nullptr);

  /// Re-factorizes `a` reusing the pivot order and schedule of the last
  /// successful factor(). Returns false — leaving the factorization
  /// **invalid** — when the frozen pivot sequence has degraded: a pivot
  /// falls below 1e-3 (the classic SPICE PIVREL) times the largest
  /// candidate in its column, or below an absolute floor. The caller then
  /// falls back to factor(), which re-selects pivots.
  bool refactor(const Matrix<T>& a);

  /// True when a factorization is held and solves are valid.
  bool valid() const { return valid_; }
  /// Dimension of the factored system (0 before the first factor()).
  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b, allocating the result. Safe for concurrent calls on
  /// one shared factorization (uses only local buffers).
  /// @throws std::logic_error when no valid factorization is held.
  std::vector<T> solve(const std::vector<T>& b) const;
  /// Solves A x = b with b replaced by x. No allocation after the first
  /// call (an internal scratch vector absorbs the row permutation), which
  /// also makes it single-caller: do not share one LuFactor across threads
  /// when using this entry point.
  void solve_in_place(std::vector<T>& bx) const;

  /// Largest pivot magnitude / smallest pivot magnitude of the last
  /// factor()/refactor() — a cheap ill-conditioning indicator used by
  /// convergence diagnostics and refactor-degradation reporting.
  double pivot_ratio() const { return pivot_ratio_; }

 private:
  void factorize_loaded();
  void build_symbolic(const SparsityPattern& pattern);
  void build_dense();
  bool holds_dense_schedule(std::size_t n) const;
  void substitute(const std::vector<T>& b, T* x) const;

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  std::vector<T> dinv_;  // reciprocal U diagonal: substitution multiplies
  double pivot_ratio_ = 1.0;
  bool valid_ = false;

  // The elimination schedule in pivot (permuted-row) order, flat CSR style.
  // elim_rows_off_ is empty while no schedule is held. The dense schedule
  // is kept across factor() calls without a pattern.
  std::vector<std::uint32_t> elim_rows_;        // rows r>k with a nonzero in col k
  std::vector<std::uint32_t> elim_rows_off_;    // per-k offsets into elim_rows_
  std::vector<std::uint32_t> elim_cols_;        // cols c>k nonzero in pivot row k
  std::vector<std::uint32_t> elim_cols_off_;    // per-k offsets into elim_cols_
  std::vector<std::uint32_t> lower_cols_;       // cols c<r nonzero in row r (L part)
  std::vector<std::uint32_t> lower_cols_off_;   // per-row offsets into lower_cols_

  mutable std::vector<T> scratch_;  // permuted RHS for solve_in_place
};

extern template class LuFactor<double>;
extern template class LuFactor<std::complex<double>>;

}  // namespace uwbams::linalg
