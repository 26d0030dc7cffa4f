/// @file lu.hpp
/// @brief Partial-pivoting LU factorization with pivot-order reuse.
///
/// Two usage styles share one class:
///
///  1. **One-shot** (the original API): `LuFactor f(a); x = f.solve(b);`
///     factors an owned copy with full partial pivoting.
///  2. **Workspace** (the transient fast path): a default-constructed
///     `LuFactor` is kept alive across Newton iterations and time steps.
///     `factor()` performs a fresh partial-pivoting factorization into
///     preallocated storage; `refactor()` re-eliminates a *numerically
///     different matrix with the same structure* reusing the stored pivot
///     order (no pivot search, no row swaps, optionally skipping structural
///     zeros), and reports degradation of the frozen pivot sequence so the
///     caller can fall back to a fresh `factor()`. `solve_in_place()`
///     substitutes without allocating.
///
/// Circuit Jacobians change smoothly between Newton iterations, so a pivot
/// order chosen once stays numerically acceptable for long stretches — the
/// same observation behind KLU-style refactorization in production SPICE.
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
  /// Number of structural nonzeros.
  std::size_t nnz() const {
    std::size_t k = 0;
    for (auto v : set_) k += v;
    return k;
  }

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

  /// One-shot: factors `a` (owned copy) with full partial pivoting.
  /// @throws std::runtime_error if the matrix is singular to working
  ///         precision; std::invalid_argument if it is not square.
  explicit LuFactor(Matrix<T> a);

  /// Fresh factorization with full partial pivoting. Reuses internal
  /// storage when the size is unchanged (no allocation on the hot path).
  /// When `pattern` is non-null, a symbolic elimination (pattern + fill-in,
  /// in the chosen pivot order) is cached so later refactor()/solve calls
  /// can skip structural zeros.
  /// @throws std::runtime_error on a singular matrix.
  void factor(const Matrix<T>& a, const SparsityPattern* pattern = nullptr);

  /// Re-factorizes `a` reusing the pivot order (and, when available, the
  /// symbolic pattern) of the last successful factor(). Returns false —
  /// leaving the factorization **invalid** — when the frozen pivot sequence
  /// has degraded: a pivot falls below 1e-3 (the classic SPICE PIVREL) times
  /// the largest candidate in its column, or below an absolute floor. The
  /// caller then falls back to factor(), which re-selects pivots.
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

  /// Opt-in packed-value solve path: after each symbolic factor()/refactor()
  /// the L and U nonzeros are copied into contiguous arrays aligned with the
  /// symbolic column indices, and solve_in_place() streams them sequentially
  /// instead of gathering from matrix rows. Accumulation order is unchanged,
  /// but the extra packing pass only pays for itself when each factorization
  /// serves several solves (the chord-iteration regime), so it is off by
  /// default and enabled by the stat_equiv engine profile.
  void set_packed_solve(bool on) {
    packed_solve_ = on;
    packed_valid_ = false;
  }

 private:
  void factorize_loaded();
  void build_symbolic(const SparsityPattern& pattern);
  void load_permuted(const Matrix<T>& a);
  void pack_values();

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  std::vector<T> dinv_;  // reciprocal U diagonal: substitution multiplies
  double pivot_ratio_ = 1.0;
  bool valid_ = false;

  // Symbolic elimination structure in pivot (permuted-row) order, flat CSR
  // style. Empty when factoring densely.
  bool has_symbolic_ = false;
  std::vector<std::uint32_t> elim_rows_;        // rows r>k with a nonzero in col k
  std::vector<std::uint32_t> elim_rows_off_;    // per-k offsets into elim_rows_
  std::vector<std::uint32_t> elim_cols_;        // cols c>k nonzero in pivot row k
  std::vector<std::uint32_t> elim_cols_off_;    // per-k offsets into elim_cols_
  std::vector<std::uint32_t> lower_cols_;       // cols c<r nonzero in row r (L part)
  std::vector<std::uint32_t> lower_cols_off_;   // per-row offsets into lower_cols_

  // Packed-value solve path (set_packed_solve): L and U nonzero values in
  // lower_cols_/elim_cols_ order, refreshed per factorization.
  bool packed_solve_ = false;
  bool packed_valid_ = false;
  std::vector<T> lower_vals_;
  std::vector<T> upper_vals_;

  mutable std::vector<T> scratch_;  // permuted RHS for solve_in_place
};

/// One-shot convenience: solve A x = b.
/// @throws std::runtime_error if `a` is singular.
template <typename T>
std::vector<T> solve(Matrix<T> a, const std::vector<T>& b) {
  return LuFactor<T>(std::move(a)).solve(b);
}

extern template class LuFactor<double>;
extern template class LuFactor<std::complex<double>>;

}  // namespace uwbams::linalg
