#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace uwbams::linalg {

namespace {
double magnitude(double v) { return std::abs(v); }
double magnitude(const std::complex<double>& v) { return std::abs(v); }
constexpr double kAbsPivotFloor = 1e-300;
// refactor() rejects a frozen pivot below this fraction of its column's
// largest candidate (the classic SPICE PIVREL).
constexpr double kPivotRelTol = 1e-3;
}  // namespace

template <typename T>
void LuFactor<T>::factor(const Matrix<T>& a, const SparsityPattern* pattern) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("LuFactor: matrix must be square");
  const std::size_t n = a.rows();
  const bool symbolic = pattern != nullptr && pattern->size() == n;
  // A pattern's schedule belongs to one pivot order: it is dropped before
  // the pivot search, so a singular matrix leaves none for refactor(). The
  // dense schedule fits every order, so a workspace keeps it.
  const bool keep = !symbolic && holds_dense_schedule(n);
  if (!keep) elim_rows_off_.clear();
  lu_ = a;  // same-size copy-assignment reuses the storage
  factorize_loaded();
  if (symbolic)
    build_symbolic(*pattern);
  else if (!keep)
    build_dense();
}

// Eliminates the matrix copied into lu_ with full partial pivoting.
template <typename T>
void LuFactor<T>::factorize_loaded() {
  const std::size_t n = lu_.rows();
  valid_ = false;
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  double max_pivot = 0.0;
  double min_pivot = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below row k.
    std::size_t pivot_row = k;
    double best = magnitude(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = magnitude(lu_(r, k));
      if (m > best) {
        best = m;
        pivot_row = r;
      }
    }
    if (best < kAbsPivotFloor)
      throw std::runtime_error("LuFactor: singular matrix (zero pivot)");
    if (pivot_row != k) {
      std::swap(perm_[k], perm_[pivot_row]);
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(k, c), lu_(pivot_row, c));
    }
    if (k == 0) {
      max_pivot = best;
      min_pivot = best;
    } else {
      max_pivot = std::max(max_pivot, best);
      min_pivot = std::min(min_pivot, best);
    }
    const T pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == T{}) continue;
      T* dst = lu_.row_ptr(r);
      const T* src = lu_.row_ptr(k);
      for (std::size_t c = k + 1; c < n; ++c) dst[c] -= factor * src[c];
    }
  }
  pivot_ratio_ = (min_pivot > 0.0) ? max_pivot / min_pivot : 1e300;
  dinv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) dinv_[k] = T{1} / lu_(k, k);
  valid_ = true;
}

template <typename T>
void LuFactor<T>::build_symbolic(const SparsityPattern& pattern) {
  const std::size_t n = lu_.rows();
  // Boolean working copy of the pattern with rows in pivot order; symbolic
  // elimination unions pivot-row structure into target rows, reproducing
  // exactly the fill-in positions the numeric elimination can create.
  std::vector<std::uint8_t> b(n * n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t c = 0; c < n; ++c)
      b[k * n + c] = pattern.contains(perm_[k], c) ? 1 : 0;
    b[k * n + k] = 1;  // the chosen pivot is nonzero by construction
  }
  elim_rows_.clear();
  elim_cols_.clear();
  elim_rows_off_.assign(n + 1, 0);
  elim_cols_off_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) {
    elim_rows_off_[k] = static_cast<std::uint32_t>(elim_rows_.size());
    elim_cols_off_[k] = static_cast<std::uint32_t>(elim_cols_.size());
    const std::uint8_t* pk = &b[k * n];
    for (std::size_t c = k + 1; c < n; ++c)
      if (pk[c]) elim_cols_.push_back(static_cast<std::uint32_t>(c));
    for (std::size_t r = k + 1; r < n; ++r) {
      std::uint8_t* pr = &b[r * n];
      if (!pr[k]) continue;
      elim_rows_.push_back(static_cast<std::uint32_t>(r));
      for (std::size_t c = k + 1; c < n; ++c) pr[c] |= pk[c];
    }
  }
  elim_rows_off_[n] = static_cast<std::uint32_t>(elim_rows_.size());
  elim_cols_off_[n] = static_cast<std::uint32_t>(elim_cols_.size());
  lower_cols_.clear();
  lower_cols_off_.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    lower_cols_off_[r] = static_cast<std::uint32_t>(lower_cols_.size());
    const std::uint8_t* pr = &b[r * n];
    for (std::size_t c = 0; c < r; ++c)
      if (pr[c]) lower_cols_.push_back(static_cast<std::uint32_t>(c));
  }
  lower_cols_off_[n] = static_cast<std::uint32_t>(lower_cols_.size());
}

// The schedule of a full matrix, in O(n^2): pivot k eliminates every row
// below it over every column right of it, and row r's L part is every
// column left of r.
template <typename T>
void LuFactor<T>::build_dense() {
  const std::uint32_t n = static_cast<std::uint32_t>(lu_.rows());
  elim_rows_.clear();
  elim_cols_.clear();
  lower_cols_.clear();
  elim_rows_off_.assign(n + 1, 0);
  elim_cols_off_.assign(n + 1, 0);
  lower_cols_off_.assign(n + 1, 0);
  for (std::uint32_t k = 0; k < n; ++k) {
    elim_rows_off_[k] = elim_cols_off_[k] =
        static_cast<std::uint32_t>(elim_rows_.size());
    lower_cols_off_[k] = static_cast<std::uint32_t>(lower_cols_.size());
    for (std::uint32_t c = k + 1; c < n; ++c) {
      elim_rows_.push_back(c);
      elim_cols_.push_back(c);
    }
    for (std::uint32_t c = 0; c < k; ++c) lower_cols_.push_back(c);
  }
  elim_rows_off_[n] = elim_cols_off_[n] =
      static_cast<std::uint32_t>(elim_rows_.size());
  lower_cols_off_[n] = static_cast<std::uint32_t>(lower_cols_.size());
}

// A full schedule (n(n-1)/2 entries in each list) is the dense one: each
// list is a subset of the dense list for its pivot or row.
template <typename T>
bool LuFactor<T>::holds_dense_schedule(std::size_t n) const {
  const std::size_t full = n * (n - 1) / 2;
  return elim_rows_off_.size() == n + 1 && elim_rows_.size() == full &&
         elim_cols_.size() == full && lower_cols_.size() == full;
}

template <typename T>
bool LuFactor<T>::refactor(const Matrix<T>& a) {
  const std::size_t n = lu_.rows();
  if (n == 0 || elim_rows_off_.size() != n + 1 || a.rows() != n ||
      a.cols() != n) {
    valid_ = false;
    return false;
  }
  for (std::size_t r = 0; r < n; ++r)  // load in pivot order
    std::copy(a.row_ptr(perm_[r]), a.row_ptr(perm_[r]) + n, lu_.row_ptr(r));
  double max_pivot = 0.0;
  double min_pivot = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t* rows = elim_rows_.data() + elim_rows_off_[k];
    const std::uint32_t* rows_end = elim_rows_.data() + elim_rows_off_[k + 1];
    const T pivot = lu_(k, k);
    const double ap = magnitude(pivot);
    double colmax = ap;
    for (const std::uint32_t* pr = rows; pr != rows_end; ++pr)
      colmax = std::max(colmax, magnitude(lu_(*pr, k)));
    if (ap < kAbsPivotFloor || ap < kPivotRelTol * colmax) {
      pivot_ratio_ = (ap > 0.0) ? colmax / ap : 1e300;
      valid_ = false;
      return false;
    }
    max_pivot = (k == 0) ? ap : std::max(max_pivot, ap);
    min_pivot = (k == 0) ? ap : std::min(min_pivot, ap);
    const std::uint32_t* cols = elim_cols_.data() + elim_cols_off_[k];
    const std::uint32_t* cols_end = elim_cols_.data() + elim_cols_off_[k + 1];
    const T* src = lu_.row_ptr(k);
    const T pinv = T{1} / pivot;  // one divide per pivot, not per target row
    for (const std::uint32_t* pr = rows; pr != rows_end; ++pr) {
      T* dst = lu_.row_ptr(*pr);
      const T factor = dst[k] * pinv;
      dst[k] = factor;
      if (factor == T{}) continue;
      for (const std::uint32_t* pc = cols; pc != cols_end; ++pc)
        dst[*pc] -= factor * src[*pc];
    }
  }
  pivot_ratio_ = (min_pivot > 0.0) ? max_pivot / min_pivot : 1e300;
  dinv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) dinv_[k] = T{1} / lu_(k, k);
  valid_ = true;
  return true;
}

// x = U^-1 L^-1 P b over the schedule: forward substitution (L has a unit
// diagonal), then back substitution. `x` holds b.size() values and must not
// alias `b`.
template <typename T>
void LuFactor<T>::substitute(const std::vector<T>& b, T* x) const {
  const std::size_t n = lu_.rows();
  if (!valid_) throw std::logic_error("LuFactor: no valid factorization");
  if (b.size() != n) throw std::invalid_argument("LuFactor::solve size");
  for (std::size_t r = 0; r < n; ++r) {
    T acc = b[perm_[r]];
    const T* row = lu_.row_ptr(r);
    const std::uint32_t* pc = lower_cols_.data() + lower_cols_off_[r];
    const std::uint32_t* pc_end = lower_cols_.data() + lower_cols_off_[r + 1];
    for (; pc != pc_end; ++pc) acc -= row[*pc] * x[*pc];
    x[r] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    T acc = x[ri];
    const T* row = lu_.row_ptr(ri);
    const std::uint32_t* pc = elim_cols_.data() + elim_cols_off_[ri];
    const std::uint32_t* pc_end = elim_cols_.data() + elim_cols_off_[ri + 1];
    for (; pc != pc_end; ++pc) acc -= row[*pc] * x[*pc];
    x[ri] = acc * dinv_[ri];
  }
}

template <typename T>
void LuFactor<T>::solve_in_place(std::vector<T>& bx) const {
  scratch_.resize(bx.size());
  substitute(bx, scratch_.data());
  bx.swap(scratch_);
}

template <typename T>
std::vector<T> LuFactor<T>::solve(const std::vector<T>& b) const {
  // Local buffer only: unlike solve_in_place() (whose scratch_ makes it
  // single-caller), solve() stays safe for concurrent use of one shared
  // factorization.
  std::vector<T> x(b.size());
  substitute(b, x.data());
  return x;
}

template class LuFactor<double>;
template class LuFactor<std::complex<double>>;

}  // namespace uwbams::linalg
