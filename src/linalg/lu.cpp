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
LuFactor<T>::LuFactor(Matrix<T> a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("LuFactor: matrix must be square");
  lu_ = std::move(a);  // one-shot path keeps the caller's storage
  factorize_loaded();
}

template <typename T>
void LuFactor<T>::factor(const Matrix<T>& a, const SparsityPattern* pattern) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("LuFactor: matrix must be square");
  const std::size_t n = a.rows();
  if (lu_.rows() != n || lu_.cols() != n) lu_.resize(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const T* src = a.row_ptr(r);
    T* dst = lu_.row_ptr(r);
    std::copy(src, src + n, dst);
  }
  factorize_loaded();
  if (pattern != nullptr && pattern->size() == n) build_symbolic(*pattern);
  if (packed_solve_ && has_symbolic_) pack_values();
}

// Eliminates the matrix already loaded into lu_ with full partial pivoting.
template <typename T>
void LuFactor<T>::factorize_loaded() {
  const std::size_t n = lu_.rows();
  valid_ = false;
  has_symbolic_ = false;
  packed_valid_ = false;
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
  has_symbolic_ = true;
}

template <typename T>
void LuFactor<T>::load_permuted(const Matrix<T>& a) {
  const std::size_t n = a.rows();
  for (std::size_t r = 0; r < n; ++r) {
    const T* src = a.row_ptr(perm_[r]);
    T* dst = lu_.row_ptr(r);
    std::copy(src, src + n, dst);
  }
}

template <typename T>
bool LuFactor<T>::refactor(const Matrix<T>& a) {
  const std::size_t n = lu_.rows();
  packed_valid_ = false;
  if (n == 0 || perm_.size() != n || a.rows() != n || a.cols() != n) {
    valid_ = false;
    return false;
  }
  load_permuted(a);
  double max_pivot = 0.0;
  double min_pivot = 0.0;
  if (has_symbolic_) {
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
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      const T pivot = lu_(k, k);
      const double ap = magnitude(pivot);
      double colmax = ap;
      for (std::size_t r = k + 1; r < n; ++r)
        colmax = std::max(colmax, magnitude(lu_(r, k)));
      if (ap < kAbsPivotFloor || ap < kPivotRelTol * colmax) {
        pivot_ratio_ = (ap > 0.0) ? colmax / ap : 1e300;
        valid_ = false;
        return false;
      }
      max_pivot = (k == 0) ? ap : std::max(max_pivot, ap);
      min_pivot = (k == 0) ? ap : std::min(min_pivot, ap);
      const T* src = lu_.row_ptr(k);
      const T pinv = T{1} / pivot;
      for (std::size_t r = k + 1; r < n; ++r) {
        T* dst = lu_.row_ptr(r);
        const T factor = dst[k] * pinv;
        dst[k] = factor;
        if (factor == T{}) continue;
        for (std::size_t c = k + 1; c < n; ++c) dst[c] -= factor * src[c];
      }
    }
  }
  pivot_ratio_ = (min_pivot > 0.0) ? max_pivot / min_pivot : 1e300;
  dinv_.resize(n);
  for (std::size_t k = 0; k < n; ++k) dinv_[k] = T{1} / lu_(k, k);
  valid_ = true;
  if (packed_solve_ && has_symbolic_) pack_values();
  return true;
}

// Copies the L/U nonzeros into contiguous arrays aligned index-for-index
// with lower_cols_/elim_cols_, so the packed solve streams values instead
// of gathering lu_(r, c) through the row stride.
template <typename T>
void LuFactor<T>::pack_values() {
  const std::size_t n = lu_.rows();
  lower_vals_.resize(lower_cols_.size());
  upper_vals_.resize(elim_cols_.size());
  for (std::size_t r = 0; r < n; ++r) {
    const T* row = lu_.row_ptr(r);
    for (std::uint32_t i = lower_cols_off_[r]; i < lower_cols_off_[r + 1]; ++i)
      lower_vals_[i] = row[lower_cols_[i]];
    for (std::uint32_t i = elim_cols_off_[r]; i < elim_cols_off_[r + 1]; ++i)
      upper_vals_[i] = row[elim_cols_[i]];
  }
  packed_valid_ = true;
}

template <typename T>
void LuFactor<T>::solve_in_place(std::vector<T>& bx) const {
  const std::size_t n = lu_.rows();
  if (!valid_) throw std::logic_error("LuFactor: no valid factorization");
  if (bx.size() != n) throw std::invalid_argument("LuFactor::solve size");
  scratch_.resize(n);
  // Apply permutation, forward substitution (L has unit diagonal).
  if (packed_valid_) {
    // Same traversal and accumulation order as the symbolic branch below,
    // reading packed value arrays sequentially instead of strided rows.
    const T* lv = lower_vals_.data();
    for (std::size_t r = 0; r < n; ++r) {
      T acc = bx[perm_[r]];
      const std::uint32_t* pc = lower_cols_.data() + lower_cols_off_[r];
      const std::uint32_t* pc_end = lower_cols_.data() + lower_cols_off_[r + 1];
      const T* pv = lv + lower_cols_off_[r];
      for (; pc != pc_end; ++pc, ++pv) acc -= *pv * scratch_[*pc];
      scratch_[r] = acc;
    }
    const T* uv = upper_vals_.data();
    for (std::size_t ri = n; ri-- > 0;) {
      T acc = scratch_[ri];
      const std::uint32_t* pc = elim_cols_.data() + elim_cols_off_[ri];
      const std::uint32_t* pc_end = elim_cols_.data() + elim_cols_off_[ri + 1];
      const T* pv = uv + elim_cols_off_[ri];
      for (; pc != pc_end; ++pc, ++pv) acc -= *pv * scratch_[*pc];
      scratch_[ri] = acc * dinv_[ri];
    }
  } else if (has_symbolic_) {
    for (std::size_t r = 0; r < n; ++r) {
      T acc = bx[perm_[r]];
      const T* row = lu_.row_ptr(r);
      const std::uint32_t* pc = lower_cols_.data() + lower_cols_off_[r];
      const std::uint32_t* pc_end = lower_cols_.data() + lower_cols_off_[r + 1];
      for (; pc != pc_end; ++pc) acc -= row[*pc] * scratch_[*pc];
      scratch_[r] = acc;
    }
    // Back substitution over the U structure.
    for (std::size_t ri = n; ri-- > 0;) {
      T acc = scratch_[ri];
      const T* row = lu_.row_ptr(ri);
      const std::uint32_t* pc = elim_cols_.data() + elim_cols_off_[ri];
      const std::uint32_t* pc_end = elim_cols_.data() + elim_cols_off_[ri + 1];
      for (; pc != pc_end; ++pc) acc -= row[*pc] * scratch_[*pc];
      scratch_[ri] = acc * dinv_[ri];
    }
  } else {
    for (std::size_t r = 0; r < n; ++r) {
      T acc = bx[perm_[r]];
      const T* row = lu_.row_ptr(r);
      for (std::size_t c = 0; c < r; ++c) acc -= row[c] * scratch_[c];
      scratch_[r] = acc;
    }
    for (std::size_t ri = n; ri-- > 0;) {
      T acc = scratch_[ri];
      const T* row = lu_.row_ptr(ri);
      for (std::size_t c = ri + 1; c < n; ++c) acc -= row[c] * scratch_[c];
      scratch_[ri] = acc * dinv_[ri];
    }
  }
  bx.swap(scratch_);
}

template <typename T>
std::vector<T> LuFactor<T>::solve(const std::vector<T>& b) const {
  // Local buffers only: unlike solve_in_place() (whose scratch_ makes it
  // single-caller), solve() stays safe for concurrent use of one shared
  // factorization, as the pre-workspace API allowed.
  const std::size_t n = lu_.rows();
  if (!valid_) throw std::logic_error("LuFactor: no valid factorization");
  if (b.size() != n) throw std::invalid_argument("LuFactor::solve size");
  std::vector<T> x(n);
  for (std::size_t r = 0; r < n; ++r) {
    T acc = b[perm_[r]];
    const T* row = lu_.row_ptr(r);
    for (std::size_t c = 0; c < r; ++c) acc -= row[c] * x[c];
    x[r] = acc;
  }
  for (std::size_t ri = n; ri-- > 0;) {
    T acc = x[ri];
    const T* row = lu_.row_ptr(ri);
    for (std::size_t c = ri + 1; c < n; ++c) acc -= row[c] * x[c];
    x[ri] = acc * dinv_[ri];
  }
  return x;
}

template class LuFactor<double>;
template class LuFactor<std::complex<double>>;

}  // namespace uwbams::linalg
