#include "la/lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace waveletic::la {
namespace {

/// Row at/below the diagonal with the largest |a(r, k)| (the first on
/// ties, the diagonal when the column holds NaN) and that magnitude.
struct Pivot {
  size_t row;
  double mag;

  void consider(size_t r, double m) noexcept {
    if (m > mag) *this = {r, m};
  }
};

/// Step k's update of one row below the pivot: stores the L factor and
/// subtracts factor × the pivot row at the pivot row's non-zero columns.
void eliminate_row(double* row, const double* prow, size_t k,
                   double inv_pivot, const size_t* cols, size_t nnz) {
  const double factor = row[k] * inv_pivot;
  row[k] = factor;  // store L below the diagonal
  if (factor == 0.0) return;
  for (size_t j = 0; j < nnz; ++j) {
    const size_t c = cols[j];
    row[c] -= factor * prow[c];
  }
}

/// The dense elimination from step `k0` on, steps 0..k0 - 1 done and
/// `perm` tracking their swaps: the one elimination loop, run by the
/// pattern-free factorization from step 0 and by a pattern miss from
/// the step that missed.  Records each step's pivot row in `pivots`
/// when it is non-null.
void eliminate(MatrixRef a, size_t* perm, size_t* cols, size_t k0,
               double pivot_tol, size_t* pivots) {
  const size_t n = a.rows;
  // Partial pivot: largest magnitude in column k at/below the diagonal.
  // Step k searches column k + 1 as it finishes each row below it.
  Pivot pivot{k0, std::fabs(a(k0, k0))};
  for (size_t r = k0 + 1; r < n; ++r) pivot.consider(r, std::fabs(a(r, k0)));
  for (size_t k = k0; k < n; ++k) {
    util::require(pivot.mag > pivot_tol, "LU: singular matrix (pivot ",
                  pivot.mag, " at column ", k, ")");
    if (pivots != nullptr) pivots[k] = pivot.row;
    if (pivot.row != k) {
      std::swap(perm[k], perm[pivot.row]);
      for (size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot.row, c));
    }
    const size_t next = k + 1;
    if (next == n) break;
    const double* prow = &a(k, 0);
    size_t nnz = 0;
    for (size_t c = next; c < n; ++c) {
      if (prow[c] != 0.0) cols[nnz++] = c;
    }
    const double inv_pivot = 1.0 / prow[k];
    eliminate_row(&a(next, 0), prow, k, inv_pivot, cols, nnz);
    pivot = {next, std::fabs(a(next, next))};
    for (size_t r = next + 1; r < n; ++r) {
      double* row = &a(r, 0);
      eliminate_row(row, prow, k, inv_pivot, cols, nnz);
      pivot.consider(r, std::fabs(row[next]));
    }
  }
}

}  // namespace

void lu_factor_in_place(MatrixRef a, std::span<size_t> perm,
                        std::span<size_t> cols, double pivot_tol) {
  const size_t n = a.rows;
  util::require(a.cols == n, "LU: needs a square matrix, got ", a.rows, "x",
                a.cols);
  util::require(perm.size() >= n && cols.size() >= n,
                "LU: index buffers need ", n, " entries");
  if (n == 0) return;
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  eliminate(a, perm.data(), cols.data(), 0, pivot_tol, nullptr);
}

LuPattern::LuPattern(size_t n)
    : n_(n),
      unseen_(n * n, ~uint64_t{0}),
      fill_(n * n, 0),
      pivots_(n),
      cols_(n) {
  // A strictly lower or upper triangle bounds every list.
  for (Lists* l : {&candidates_, &eliminate_, &lower_, &upper_}) {
    l->start.assign(n + 1, 0);
    l->index.resize(n * (n - 1) / 2);
  }
}

size_t LuPattern::factor_along(MatrixRef a, std::span<size_t> perm,
                               double pivot_tol) {
  const size_t n = n_;
  // A non-zero outside the union: shifting out the sign bit leaves a
  // non-zero word exactly when the entry is != 0.0 (NaN included).  The
  // branch-free OR over all n² words vectorizes.
  uint64_t outside = ready_ ? 0 : 1;
  for (size_t i = 0; i < n * n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, a.data + i, sizeof bits);
    outside |= (bits << 1) & unseen_[i];
  }
  if (outside != 0) {  // widen the union, factor densely
    for (size_t i = 0; i < n * n; ++i) {
      if (a.data[i] != 0.0) unseen_[i] = 0;
    }
    return 0;
  }
  for (size_t k = 0; k < n; ++k) {
    Pivot pivot{k, std::fabs(a(k, k))};
    for (const size_t r : candidates_[k]) pivot.consider(r, std::fabs(a(r, k)));
    util::require(pivot.mag > pivot_tol, "LU: singular matrix (pivot ",
                  pivot.mag, " at column ", k, ")");
    if (pivot.row != pivots_[k]) return k;
    if (pivot.row != k) {
      std::swap(perm[k], perm[pivot.row]);
      for (size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot.row, c));
    }
    const double* prow = &a(k, 0);
    const double inv_pivot = 1.0 / prow[k];
    const auto cols = upper_[k];
    for (const size_t r : eliminate_[k]) {
      eliminate_row(&a(r, 0), prow, k, inv_pivot, cols.data(), cols.size());
    }
  }
  return n;
}

void LuPattern::rebuild() {
  const size_t n = n_;
  for (size_t i = 0; i < n * n; ++i) fill_[i] = unseen_[i] == 0;
  const auto at = [&](size_t r, size_t c) -> unsigned char& {
    return fill_[r * n + c];
  };
  // Symbolic elimination of the union under the recorded pivots.
  size_t n_cand = 0;
  size_t n_elim = 0;
  size_t n_upper = 0;
  for (size_t k = 0; k < n; ++k) {
    candidates_.start[k] = n_cand;
    for (size_t r = k + 1; r < n; ++r) {
      if (at(r, k) != 0) candidates_.index[n_cand++] = r;
    }
    if (pivots_[k] != k) {
      std::swap_ranges(&at(k, 0), &at(k, 0) + n, &at(pivots_[k], 0));
    }
    upper_.start[k] = n_upper;
    for (size_t c = k + 1; c < n; ++c) {
      if (at(k, c) != 0) upper_.index[n_upper++] = c;
    }
    eliminate_.start[k] = n_elim;
    for (size_t r = k + 1; r < n; ++r) {
      if (at(r, k) == 0) continue;
      eliminate_.index[n_elim++] = r;
      for (size_t j = upper_.start[k]; j < n_upper; ++j) {
        at(r, upper_.index[j]) = 1;
      }
    }
  }
  candidates_.start[n] = n_cand;
  eliminate_.start[n] = n_elim;
  upper_.start[n] = n_upper;
  size_t n_lower = 0;
  for (size_t r = 0; r < n; ++r) {
    lower_.start[r] = n_lower;
    for (size_t c = 0; c < r; ++c) {
      if (at(r, c) != 0) lower_.index[n_lower++] = c;
    }
  }
  lower_.start[n] = n_lower;
  ready_ = true;
}

void lu_factor_in_place(MatrixRef a, std::span<size_t> perm,
                        LuPattern& pattern, double pivot_tol) {
  const size_t n = a.rows;
  util::require(a.cols == n && pattern.size() == n, "LU: a pattern for ",
                pattern.size(), " unknowns cannot factor a ", a.rows, "x",
                a.cols, " matrix");
  util::require(perm.size() >= n, "LU: index buffers need ", n, " entries");
  if (n == 0) return;
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  const size_t k = pattern.factor_along(a, perm, pivot_tol);
  if (k == n) {
    ++pattern.warm_;
    return;
  }
  ++pattern.rebuilds_;
  pattern.ready_ = false;  // and stays so if the matrix is singular
  eliminate(a, perm.data(), pattern.cols_.data(), k, pivot_tol,
            pattern.pivots_.data());
  pattern.rebuild();
}

void lu_solve_factored(MatrixRef lu, std::span<const size_t> perm,
                       std::span<const double> b, std::span<double> x) {
  const size_t n = lu.rows;
  util::require(lu.cols == n && perm.size() >= n && b.size() == n &&
                    x.size() == n,
                "LU: rhs size mismatch (n=", n, ")");
  // Forward substitution with the permutation applied on the fly.
  for (size_t i = 0; i < n; ++i) {
    const double* row = &lu(i, 0);
    double acc = b[perm[i]];
    for (size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (size_t i = n; i-- > 0;) {
    const double* row = &lu(i, 0);
    double acc = x[i];
    for (size_t j = i + 1; j < n; ++j) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
}


void lu_solve_factored(MatrixRef lu, std::span<const size_t> perm,
                       const LuPattern& pattern, std::span<const double> b,
                       std::span<double> x) {
  const size_t n = lu.rows;
  util::require(lu.cols == n && pattern.size() == n && pattern.ready_ &&
                    perm.size() >= n && b.size() == n && x.size() == n,
                "LU: rhs or pattern size mismatch (n=", n, ")");
  for (size_t i = 0; i < n; ++i) {
    const double* row = &lu(i, 0);
    double acc = b[perm[i]];
    for (const size_t j : pattern.lower_[i]) acc -= row[j] * x[j];
    x[i] = acc;
  }
  for (size_t i = n; i-- > 0;) {
    const double* row = &lu(i, 0);
    double acc = x[i];
    for (const size_t j : pattern.upper_[i]) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
}

}  // namespace waveletic::la
