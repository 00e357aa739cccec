#include "la/lu.hpp"

#include <cmath>
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
  // Partial pivot: largest magnitude in column k at/below the diagonal.
  // Step k searches column k + 1 as it finishes each row below it.
  Pivot pivot{0, std::fabs(a(0, 0))};
  for (size_t r = 1; r < n; ++r) pivot.consider(r, std::fabs(a(r, 0)));
  for (size_t k = 0; k < n; ++k) {
    util::require(pivot.mag > pivot_tol, "LU: singular matrix (pivot ",
                  pivot.mag, " at column ", k, ")");
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
    eliminate_row(&a(next, 0), prow, k, inv_pivot, cols.data(), nnz);
    pivot = {next, std::fabs(a(next, next))};
    for (size_t r = next + 1; r < n; ++r) {
      double* row = &a(r, 0);
      eliminate_row(row, prow, k, inv_pivot, cols.data(), nnz);
      pivot.consider(r, std::fabs(row[next]));
    }
  }
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

}  // namespace waveletic::la
