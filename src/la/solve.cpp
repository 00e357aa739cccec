#include "la/solve.hpp"

#include <cmath>
#include <vector>

#include "la/lu.hpp"
#include "util/error.hpp"

namespace waveletic::la {

Vector least_squares(const Matrix& a, std::span<const double> b) {
  Vector w;  // empty = uniform
  return weighted_least_squares(a, b, w);
}

Vector weighted_least_squares(const Matrix& a, std::span<const double> b,
                              std::span<const double> w) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  util::require(b.size() == n, "least_squares: rhs rows ", b.size(), " != ",
                n);
  util::require(w.empty() || w.size() == n,
                "least_squares: weight rows ", w.size(), " != ", n);
  util::require(n >= m, "least_squares: underdetermined (", n, " rows, ", m,
                " cols)");

  Matrix normal(m, m);
  Vector rhs(m, 0.0);
  for (size_t k = 0; k < n; ++k) {
    const double wk = w.empty() ? 1.0 : w[k];
    if (wk == 0.0) continue;
    const auto row = a.row(k);
    for (size_t i = 0; i < m; ++i) {
      const double wi = wk * row[i];
      rhs[i] += wi * b[k];
      for (size_t j = i; j < m; ++j) normal(i, j) += wi * row[j];
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < i; ++j) normal(i, j) = normal(j, i);
  }
  std::vector<size_t> perm(m);
  std::vector<size_t> cols(m);
  lu_factor_in_place(normal, perm, cols);
  Vector x(m, 0.0);
  lu_solve_factored(normal, perm, rhs, x);
  return x;
}

LineFit fit_line(std::span<const double> t, std::span<const double> v,
                 std::span<const double> w) {
  const size_t n = t.size();
  util::require(v.size() == n, "fit_line: length mismatch");
  util::require(w.empty() || w.size() == n, "fit_line: weight length");

  // Closed-form 2x2 weighted normal equations, centered for stability
  // (t values are absolute circuit times ~1e-9; centering avoids
  // catastrophic cancellation in sum(t²)).  The weighted/unweighted
  // split hoists the per-sample weight check out of the accumulation
  // loops; 1.0·x is bitwise x, so both variants fold identically to the
  // historical single loop.
  double sw = 0.0, st = 0.0, sv = 0.0;
  if (w.empty()) {
    for (size_t k = 0; k < n; ++k) {
      sw += 1.0;
      st += t[k];
      sv += v[k];
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      sw += w[k];
      st += w[k] * t[k];
      sv += w[k] * v[k];
    }
  }
  util::require(sw > 0.0, "fit_line: all weights are zero");
  const double tbar = st / sw;
  const double vbar = sv / sw;
  double stt = 0.0, stv = 0.0;
  if (w.empty()) {
    for (size_t k = 0; k < n; ++k) {
      const double dt = t[k] - tbar;
      stt += dt * dt;
      stv += dt * (v[k] - vbar);
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      const double dt = t[k] - tbar;
      stt += w[k] * dt * dt;
      stv += w[k] * dt * (v[k] - vbar);
    }
  }
  util::require(stt > 0.0, "fit_line: degenerate abscissae (all t equal)");
  LineFit fit;
  fit.slope = stv / stt;
  fit.intercept = vbar - fit.slope * tbar;
  return fit;
}

}  // namespace waveletic::la
