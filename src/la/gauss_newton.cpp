#include "la/gauss_newton.hpp"

#include <algorithm>
#include <cmath>

#include "la/lu.hpp"
#include "util/error.hpp"

namespace waveletic::la {
namespace {

double objective_of(std::span<const double> r) noexcept {
  double acc = 0.0;
  for (double v : r) acc += v * v;
  return acc;
}

}  // namespace

GaussNewtonStats gauss_newton_into(ResidualRef fn, std::span<double> x,
                                   size_t residuals,
                                   const GaussNewtonOptions& opt,
                                   util::Workspace& ws) {
  const size_t m = x.size();
  util::require(m > 0, "gauss_newton: empty parameter vector");
  util::require(residuals >= m, "gauss_newton: fewer residuals (", residuals,
                ") than parameters (", m, ")");

  const auto scope = ws.scope();
  const auto r = ws.alloc(residuals);
  const auto jac_buf = ws.alloc(residuals * m);
  const MatrixRef jac(jac_buf.data(), residuals, m);
  std::fill(r.begin(), r.end(), 0.0);
  std::fill(jac_buf.begin(), jac_buf.end(), 0.0);

  GaussNewtonStats stats;
  fn(x, r, jac);
  stats.objective = objective_of(r);

  const auto normal_buf = ws.alloc(m * m);
  const MatrixRef normal(normal_buf.data(), m, m);
  const auto rhs = ws.alloc(m);
  const auto dx = ws.alloc(m);
  const auto perm = ws.alloc_indices(m);
  const auto cols = ws.alloc_indices(m);
  const auto trial = ws.alloc(m);
  const auto r_trial = ws.alloc(residuals);
  const auto jac_trial_buf = ws.alloc(residuals * m);
  const MatrixRef jac_trial(jac_trial_buf.data(), residuals, m);
  std::fill(trial.begin(), trial.end(), 0.0);
  std::fill(r_trial.begin(), r_trial.end(), 0.0);
  std::fill(jac_trial_buf.begin(), jac_trial_buf.end(), 0.0);

  for (int it = 0; it < opt.max_iterations; ++it) {
    stats.iterations = it + 1;

    // Normal equations Jᵀ J dx = -Jᵀ r with Levenberg damping.
    std::fill(normal_buf.begin(), normal_buf.end(), 0.0);
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (size_t k = 0; k < residuals; ++k) {
      const auto row = jac.row(k);
      for (size_t i = 0; i < m; ++i) {
        rhs[i] -= row[i] * r[k];
        for (size_t j = i; j < m; ++j) normal(i, j) += row[i] * row[j];
      }
    }
    double trace = 0.0;
    for (size_t i = 0; i < m; ++i) trace += normal(i, i);
    const double damp = opt.damping * (trace > 0 ? trace / double(m) : 1.0);
    for (size_t i = 0; i < m; ++i) {
      normal(i, i) += damp;
      for (size_t j = 0; j < i; ++j) normal(i, j) = normal(j, i);
    }

    try {
      lu_factor_in_place(normal, perm, cols);
      lu_solve_factored(normal, perm, rhs, dx);
    } catch (const util::Error&) {
      break;  // singular normal matrix: keep best iterate found so far
    }

    // Backtracking line search: accept first step that does not worsen
    // the objective.
    double step = 1.0;
    bool accepted = false;
    for (int attempt = 0; attempt < 6; ++attempt, step *= 0.5) {
      for (size_t i = 0; i < m; ++i) trial[i] = x[i] + step * dx[i];
      fn(trial, r_trial, jac_trial);
      const double obj = objective_of(r_trial);
      if (obj <= stats.objective) {
        std::copy(trial.begin(), trial.end(), x.begin());
        stats.objective = obj;
        std::copy(r_trial.begin(), r_trial.end(), r.begin());
        std::copy(jac_trial_buf.begin(), jac_trial_buf.end(),
                  jac_buf.begin());
        accepted = true;
        break;
      }
    }
    if (!accepted) break;

    double scale = norm_inf(x);
    if (scale == 0.0) scale = 1.0;
    if (norm_inf(dx) * step <= opt.step_tolerance * scale) {
      stats.converged = true;
      break;
    }
  }
  return stats;
}

}  // namespace waveletic::la
