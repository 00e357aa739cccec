#pragma once

/// \file gauss_newton.hpp
/// Small dense Gauss–Newton driver for nonlinear least squares
/// min Σ r_k(x)².  SGDP's second-order objective (Eq. 3 of the paper) is
/// nonlinear in the ramp coefficients, so its fit runs through here.

#include <span>
#include <type_traits>

#include "la/matrix.hpp"
#include "util/workspace.hpp"

namespace waveletic::la {

struct GaussNewtonOptions {
  int max_iterations = 8;
  /// Stop when the step's infinity norm, scaled by parameter magnitude,
  /// falls below this.
  double step_tolerance = 1e-10;
  /// Levenberg damping added to the normal matrix diagonal (relative to
  /// its trace); keeps near-degenerate fits stable.
  double damping = 1e-9;
};

/// Non-owning residual callback for the driver below — a
/// function_ref: no heap, no copy, the referenced callable must outlive
/// the call.  Fills r (size n) and the row-major Jacobian J (n×m,
/// row k = ∂r_k/∂x) for the current x.
class ResidualRef {
 public:
  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>,
                                                     ResidualRef>>>
  /*implicit*/ ResidualRef(F& f) noexcept
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* c, std::span<const double> x, std::span<double> r,
               MatrixRef jac) { (*static_cast<F*>(c))(x, r, jac); }) {}

  void operator()(std::span<const double> x, std::span<double> r,
                  MatrixRef jac) const {
    fn_(ctx_, x, r, jac);
  }

 private:
  using Raw = void (*)(void*, std::span<const double>, std::span<double>,
                       MatrixRef);
  void* ctx_;
  Raw fn_;
};

/// Scalar outcome of the driver (the solution lands in the caller's x
/// buffer).
struct GaussNewtonStats {
  double objective = 0.0;  ///< Σ r² at the final iterate.
  int iterations = 0;
  bool converged = false;
};

/// Minimizes Σ r_k(x)²: `x` holds x0 on entry and the solution on exit.
/// Accepts a step only when it does not increase the objective
/// (backtracking halving, 6 attempts).  Every scratch buffer
/// (residuals, Jacobians, normal equations, line-search trials) comes
/// from `ws`, and the inner linear solve runs in place — a warmed arena
/// makes the whole refinement heap-free.  Throws util::Error on an
/// empty x or fewer residuals than parameters.
GaussNewtonStats gauss_newton_into(ResidualRef fn, std::span<double> x,
                                   size_t residuals,
                                   const GaussNewtonOptions& opt,
                                   util::Workspace& ws);

}  // namespace waveletic::la
