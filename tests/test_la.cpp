// Unit tests for the linear algebra substrate: matrix ops, LU with
// partial pivoting, (weighted) least squares, Gauss-Newton.

#include <gtest/gtest.h>

#include <cmath>

#include "la/gauss_newton.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/solve.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace la = waveletic::la;
namespace wu = waveletic::util;

TEST(Matrix, InitializerListAndAccess) {
  la::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((la::Matrix{{1.0}, {1.0, 2.0}}), wu::Error);
}

TEST(Matrix, MatVecProduct) {
  la::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const auto y = m.mul(std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(m.mul(std::vector<double>{1.0}), wu::Error);
}

TEST(Matrix, MatMatProductMatchesHandComputation) {
  la::Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  la::Matrix b{{3.0, 0.0}, {1.0, 2.0}};
  const auto c = a.mul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 2.0);
}

TEST(Matrix, TransposeIdentityFrobenius) {
  la::Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_NEAR(m.frobenius_norm(), std::sqrt(91.0), 1e-12);
  const auto eye = la::Matrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(Lu, SolvesDiagonallyDominantSystem) {
  la::Matrix a{{4.0, 1.0, 0.0}, {1.0, 5.0, 2.0}, {0.0, 2.0, 6.0}};
  const std::vector<double> x_true{1.0, -2.0, 3.0};
  const auto b = a.mul(x_true);
  const auto x = la::lu_solve(a, b);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  la::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = la::lu_solve(a, std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, SingularMatrixThrows) {
  la::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(la::lu_solve(a, std::vector<double>{1.0, 2.0}), wu::Error);
}

TEST(Lu, NonSquareThrows) {
  la::Matrix a(2, 3);
  la::LuFactorization lu;
  EXPECT_THROW(lu.factor(a), wu::Error);
}

TEST(Lu, DeterminantOfKnownMatrix) {
  la::Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  la::LuFactorization lu;
  lu.factor(a);
  EXPECT_NEAR(lu.abs_determinant(), 6.0, 1e-12);
}

TEST(Lu, RandomSystemsRoundTrip) {
  wu::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.below(15);
    la::Matrix a(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += 4.0;  // keep well-conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
    const auto b = a.mul(x_true);
    const auto x = la::lu_solve(a, b);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(LeastSquares, RecoversExactLine) {
  // v = 3t + 2 sampled exactly: LSQ must reproduce it.
  std::vector<double> t{0.0, 1.0, 2.0, 3.0};
  std::vector<double> v;
  for (double x : t) v.push_back(3.0 * x + 2.0);
  const auto fit = la::fit_line(t, v);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-12);
}

TEST(LeastSquares, CenteringSurvivesNanosecondOffsets) {
  // Times around 5e-9 with ps-scale spread: naive normal equations lose
  // precision; the centered implementation must not.
  std::vector<double> t, v;
  for (int i = 0; i < 50; ++i) {
    const double ti = 5e-9 + 1e-12 * i;
    t.push_back(ti);
    v.push_back(4e9 * ti - 19.0);
  }
  const auto fit = la::fit_line(t, v);
  EXPECT_NEAR(fit.slope, 4e9, 1e-2);
  EXPECT_NEAR(fit.intercept, -19.0, 1e-7);
}

TEST(LeastSquares, WeightsSelectSubset) {
  // Two clusters of points on different lines; zero weights must make
  // the second cluster invisible.
  std::vector<double> t{0.0, 1.0, 2.0, 10.0, 11.0};
  std::vector<double> v{0.0, 1.0, 2.0, 100.0, 90.0};
  std::vector<double> w{1.0, 1.0, 1.0, 0.0, 0.0};
  const auto fit = la::fit_line(t, v, w);
  EXPECT_NEAR(fit.slope, 1.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.0, 1e-12);
}

TEST(LeastSquares, AllZeroWeightsThrow) {
  std::vector<double> t{0.0, 1.0};
  std::vector<double> v{0.0, 1.0};
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW((void)la::fit_line(t, v, w), wu::Error);
}

TEST(LeastSquares, GeneralPathMatchesLineFit) {
  std::vector<double> t{0.0, 0.5, 1.0, 1.5, 2.0};
  std::vector<double> v{0.1, 0.9, 2.2, 2.8, 4.1};
  la::Matrix a(t.size(), 2);
  for (size_t k = 0; k < t.size(); ++k) {
    a(k, 0) = t[k];
    a(k, 1) = 1.0;
  }
  const auto x = la::least_squares(a, v);
  const auto fit = la::fit_line(t, v);
  EXPECT_NEAR(x[0], fit.slope, 1e-10);
  EXPECT_NEAR(x[1], fit.intercept, 1e-10);
}

TEST(LeastSquares, UnderdeterminedThrows) {
  la::Matrix a(1, 2);
  a(0, 0) = 1.0;
  std::vector<double> b{1.0};
  EXPECT_THROW(la::least_squares(a, b), wu::Error);
}

TEST(GaussNewton, SolvesLinearProblemInOneStep) {
  // r_k = a*t_k + b - v_k : quadratic objective, GN converges in 1 step.
  std::vector<double> t{0.0, 1.0, 2.0, 3.0};
  std::vector<double> v{1.0, 3.0, 5.0, 7.0};
  const auto fn = [&](std::span<const double> x, std::span<double> r,
                      la::MatrixRef jac) {
    for (size_t k = 0; k < t.size(); ++k) {
      r[k] = x[0] * t[k] + x[1] - v[k];
      jac(k, 0) = t[k];
      jac(k, 1) = 1.0;
    }
  };
  la::Vector x{0.0, 0.0};
  const auto res =
      la::gauss_newton_into(fn, x, t.size(), {}, wu::thread_scratch());
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-8);
  EXPECT_NEAR(x[1], 1.0, 1e-8);
  EXPECT_NEAR(res.objective, 0.0, 1e-14);
}

TEST(GaussNewton, FitsExponentialDecay) {
  // r_k = exp(-x0 * t_k) - y_k with x0_true = 1.7.
  std::vector<double> t, y;
  for (int i = 0; i <= 20; ++i) {
    t.push_back(0.1 * i);
    y.push_back(std::exp(-1.7 * 0.1 * i));
  }
  const auto fn = [&](std::span<const double> x, std::span<double> r,
                      la::MatrixRef jac) {
    for (size_t k = 0; k < t.size(); ++k) {
      const double e = std::exp(-x[0] * t[k]);
      r[k] = e - y[k];
      jac(k, 0) = -t[k] * e;
    }
  };
  la::Vector x{0.5};
  (void)la::gauss_newton_into(fn, x, t.size(), {.max_iterations = 30},
                              wu::thread_scratch());
  EXPECT_NEAR(x[0], 1.7, 1e-6);
}

TEST(GaussNewton, NeverIncreasesObjective) {
  // Rosenbrock-style residuals; verify monotone objective via repeated
  // restarts from random points.
  wu::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double y0 = rng.uniform(-1.0, 3.0);
    const auto fn = [&](std::span<const double> x, std::span<double> r,
                        la::MatrixRef jac) {
      r[0] = 10.0 * (x[1] - x[0] * x[0]);
      r[1] = 1.0 - x[0];
      jac(0, 0) = -20.0 * x[0];
      jac(0, 1) = 10.0;
      jac(1, 0) = -1.0;
      jac(1, 1) = 0.0;
    };
    la::Vector x{x0, y0};
    double obj0;
    {
      la::Vector r(2);
      la::Matrix j(2, 2);
      fn(x, r, j);
      obj0 = r[0] * r[0] + r[1] * r[1];
    }
    const auto res = la::gauss_newton_into(fn, x, 2, {.max_iterations = 50},
                                           wu::thread_scratch());
    EXPECT_LE(res.objective, obj0 + 1e-12);
  }
}

TEST(GaussNewton, RejectsDegenerateSetup) {
  const auto fn = [](std::span<const double>, std::span<double>,
                     la::MatrixRef) {};
  auto& ws = wu::thread_scratch();
  la::Vector none;
  la::Vector two{1.0, 2.0};
  EXPECT_THROW((void)la::gauss_newton_into(fn, none, 3, {}, ws), wu::Error);
  EXPECT_THROW((void)la::gauss_newton_into(fn, two, 1, {}, ws), wu::Error);
}
