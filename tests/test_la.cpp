// Unit tests for the linear algebra substrate: matrix ops, LU with
// partial pivoting, (weighted) least squares, Gauss-Newton.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

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

namespace {

/// Factors a copy of `a` and solves a·x = b.
std::vector<double> lu_solve_copy(la::Matrix a, std::span<const double> b) {
  std::vector<size_t> perm(a.rows());
  std::vector<size_t> cols(a.rows());
  la::lu_factor_in_place(a, perm, cols);
  std::vector<double> x(a.rows());
  la::lu_solve_factored(a, perm, b, x);
  return x;
}

/// The dense partial-pivot factorization and substitution the library
/// used before its elimination skipped the pivot row's zero columns,
/// kept verbatim as the bit-for-bit reference.
void reference_factor(la::MatrixRef lu, size_t* perm, double pivot_tol) {
  const size_t n = lu.rows;
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t k = 0; k < n; ++k) {
    size_t pivot_row = k;
    double pivot_mag = std::fabs(lu(k, k));
    for (size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    wu::require(pivot_mag > pivot_tol, "LU: singular matrix (pivot ",
                pivot_mag, " at column ", k, ")");
    if (pivot_row != k) {
      std::swap(perm[k], perm[pivot_row]);
      for (size_t c = 0; c < n; ++c) {
        std::swap(lu(k, c), lu(pivot_row, c));
      }
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (size_t r = k + 1; r < n; ++r) {
      const double factor = lu(r, k) * inv_pivot;
      lu(r, k) = factor;
      if (factor == 0.0) continue;
      for (size_t c = k + 1; c < n; ++c) {
        lu(r, c) -= factor * lu(k, c);
      }
    }
  }
}

void reference_solve(const double* lu, size_t n, const size_t* perm,
                     std::span<const double> b, std::span<double> x) {
  for (size_t i = 0; i < n; ++i) {
    double acc = b[perm[i]];
    for (size_t j = 0; j < i; ++j) acc -= lu[i * n + j] * x[j];
    x[i] = acc;
  }
  for (size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (size_t j = i + 1; j < n; ++j) acc -= lu[i * n + j] * x[j];
    x[i] = acc / lu[i * n + i];
  }
}

/// A random system shaped like a modified-nodal-analysis Jacobian: a
/// sparse symmetric conductance block over the node unknowns (a few
/// two-terminal stamps per node plus gmin), a few asymmetric
/// transconductance stamps, and voltage-source branch rows and columns
/// of ±1 whose zero diagonal forces row swaps.  Entries are assembled
/// by += from zero, as the engine's stamps are.  `pick` draws the
/// structure and `value` the stamp values, so two calls with equally
/// seeded `pick` stamp the same structure.
la::Matrix random_mna(wu::Rng& pick, wu::Rng& value, size_t n) {
  const size_t branches = n / 5;
  const size_t nodes = n - branches;
  la::Matrix a(n, n);
  const auto conductance = [&](size_t i, size_t j, double g) {
    a(i, i) += g;
    a(j, j) += g;
    a(i, j) -= g;
    a(j, i) -= g;
  };
  for (size_t i = 0; i < nodes; ++i) {
    a(i, i) += 1e-12;  // gmin
    const size_t stamps = 1 + pick.below(3);
    for (size_t s = 0; s < stamps; ++s) {
      const size_t j = pick.below(nodes);
      const double g = std::exp(value.uniform(-12.0, -2.0));
      if (j == i) {
        a(i, i) += g;  // to ground
      } else {
        conductance(i, j, g);
      }
    }
  }
  for (size_t s = 0; s < nodes / 4; ++s) {  // VCCS: gm·(v_c - v_s)
    const size_t out = pick.below(nodes);
    const size_t ctrl = pick.below(nodes);
    a(out, ctrl) += value.uniform(1e-5, 1e-3);
  }
  // Sources sit on disjoint node pairs (nodes ≥ 4·branches), so no
  // loop of sources makes the system singular.
  for (size_t b = 0; b < branches; ++b) {
    const size_t row = nodes + b;
    const size_t pos = 4 * b;
    a(pos, row) += 1.0;
    a(row, pos) += 1.0;
    if (pick.below(2) == 1) {  // floating source, else grounded
      a(pos + 1, row) -= 1.0;
      a(row, pos + 1) -= 1.0;
    }
  }
  return a;
}

la::Matrix random_mna(wu::Rng& rng, size_t n) {
  return random_mna(rng, rng, n);
}

::testing::AssertionResult same_bits(std::span<const double> got,
                                     std::span<const double> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(Lu, SolvesDiagonallyDominantSystem) {
  la::Matrix a{{4.0, 1.0, 0.0}, {1.0, 5.0, 2.0}, {0.0, 2.0, 6.0}};
  const std::vector<double> x_true{1.0, -2.0, 3.0};
  const auto b = a.mul(x_true);
  const auto x = lu_solve_copy(a, b);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  la::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = lu_solve_copy(a, std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, SingularMatrixThrows) {
  la::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW((void)lu_solve_copy(a, std::vector<double>{1.0, 2.0}),
               wu::Error);
}

TEST(Lu, NonSquareThrows) {
  la::Matrix a(2, 3);
  std::vector<size_t> perm(3);
  std::vector<size_t> cols(3);
  EXPECT_THROW(la::lu_factor_in_place(a, perm, cols), wu::Error);
}

TEST(Lu, DeterminantOfKnownMatrix) {
  // |det A| is the product of U's diagonal (the permutation only flips
  // the sign); the off-diagonal entry forces one row swap.
  la::Matrix a{{1.0, 0.0}, {4.0, 3.0}};
  std::vector<size_t> perm(2);
  std::vector<size_t> cols(2);
  la::lu_factor_in_place(a, perm, cols);
  EXPECT_EQ(perm[0], 1u);
  EXPECT_NEAR(std::fabs(a(0, 0) * a(1, 1)), 3.0, 1e-12);
}

TEST(Lu, IndexBuffersMustCoverTheMatrix) {
  la::Matrix a = la::Matrix::identity(3);
  std::vector<size_t> perm(3);
  std::vector<size_t> cols(2);
  EXPECT_THROW(la::lu_factor_in_place(a, perm, cols), wu::Error);
  std::vector<double> x(2);
  std::vector<size_t> ok(3);
  la::lu_factor_in_place(a, perm, ok);
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_THROW(la::lu_solve_factored(a, perm, b, x), wu::Error);
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
    const auto x = lu_solve_copy(a, b);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

// The sparse-update elimination must reproduce the dense reference bit
// for bit: factors, permutation and solution, on MNA-shaped systems
// from 1 to 80 unknowns (past the 64-unknown stack bound the in-place
// solver once had).
TEST(Lu, SparseEliminationMatchesDenseReferenceBitwise) {
  wu::Rng rng(20260318);
  size_t swapped = 0;
  for (size_t n = 1; n <= 80; ++n) {
    for (int rep = 0; rep < 3; ++rep) {
      const la::Matrix a = random_mna(rng, n);
      std::vector<double> b(n);
      for (auto& v : b) v = rng.uniform(-1e-3, 1e-3);

      la::Matrix ref = a;
      std::vector<size_t> ref_perm(n);
      reference_factor(ref, ref_perm.data(), 1e-14);
      std::vector<double> ref_x(n);
      reference_solve(&ref(0, 0), n, ref_perm.data(), b, ref_x);

      la::Matrix lu = a;
      std::vector<size_t> perm(n);
      std::vector<size_t> cols(n);
      la::lu_factor_in_place(lu, perm, cols);
      std::vector<double> x(n);
      la::lu_solve_factored(lu, perm, b, x);

      SCOPED_TRACE(::testing::Message() << "n = " << n << ", rep " << rep);
      ASSERT_EQ(perm, ref_perm);
      ASSERT_TRUE(same_bits(std::span<const double>(&lu(0, 0), n * n),
                            std::span<const double>(&ref(0, 0), n * n)));
      ASSERT_TRUE(same_bits(x, ref_x));
      for (size_t i = 0; i < n; ++i) swapped += perm[i] != i;
    }
  }
  EXPECT_GT(swapped, 0u) << "no system forced a row swap";
}

TEST(Lu, SingularErrorNamesTheColumn) {
  wu::Rng rng(7);
  la::Matrix a = random_mna(rng, 12);
  for (size_t r = 0; r < 12; ++r) a(r, 5) = 0.0;  // an unknown no row sees
  la::Matrix ref = a;
  std::vector<size_t> ref_perm(12);
  std::string ref_msg;
  try {
    reference_factor(ref, ref_perm.data(), 1e-14);
  } catch (const wu::Error& e) {
    ref_msg = e.what();
  }
  std::vector<size_t> perm(12);
  std::vector<size_t> cols(12);
  try {
    la::lu_factor_in_place(a, perm, cols);
    FAIL() << "singular matrix factored";
  } catch (const wu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("at column 5"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()), ref_msg);
  }

  // A NaN diagonal stays the pivot candidate, as in the reference, so
  // both stop at its column with the same message.
  la::Matrix b = random_mna(rng, 12);
  b(4, 4) = std::numeric_limits<double>::quiet_NaN();
  la::Matrix ref_b = b;
  ref_msg.clear();
  try {
    reference_factor(ref_b, ref_perm.data(), 1e-14);
  } catch (const wu::Error& e) {
    ref_msg = e.what();
  }
  try {
    la::lu_factor_in_place(b, perm, cols);
    FAIL() << "NaN pivot accepted";
  } catch (const wu::Error& e) {
    EXPECT_FALSE(ref_msg.empty());
    EXPECT_EQ(std::string(e.what()), ref_msg);
  }
}

namespace {

/// Factors a copy of `a` along `pattern`, solves for `b`, and compares
/// with the dense reference: the same permutation, U and solution bits,
/// and the same L bits except where the reference stored -0.0 and the
/// pattern left +0.0 (counted into `signed_zeros`).
::testing::AssertionResult matches_reference(const la::Matrix& a,
                                             la::LuPattern& pattern,
                                             std::span<const double> b,
                                             size_t& signed_zeros) {
  const size_t n = a.rows();
  la::Matrix ref = a;
  std::vector<size_t> ref_perm(n);
  reference_factor(ref, ref_perm.data(), 1e-14);
  std::vector<double> ref_x(n);
  reference_solve(&ref(0, 0), n, ref_perm.data(), b, ref_x);

  la::Matrix lu = a;
  std::vector<size_t> perm(n);
  la::lu_factor_in_place(lu, perm, pattern);
  std::vector<double> x(n);
  la::lu_solve_factored(lu, perm, pattern, b, x);

  if (perm != ref_perm) return ::testing::AssertionFailure() << "perm";
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      const auto got = std::bit_cast<uint64_t>(lu(r, c));
      const auto want = std::bit_cast<uint64_t>(ref(r, c));
      if (got == want) continue;
      if (c < r && got == std::bit_cast<uint64_t>(0.0) &&
          want == std::bit_cast<uint64_t>(-0.0)) {
        ++signed_zeros;
        continue;
      }
      return ::testing::AssertionFailure()
             << "entry (" << r << ", " << c << "): " << lu(r, c) << " vs "
             << ref(r, c);
    }
  }
  return same_bits(x, ref_x);
}

}  // namespace

// One pattern per structure, reused across value sets, reproduces the
// dense reference on MNA-shaped systems from 1 to 80 unknowns.  Each
// set stamps the same structure with fresh values; some move the pivot
// order (a rebuild), the rest run warm.
TEST(LuPattern, ReusedAcrossValueSetsMatchesDenseReference) {
  wu::Rng value(20261021);
  size_t signed_zeros = 0;
  uint64_t warm = 0;
  uint64_t rebuilds = 0;
  for (size_t n = 1; n <= 80; ++n) {
    la::LuPattern pattern(n);
    for (int set = 0; set < 6; ++set) {
      wu::Rng pick(n);
      // Set 1 repeats set 0's values, so it must run warm.
      wu::Rng repeat(n + 1000);
      const la::Matrix a = random_mna(pick, set < 2 ? repeat : value, n);
      std::vector<double> b(n);
      for (auto& v : b) v = value.uniform(-1e-3, 1e-3);
      SCOPED_TRACE(::testing::Message() << "n = " << n << ", set " << set);
      const uint64_t warm_before = pattern.warm_factors();
      ASSERT_TRUE(matches_reference(a, pattern, b, signed_zeros));
      if (set == 1) {
        EXPECT_EQ(pattern.warm_factors(), warm_before + 1);
      }
    }
    EXPECT_EQ(pattern.warm_factors() + pattern.rebuilds(), 6u);
    warm += pattern.warm_factors();
    rebuilds += pattern.rebuilds();
  }
  EXPECT_GT(signed_zeros, 0u) << "no reference L entry was -0.0";
  // Beyond each n's first factorization and its repeat: fresh values
  // ran warm, and fresh values moved the pivot order.
  EXPECT_GT(warm, 80u);
  EXPECT_GT(rebuilds, 80u);
}

// A value set that moves the pivot of column 2 (rows 0 and 1 keep their
// pivots) finishes densely from that step, rebuilds the pattern, and
// the next factorization of it runs warm again.
TEST(LuPattern, PivotFlipMidFactorizationRebuilds) {
  const auto tridiagonal = [](double a42) {
    la::Matrix a(6, 6);
    for (size_t i = 0; i < 6; ++i) {
      a(i, i) = 4.0;
      if (i + 1 < 6) a(i, i + 1) = a(i + 1, i) = 1.0;
    }
    a(4, 2) = a42;
    a(2, 4) = 0.5;
    return a;
  };
  const std::vector<double> b{1.0, -2.0, 3.0, -4.0, 5.0, -6.0};
  la::LuPattern pattern(6);
  size_t signed_zeros = 0;
  const la::Matrix keeps = tridiagonal(0.5);
  const la::Matrix flips = tridiagonal(10.0);
  ASSERT_TRUE(matches_reference(keeps, pattern, b, signed_zeros));
  ASSERT_TRUE(matches_reference(keeps, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.warm_factors(), 1u);
  EXPECT_EQ(pattern.rebuilds(), 1u);

  la::Matrix lu = flips;
  std::vector<size_t> perm(6);
  la::lu_factor_in_place(lu, perm, pattern);
  EXPECT_EQ(perm[0], 0u);
  EXPECT_EQ(perm[1], 1u);
  EXPECT_EQ(perm[2], 4u);  // row 4 now wins column 2
  EXPECT_EQ(pattern.rebuilds(), 2u);
  ASSERT_TRUE(matches_reference(flips, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.warm_factors(), 2u);
  // The union holds both value sets, so the old pivot order misses once
  // more and then both run warm.
  ASSERT_TRUE(matches_reference(keeps, pattern, b, signed_zeros));
  ASSERT_TRUE(matches_reference(keeps, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.rebuilds(), 3u);
  EXPECT_EQ(pattern.warm_factors(), 3u);
}

// An input non-zero outside the pattern widens it; the old structure,
// a subset of the union, then runs warm on the widened pattern.
TEST(LuPattern, NonZeroOutsideThePatternWidensIt) {
  wu::Rng rng(31);
  const size_t n = 20;
  const la::Matrix base = random_mna(rng, n);
  la::Matrix wider = base;
  size_t added = 0;
  for (size_t r = 0; r < n && added < 3; ++r) {
    for (size_t c = 0; c < n && added < 3; ++c) {
      if (r != c && wider(r, c) == 0.0 && (r * 7 + c) % 11 == 0) {
        wider(r, c) = 1e-4;
        ++added;
      }
    }
  }
  ASSERT_EQ(added, 3u);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1e-3, 1e-3);
  la::LuPattern pattern(n);
  size_t signed_zeros = 0;
  ASSERT_TRUE(matches_reference(base, pattern, b, signed_zeros));
  ASSERT_TRUE(matches_reference(base, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.rebuilds(), 1u);
  ASSERT_TRUE(matches_reference(wider, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.rebuilds(), 2u);
  ASSERT_TRUE(matches_reference(wider, pattern, b, signed_zeros));
  ASSERT_TRUE(matches_reference(base, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.rebuilds(), 2u);
  EXPECT_EQ(pattern.warm_factors(), 3u);
}

// A singular matrix inside a warm pattern throws the reference's error
// from the warm path; the pattern stays valid for the next factorization.
TEST(LuPattern, WarmSingularMatrixThrowsTheReferenceError) {
  wu::Rng rng(7);
  const la::Matrix good = random_mna(rng, 12);
  la::Matrix singular = good;
  for (size_t r = 0; r < 12; ++r) singular(r, 5) = 0.0;
  std::vector<double> b(12, 1e-3);
  la::LuPattern pattern(12);
  size_t signed_zeros = 0;
  ASSERT_TRUE(matches_reference(good, pattern, b, signed_zeros));
  ASSERT_TRUE(matches_reference(good, pattern, b, signed_zeros));

  la::Matrix ref = singular;
  std::vector<size_t> ref_perm(12);
  std::string ref_msg;
  try {
    reference_factor(ref, ref_perm.data(), 1e-14);
  } catch (const wu::Error& e) {
    ref_msg = e.what();
  }
  ASSERT_FALSE(ref_msg.empty());
  la::Matrix lu = singular;
  std::vector<size_t> perm(12);
  try {
    la::lu_factor_in_place(lu, perm, pattern);
    FAIL() << "singular matrix factored";
  } catch (const wu::Error& e) {
    EXPECT_EQ(std::string(e.what()), ref_msg);
  }
  EXPECT_EQ(pattern.rebuilds(), 1u);  // thrown on the warm path
  EXPECT_EQ(pattern.warm_factors(), 1u);
  ASSERT_TRUE(matches_reference(good, pattern, b, signed_zeros));
  EXPECT_EQ(pattern.warm_factors(), 2u);
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
