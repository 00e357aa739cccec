#pragma once

/// \file lu.hpp
/// The one LU factorization of the library: partial pivoting, in place,
/// with caller-owned index buffers.  The MNA transient engine assembles
/// its Jacobian into one matrix per analysis and factors that same
/// matrix on every Newton iteration; the least-squares and
/// Gauss–Newton fits factor their normal matrices the same way.  No
/// routine here allocates.

#include <cstddef>
#include <span>

#include "la/matrix.hpp"

namespace waveletic::la {

/// Factors the square matrix `a` IN PLACE into P·A = L·U: on return `a`
/// holds L (unit diagonal implied) below the diagonal and U on and above
/// it, and row i of L·U is row `perm[i]` of the original A.  `perm` and
/// `cols` each need n entries; `cols` is elimination scratch (the
/// non-zero columns of the current pivot row).  Throws util::Error when
/// `a` is not square, a buffer is too small, or a pivot falls to
/// `pivot_tol` or below (the message names the column).
///
/// Elimination updates only the columns where the pivot row is
/// non-zero.  For finite input that is bit for bit the dense update:
/// subtracting factor·0.0 leaves every entry unchanged.
void lu_factor_in_place(MatrixRef a, std::span<size_t> perm,
                        std::span<size_t> cols, double pivot_tol = 1e-14);

/// Solves A·x = b from lu_factor_in_place()'s output by forward and
/// back substitution.  `b` and `x` (n entries each) must not overlap.
void lu_solve_factored(MatrixRef lu, std::span<const size_t> perm,
                       std::span<const double> b, std::span<double> x);

}  // namespace waveletic::la
