#pragma once

/// \file lu.hpp
/// The one LU factorization of the library: partial pivoting, in place,
/// with caller-owned buffers.  The least-squares and Gauss–Newton fits
/// factor their small normal matrices densely.  The MNA transient
/// engine assembles its Jacobian into one matrix per analysis and
/// factors it on every Newton iteration along an LuPattern: the
/// structural non-zeros and pivot sequence of the factorizations before
/// it.  No routine here allocates.
///
/// Why the pattern path is bit for bit the dense one.  Every entry of
/// an assembled matrix starts at +0.0 and only ever has values added to
/// it, and elimination only subtracts from it.  In round-to-nearest,
/// x + y and x − y are −0.0 only when x is −0.0, and x − x is +0.0, so
/// no active entry ever holds −0.0.  A multiply-subtract whose factor
/// is a structural zero then subtracts ±0.0 from a value that is not
/// −0.0, which leaves it unchanged; a pivot candidate that is a
/// structural zero has magnitude 0 and cannot win the search.  So for
/// finite input without −0.0 entries, walking only the structural
/// non-zeros gives the same U, the same permutation and the same
/// solution bits as the dense loops.  L differs only in the sign of
/// zeros: where a row below the pivot is a structural zero the dense
/// loop stores the multiplier 0.0 · (1 / pivot), which is −0.0 for a
/// negative pivot, and the pattern path leaves the entry at +0.0.  With
/// a NaN or infinite right-hand side the dense solve spreads NaN through
/// 0 · ∞ into every later unknown, the pattern solve only into the
/// unknowns that structurally depend on it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

/// The structure of an n×n matrix's partial-pivot LU, kept by its owner
/// across factorizations of matrices with the same structure (the
/// Newton matrices of one analysis).  It records the union of the input
/// non-zeros seen so far, the pivot row of each elimination step, each
/// step's candidate pivot rows, rows to eliminate and pivot-row columns
/// (the symbolic factorization of that union under that pivot sequence,
/// fill included), and the row structure of L and U for the solve.  All
/// storage is sized by the constructor; factoring never allocates.
class LuPattern {
 public:
  LuPattern() = default;
  explicit LuPattern(size_t n);

  [[nodiscard]] size_t size() const noexcept { return n_; }
  /// Factorizations that ran along the pattern from start to end.
  [[nodiscard]] uint64_t warm_factors() const noexcept { return warm_; }
  /// Factorizations that missed it (a new input non-zero or another
  /// pivot) and rebuilt it; the first factorization is one.
  [[nodiscard]] uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  /// n index lists stored back to back: list i is
  /// index[start[i] .. start[i + 1]).
  struct Lists {
    std::vector<size_t> start;
    std::vector<size_t> index;

    [[nodiscard]] std::span<const size_t> operator[](size_t i) const noexcept {
      return {index.data() + start[i], start[i + 1] - start[i]};
    }
  };

  friend void lu_factor_in_place(MatrixRef, std::span<size_t>, LuPattern&,
                                 double);
  friend void lu_solve_factored(MatrixRef, std::span<const size_t>,
                                const LuPattern&, std::span<const double>,
                                std::span<double>);

  size_t factor_along(MatrixRef a, std::span<size_t> perm, double pivot_tol);
  void rebuild();

  size_t n_ = 0;
  /// `pivots_`, `candidates_`, `eliminate_`, `lower_` and `upper_`
  /// describe the factorization of the union of the input non-zeros.
  bool ready_ = false;
  uint64_t warm_ = 0;
  uint64_t rebuilds_ = 0;
  std::vector<uint64_t> unseen_;     // n×n: all ones where no input was != 0
  std::vector<unsigned char> fill_;  // n×n: rebuild()'s symbolic scratch
  std::vector<size_t> pivots_;       // step k swaps this row into row k
  std::vector<size_t> cols_;         // dense elimination scratch
  Lists candidates_;  // step k: rows below k that may hold its pivot
  Lists eliminate_;   // step k, after the swap: rows below k to update
  Lists lower_;       // row i: L's columns (ascending, below i)
  Lists upper_;       // row i: U's columns (ascending, past i)
};

/// lu_factor_in_place() along `pattern` (sized for a's n).  When every
/// non-zero of `a` lies in the pattern, each step searches for its pivot
/// among the step's candidate rows (ascending, first on ties, as the
/// dense search) and updates only structural rows × columns.  A new
/// non-zero, or a pivot other than the recorded one, finishes the
/// factorization with the dense elimination from that step on and
/// rebuilds the pattern.  Results, errors included, match the dense
/// routine as the file comment states.
void lu_factor_in_place(MatrixRef a, std::span<size_t> perm,
                        LuPattern& pattern, double pivot_tol = 1e-14);

/// lu_solve_factored() for a factorization along `pattern`: walks only
/// L's and U's structural entries, in increasing column order.
void lu_solve_factored(MatrixRef lu, std::span<const size_t> perm,
                       const LuPattern& pattern, std::span<const double> b,
                       std::span<double> x);

}  // namespace waveletic::la
