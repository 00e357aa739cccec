#pragma once

/// \file lanes.hpp
/// Lane-width-agnostic SIMD primitive layer underneath the batched
/// waveform kernels.
///
/// `Lane<W>` exposes one fixed vocabulary — load / store / broadcast /
/// pair loads / arithmetic / ordered compares / blend-select / the
/// shared `lerp` formula — over W adjacent IEEE doubles.  `Lane<1>` is
/// plain scalar code and is the bitwise ORACLE: every templated kernel
/// instantiated at W=1 compiles to exactly the pre-lane scalar loops.  `Lane<4>` is
/// AVX2 and is only defined inside translation units compiled with
/// `-mavx2` (the `*_avx2.cpp` TUs); all other code talks to it through
/// the runtime-dispatch glue below.
///
/// Determinism contract (why W=4 is bitwise identical to W=1):
///  - every lane is an independent scalar fold — vertical SIMD only,
///    never a horizontal reduction, so no reassociation can occur;
///  - AVX2 double arithmetic (`vaddpd`/`vsubpd`/`vmulpd`/`vdivpd`) is
///    IEEE-754 correctly rounded per lane, i.e. the same function as
///    the scalar instruction;
///  - multiply-add chains stay separate mul + add ops.  The AVX2 TUs
///    are built WITHOUT `-mfma` and with `-ffp-contract=off`, so the
///    compiler cannot fuse them behind our back;
///  - compares use the ordered-quiet predicates (`_CMP_LT_OQ` & co.),
///    matching the semantics of the scalar `<`, `<=`, `>` on NaN
///    inputs exactly.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace waveletic::wave {

// ---------------------------------------------------------------------------
// Runtime dispatch glue (defined in lanes.cpp; ISA-independent).
// ---------------------------------------------------------------------------

/// Widest lane count compiled into this binary: 4 when the AVX2
/// translation units were built (`WAVELETIC_AVX2=ON` and the compiler
/// accepts `-mavx2`), otherwise 1.
[[nodiscard]] int compiled_lane_width() noexcept;

/// Lane count the kernel dispatchers select right now:
/// the forced width if `force_lane_width` set one, else
/// `compiled_lane_width()` clamped by what the CPU actually supports
/// (AVX2 is probed once at startup).  Always 1 or 4.
[[nodiscard]] int active_lane_width() noexcept;

/// True when width `w` can execute on this build + CPU.  Width 1 is
/// always available.
[[nodiscard]] bool lane_width_available(int w) noexcept;

/// Test/bench override for A/B comparisons: `force_lane_width(1)` pins
/// the scalar path, `force_lane_width(4)` pins AVX2 (throws
/// `util::Error` when unavailable), `force_lane_width(0)` restores
/// automatic selection.  Takes effect atomically for subsequent kernel
/// calls; not intended for concurrent toggling mid-kernel.
void force_lane_width(int w);

/// RAII guard around `force_lane_width`: forces `w` on construction,
/// restores automatic selection on destruction.  Test/bench helper.
class LaneWidthGuard {
 public:
  /// Forces width `w` for the guard's lifetime.
  explicit LaneWidthGuard(int w) { force_lane_width(w); }
  /// Restores automatic width selection.
  ~LaneWidthGuard() { force_lane_width(0); }
  LaneWidthGuard(const LaneWidthGuard&) = delete;
  LaneWidthGuard& operator=(const LaneWidthGuard&) = delete;
};

// ---------------------------------------------------------------------------
// The primitive vocabulary.
// ---------------------------------------------------------------------------

/// Primary template — only the widths below are defined.  `Lane<W>::D`
/// holds W doubles, `Lane<W>::M` a per-lane boolean mask; every op is
/// the scalar IEEE operation applied lane-wise.
template <int W>
struct Lane;

/// Scalar instantiation: `D` is `double`, `M` is `bool`, every op is
/// the literal scalar expression.  This is the oracle the wide widths
/// must match bitwise, and the fallback on non-AVX2 builds/CPUs.
template <>
struct Lane<1> {
  /// Number of doubles per vector.
  static constexpr int width = 1;
  /// Vector of `width` doubles.
  using D = double;
  /// Per-lane boolean mask.
  using M = bool;

  /// Loads `width` consecutive doubles from `p` (no alignment needed).
  static D load(const double* p) noexcept { return *p; }
  /// Stores `width` consecutive doubles to `p` (no alignment needed).
  static void store(double* p, D x) noexcept { *p = x; }
  /// Replicates `x` into every lane.
  static D broadcast(double x) noexcept { return x; }
  /// The per-lane offsets {0, 1, …, width−1} as doubles.
  static D step() noexcept { return 0.0; }
  /// Per-lane adjacent-pair load: lane j of `lo` reads `base[idx[j]]`,
  /// lane j of `hi` reads `base[idx[j] + 1]`.  Interpolation kernels
  /// always touch `(lo, lo+1)` index pairs, and contiguous pair loads
  /// plus an in-register transpose beat two dependent gathers on every
  /// AVX2 part we target — the loads are exact, so this is a pure
  /// scheduling change with no bitwise effect.
  static void load_pair(const double* base, const int32_t* idx, D& lo,
                        D& hi) noexcept {
    lo = base[idx[0]];
    hi = base[idx[0] + 1];
  }

  /// Lane-wise IEEE addition.
  static D add(D a, D b) noexcept { return a + b; }
  /// Lane-wise IEEE subtraction.
  static D sub(D a, D b) noexcept { return a - b; }
  /// Lane-wise IEEE multiplication.
  static D mul(D a, D b) noexcept { return a * b; }
  /// Lane-wise IEEE division.
  static D div(D a, D b) noexcept { return a / b; }

  /// Lane-wise `a < b` (false on NaN, like the scalar operator).
  static M lt(D a, D b) noexcept { return a < b; }
  /// Lane-wise `a <= b` (false on NaN).
  static M le(D a, D b) noexcept { return a <= b; }
  /// Lane-wise `a > b` (false on NaN).
  static M gt(D a, D b) noexcept { return a > b; }

  /// Mask conjunction.
  static M mask_and(M a, M b) noexcept { return a && b; }
  /// True when every lane of `m` is set.
  static bool all(M m) noexcept { return m; }

  /// Per-lane `m ? a : b`.
  static D select(M m, D a, D b) noexcept { return m ? a : b; }

  /// The shared interpolation formula of `detail::lerp_segment`, lane
  /// wise:  `frac = (x − tlo) / (thi − tlo);  vlo + frac·(vhi − vlo)`.
  /// Identical op sequence (sub, sub, div, sub, mul, add) at every
  /// width, so batched == scalar stays a structural property.
  static D lerp(D tlo, D thi, D vlo, D vhi, D x) noexcept {
    const D frac = div(sub(x, tlo), sub(thi, tlo));
    return add(vlo, mul(frac, sub(vhi, vlo)));
  }
};

#if defined(__AVX2__)

/// AVX2 instantiation: four IEEE doubles per `__m256d`.  Masks are the
/// all-ones / all-zeros `__m256d` patterns produced by `_mm256_cmp_pd`,
/// consumed by sign-bit `blendv`.  Only visible in TUs compiled with
/// `-mavx2` (the `*_avx2.cpp` files); everyone else goes through the
/// runtime dispatchers.
template <>
struct Lane<4> {
  /// Number of doubles per vector.
  static constexpr int width = 4;
  /// Vector of `width` doubles.
  using D = __m256d;
  /// Per-lane mask (all-ones = true, all-zeros = false).
  using M = __m256d;

  /// Loads `width` consecutive doubles from `p` (unaligned ok).
  static D load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  /// Stores `width` consecutive doubles to `p` (unaligned ok).
  static void store(double* p, D x) noexcept { _mm256_storeu_pd(p, x); }
  /// Replicates `x` into every lane.
  static D broadcast(double x) noexcept { return _mm256_set1_pd(x); }
  /// The per-lane offsets {0, 1, 2, 3} as doubles.
  static D step() noexcept { return _mm256_set_pd(3.0, 2.0, 1.0, 0.0); }
  /// Per-lane adjacent-pair load: lane j of `lo` reads `base[idx[j]]`,
  /// lane j of `hi` reads `base[idx[j] + 1]`.  Four 128-bit pair loads
  /// plus `unpacklo/hi` transposes — substantially cheaper than two
  /// `vgatherdpd`s and bitwise identical (plain loads are exact).
  static void load_pair(const double* base, const int32_t* idx, D& lo,
                        D& hi) noexcept {
    const __m128d p0 = _mm_loadu_pd(base + idx[0]);
    const __m128d p1 = _mm_loadu_pd(base + idx[1]);
    const __m128d p2 = _mm_loadu_pd(base + idx[2]);
    const __m128d p3 = _mm_loadu_pd(base + idx[3]);
    lo = _mm256_set_m128d(_mm_unpacklo_pd(p2, p3), _mm_unpacklo_pd(p0, p1));
    hi = _mm256_set_m128d(_mm_unpackhi_pd(p2, p3), _mm_unpackhi_pd(p0, p1));
  }

  /// Lane-wise IEEE addition (`vaddpd`, correctly rounded per lane).
  static D add(D a, D b) noexcept { return _mm256_add_pd(a, b); }
  /// Lane-wise IEEE subtraction.
  static D sub(D a, D b) noexcept { return _mm256_sub_pd(a, b); }
  /// Lane-wise IEEE multiplication (never fused — no `-mfma`).
  static D mul(D a, D b) noexcept { return _mm256_mul_pd(a, b); }
  /// Lane-wise IEEE division.
  static D div(D a, D b) noexcept { return _mm256_div_pd(a, b); }

  /// Lane-wise `a < b`, ordered-quiet (false on NaN like scalar `<`).
  static M lt(D a, D b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  /// Lane-wise `a <= b`, ordered-quiet.
  static M le(D a, D b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  /// Lane-wise `a > b`, ordered-quiet.
  static M gt(D a, D b) noexcept { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }

  /// Mask conjunction.
  static M mask_and(M a, M b) noexcept { return _mm256_and_pd(a, b); }
  /// True when every lane of `m` is set.
  static bool all(M m) noexcept { return _mm256_movemask_pd(m) == 0xF; }

  /// Per-lane `m ? a : b` (`blendv` keys on the mask sign bit, which
  /// compare masks always set).
  static D select(M m, D a, D b) noexcept {
    return _mm256_blendv_pd(b, a, m);
  }

  /// The shared interpolation formula of `detail::lerp_segment`, lane
  /// wise — same op sequence as `Lane<1>::lerp`.
  static D lerp(D tlo, D thi, D vlo, D vhi, D x) noexcept {
    const D frac = div(sub(x, tlo), sub(thi, tlo));
    return add(vlo, mul(frac, sub(vhi, vlo)));
  }
};

#endif  // __AVX2__

}  // namespace waveletic::wave
