#pragma once

/// \file kernels.hpp
/// Batched waveform kernels + the scratch arena behind the
/// allocation-free propagation hot path.
///
/// Every technique in the paper reduces to "evaluate a waveform at a
/// monotone grid of times and run an accumulation loop over the
/// samples".  The scalar API (`Waveform::at`) pays one binary search
/// per point and every intermediate waveform op heap-allocates fresh
/// vectors.  This layer provides:
///
///  - `WaveView` — a non-owning (time, value) span pair with the same
///    linear-interpolation semantics as `Waveform` (flat extension
///    outside the grid).  Implicitly constructible from a `Waveform`.
///  - `Workspace` — a bump arena of doubles, one per thread
///    (`util::thread_scratch()`).  `alloc()` is pointer arithmetic;
///    slabs are retained across `Scope` resets, so a warmed arena
///    serves every later request without touching the heap.  Kernels
///    take the arena as an explicit parameter.
///  - Batched kernels (`sample_into`, `resample_into`, `combine_into`,
///    `derivative_into`, `smoothed_into`, …) — destination-buffer
///    variants of the hot `Waveform` operations.  `sample_into`
///    evaluates a sorted grid in O(n + m) with a single forward merge
///    scan and a branch-light interpolation loop.
///
/// Determinism contract: every kernel applies the *same per-point
/// formulas in the same fold order* as the scalar `Waveform` code (both
/// sides share the `detail::lerp_segment` helper and the
/// `scan_crossings` walk), so batched results are bitwise identical to
/// the scalar reference.  Reductions are never reordered.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/workspace.hpp"
#include "wave/waveform.hpp"

namespace waveletic::wave {

namespace detail {

/// The one linear-interpolation formula shared by `Waveform::at`,
/// `WaveView::at` and the batched kernels.  Keeping a single definition
/// is what makes "batched == scalar" a structural property instead of a
/// hope.
inline double lerp_segment(const double* t, const double* v, size_t lo,
                           size_t hi, double x) noexcept {
  const double frac = (x - t[lo]) / (t[hi] - t[lo]);
  return v[lo] + frac * (v[hi] - v[lo]);
}

}  // namespace detail

/// Non-owning view of a sampled waveform: strictly increasing times,
/// linear between samples, flat outside the grid.  Views do not own
/// memory — the backing `Waveform` or `Workspace` must outlive them.
struct WaveView {
  std::span<const double> time;   ///< sample times, strictly increasing
  std::span<const double> value;  ///< sample values, one per time

  WaveView() = default;
  /// View over parallel time/value spans (same length, not validated).
  WaveView(std::span<const double> t, std::span<const double> v) noexcept
      : time(t), value(v) {}
  /// Implicit view of an owning `Waveform` (must outlive the view).
  /*implicit*/ WaveView(const Waveform& w) noexcept
      : time(w.times()), value(w.values()) {}

  /// Number of samples.
  [[nodiscard]] size_t size() const noexcept { return time.size(); }
  /// True when the view holds no samples.
  [[nodiscard]] bool empty() const noexcept { return time.empty(); }
  /// First sample time; undefined on an empty view.
  [[nodiscard]] double t_begin() const noexcept { return time.front(); }
  /// Last sample time; undefined on an empty view.
  [[nodiscard]] double t_end() const noexcept { return time.back(); }

  /// Linear interpolation with flat clamping — bitwise identical to
  /// `Waveform::at` (same binary search, same `lerp_segment`).
  [[nodiscard]] double at(double t) const noexcept;

  /// Materializes an owning copy (cold paths / storage only).
  [[nodiscard]] Waveform to_waveform() const {
    return Waveform(std::vector<double>(time.begin(), time.end()),
                    std::vector<double>(value.begin(), value.end()));
  }
};

/// The scratch arena behind every batched kernel; fits pass the
/// calling thread's util::thread_scratch().  The class lives in util so
/// the la fitting layer can share it; this alias is the waveform-facing
/// name.
using Workspace = util::Workspace;

// ---------------------------------------------------------------------------
// Batched kernels.  All grids of query times must be non-decreasing.
// ---------------------------------------------------------------------------

/// Evaluates `wave` at every time of the non-decreasing grid `ts` into
/// `out` (same length) with ONE forward merge scan: O(n + m) total
/// instead of m binary searches.  Bitwise identical to calling
/// `Waveform::at` per point.
void sample_into(WaveView wave, std::span<const double> ts,
                 std::span<double> out);

/// `P` uniform sample times across [t0, t1] into `out` (same formula as
/// `core::sample_times`).
void sample_times_into(double t0, double t1, std::span<double> out);

/// Uniform resampling of `wave` with `t_out.size()` points across
/// [t0, t1]: fills the grid then merge-scans the values.  Bitwise
/// identical to `Waveform::resampled`.
void resample_into(WaveView wave, double t0, double t1,
                   std::span<double> t_out, std::span<double> v_out);

/// Central-difference derivative on the wave's own grid (one-sided at
/// the ends) into `out`.  Bitwise identical to `Waveform::derivative`.
void derivative_into(WaveView wave, std::span<double> out);

/// Boxcar smoothing with a centered window of `half_width` samples per
/// side via an O(n) prefix sum; `prefix` must hold size()+1 doubles.
/// Window clamping at the ends matches the scalar definition.
void smoothed_into(WaveView wave, size_t half_width, std::span<double> prefix,
                   std::span<double> out);

/// v → v_ref − v into `out` (the polarity flip).
void flip_into(WaveView wave, double v_ref, std::span<double> out);

/// Pointwise combination on the union grid of a and b built by a linear
/// two-pointer merge (no sort):  out(t) = ca·a(t) + cb·b(t).  Returns a
/// view backed by `ws`, valid until the enclosing scope closes.
/// Bitwise identical to the `combine()` free function.
[[nodiscard]] WaveView combine_into(WaveView a, double ca, WaveView b,
                                    double cb, Workspace& ws);

/// Merges two strictly-increasing grids into their sorted union
/// (duplicates collapsed).  Returns the number of grid points written;
/// `out` must hold at least a.size() + b.size() doubles.
[[nodiscard]] size_t merge_grids(std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> out) noexcept;

/// Rising-normalized view of `wave`: the view itself for rising
/// polarity (zero copy), a flip into `ws` for falling.  Values are
/// bitwise identical to `Waveform::normalized_rising`.
[[nodiscard]] WaveView normalized_rising_view(WaveView wave, Polarity p,
                                              double vdd, Workspace& ws);

/// Time-shifted view (t + dt grid) backed by `ws`; values are shared.
[[nodiscard]] WaveView shift_into(WaveView wave, double dt, Workspace& ws);

// ---------------------------------------------------------------------------
// Allocation-free crossing scans.
// ---------------------------------------------------------------------------

/// Walks every crossing of `level` exactly as `Waveform::crossings`
/// enumerates them (touching samples count once; the final sample
/// counts only when the penultimate sample is off-level) and invokes
/// `emit(t)` per crossing.  `emit` returns false to stop early.  This
/// is THE crossing algorithm — `Waveform::crossings`, the scan helpers
/// below and the metrics all share it.
template <class Emit>
inline void scan_crossings(WaveView w, double level, Emit&& emit) {
  const auto& t = w.time;
  const auto& v = w.value;
  const size_t n = t.size();
  double last = 0.0;
  bool has_last = false;
  const auto push = [&](double x) -> bool {
    last = x;
    has_last = true;
    return emit(x);
  };
  for (size_t i = 0; i + 1 < n; ++i) {
    const double a = v[i] - level;
    const double b = v[i + 1] - level;
    if (a == 0.0) {
      // Count a touching sample once (skip if the previous segment
      // already emitted this time).
      if (!has_last || last != t[i]) {
        if (!push(t[i])) return;
      }
      continue;
    }
    if ((a < 0.0 && b > 0.0) || (a > 0.0 && b < 0.0)) {
      const double frac = a / (a - b);
      if (!push(t[i] + frac * (t[i + 1] - t[i]))) return;
    }
  }
  // A record ending exactly on the level crossed it — unless the
  // penultimate sample already sat on the level, in which case the
  // touch was counted above and emitting again would double-count the
  // flat tail segment.
  if (n >= 2 && v[n - 1] == level && v[n - 2] != level) push(t[n - 1]);
  if (n == 1 && v[0] == level) push(t[0]);
}

/// First crossing of `level` without materializing the list.
[[nodiscard]] std::optional<double> first_crossing(WaveView w, double level);
/// Last crossing of `level` without materializing the list.
[[nodiscard]] std::optional<double> last_crossing(WaveView w, double level);
/// Number of crossings of `level` without materializing the list.
[[nodiscard]] size_t crossing_count(WaveView w, double level);

/// All crossings collected into `ws` scratch (capacity bounded by
/// size() + 1); the span is valid until the enclosing scope closes.
[[nodiscard]] std::span<double> crossings_into(WaveView w, double level,
                                               Workspace& ws);

}  // namespace waveletic::wave
