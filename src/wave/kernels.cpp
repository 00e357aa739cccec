#include "wave/kernels.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace waveletic::wave {

// ---------------------------------------------------------------------------
// WaveView
// ---------------------------------------------------------------------------

double WaveView::at(double t) const noexcept {
  if (t <= time.front()) return value.front();
  if (t >= time.back()) return value.back();
  const auto it = std::upper_bound(time.begin(), time.end(), t);
  const size_t hi = static_cast<size_t>(it - time.begin());
  return detail::lerp_segment(time.data(), value.data(), hi - 1, hi, t);
}

// ---------------------------------------------------------------------------
// Batched kernels
// ---------------------------------------------------------------------------

void sample_into(WaveView wave, std::span<const double> ts,
                 std::span<double> out) {
  util::require(out.size() == ts.size(),
                "sample_into: output length ", out.size(),
                " != grid length ", ts.size());
  util::require(!wave.empty(), "sample_into: empty waveform");
  const size_t n = wave.size();
  const size_t m = ts.size();
  const double* t = wave.time.data();
  const double* v = wave.value.data();
  if (n == 1) {
    std::fill(out.begin(), out.end(), v[0]);
    return;
  }
  // Forward merge: queries are non-decreasing, so the segment cursor
  // only ever moves right — O(n + m) total.
  const double t_front = t[0];
  const double t_back = t[n - 1];
  const double v_front = v[0];
  const double v_back = v[n - 1];
  size_t hi = 1;
  size_t k = 0;
  for (; k < m; ++k) {
    const double x = ts[k];
    if (x >= t_back) break;  // the sorted tail clamps flat, below
    while (t[hi] <= x) ++hi;
    const double r = detail::lerp_segment(t, v, hi - 1, hi, x);
    out[k] = (x <= t_front) ? v_front : r;
  }
  for (; k < m; ++k) out[k] = v_back;
}

void sample_times_into(double t0, double t1, std::span<double> out) {
  const size_t n = out.size();
  util::require(n >= 2, "sample_times_into: need >= 2 samples");
  util::require(t1 > t0, "sample_times_into: empty interval");
  const double dt = (t1 - t0) / static_cast<double>(n - 1);
  for (size_t k = 0; k < n; ++k) out[k] = t0 + dt * static_cast<double>(k);
}

void resample_into(WaveView wave, double t0, double t1,
                   std::span<double> t_out, std::span<double> v_out) {
  util::require(t_out.size() == v_out.size() && t_out.size() >= 2,
                "resample_into: need >= 2 matching output points");
  util::require(t1 > t0, "resample_into: empty interval [", t0, ", ", t1,
                "]");
  sample_times_into(t0, t1, t_out);
  sample_into(wave, t_out, v_out);
}

void derivative_into(WaveView wave, std::span<double> out) {
  const size_t n = wave.size();
  util::require(out.size() == n, "derivative_into: length mismatch");
  const double* t = wave.time.data();
  const double* v = wave.value.data();
  if (n == 1) {
    out[0] = 0.0;
    return;
  }
  out[0] = (v[1] - v[0]) / (t[1] - t[0]);
  out[n - 1] = (v[n - 1] - v[n - 2]) / (t[n - 1] - t[n - 2]);
  for (size_t i = 1; i + 1 < n; ++i) {
    out[i] = (v[i + 1] - v[i - 1]) / (t[i + 1] - t[i - 1]);
  }
}

void smoothed_into(WaveView wave, size_t half_width, std::span<double> prefix,
                   std::span<double> out) {
  const size_t n = wave.size();
  util::require(out.size() == n, "smoothed_into: output length mismatch");
  util::require(prefix.size() >= n + 1,
                "smoothed_into: prefix scratch needs size()+1 doubles");
  const double* v = wave.value.data();
  if (half_width == 0) {
    std::copy(v, v + n, out.begin());
    return;
  }
  prefix[0] = 0.0;
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + v[i];
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = (i >= half_width) ? i - half_width : 0;
    const size_t hi = std::min(n - 1, i + half_width);
    out[i] = (prefix[hi + 1] - prefix[lo]) /
             static_cast<double>(hi - lo + 1);
  }
}

void flip_into(WaveView wave, double v_ref, std::span<double> out) {
  const size_t n = wave.size();
  util::require(out.size() == n, "flip_into: length mismatch");
  const double* v = wave.value.data();
  for (size_t i = 0; i < n; ++i) out[i] = v_ref - v[i];
}

size_t merge_grids(std::span<const double> a, std::span<const double> b,
                   std::span<double> out) noexcept {
  size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size()) {
    const double x = a[i];
    const double y = b[j];
    if (x < y) {
      out[k++] = x;
      ++i;
    } else if (y < x) {
      out[k++] = y;
      ++j;
    } else {
      out[k++] = x;
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out[k++] = a[i++];
  while (j < b.size()) out[k++] = b[j++];
  return k;
}

WaveView combine_into(WaveView a, double ca, WaveView b, double cb,
                      Workspace& ws) {
  util::require(!a.empty() && !b.empty(), "combine_into: empty operand");
  const auto grid_buf = ws.alloc(a.size() + b.size());
  const size_t g = merge_grids(a.time, b.time, grid_buf);
  const auto grid = grid_buf.subspan(0, g);
  const auto va = ws.alloc(g);
  const auto vb = ws.alloc(g);
  const auto out = ws.alloc(g);
  sample_into(a, grid, va);
  sample_into(b, grid, vb);
  // ca*a + cb*b as mul, mul, add — never fused (-ffp-contract=off).
  for (size_t i = 0; i < g; ++i) out[i] = ca * va[i] + cb * vb[i];
  return WaveView(grid, out);
}

WaveView normalized_rising_view(WaveView wave, Polarity p, double vdd,
                                Workspace& ws) {
  if (p == Polarity::kRising) return wave;
  const auto flipped = ws.alloc(wave.size());
  flip_into(wave, vdd, flipped);
  return WaveView(wave.time, flipped);
}

WaveView shift_into(WaveView wave, double dt, Workspace& ws) {
  const auto t = ws.alloc(wave.size());
  for (size_t i = 0; i < wave.size(); ++i) t[i] = wave.time[i] + dt;
  return WaveView(t, wave.value);
}

// ---------------------------------------------------------------------------
// Crossing scans
// ---------------------------------------------------------------------------

std::optional<double> first_crossing(WaveView w, double level) {
  std::optional<double> out;
  scan_crossings(w, level, [&](double t) {
    out = t;
    return false;  // stop after the first emission
  });
  return out;
}

std::optional<double> last_crossing(WaveView w, double level) {
  std::optional<double> out;
  scan_crossings(w, level, [&](double t) {
    out = t;
    return true;
  });
  return out;
}

size_t crossing_count(WaveView w, double level) {
  size_t n = 0;
  scan_crossings(w, level, [&](double) {
    ++n;
    return true;
  });
  return n;
}

std::span<double> crossings_into(WaveView w, double level, Workspace& ws) {
  // A record of n samples emits at most one crossing per segment plus
  // the final-sample rule.
  const auto buf = ws.alloc(w.size() + 1);
  size_t n = 0;
  scan_crossings(w, level, [&](double t) {
    buf[n++] = t;
    return true;
  });
  return buf.subspan(0, n);
}

}  // namespace waveletic::wave
