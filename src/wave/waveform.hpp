#pragma once

/// \file waveform.hpp
/// Sampled voltage waveform v(t) on a strictly increasing time grid.
/// This is the lingua franca of the library: the transient simulator
/// produces Waveforms, the equivalent-waveform techniques consume them,
/// and the experiment harness measures crossings on them.
///
/// Between samples the waveform is linear; outside the grid it extends
/// flat (first/last value).  That matches how the techniques in the
/// paper treat sampled Hspice output.

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace waveletic::wave {

/// Transition direction of a switching signal.
enum class Polarity { kRising, kFalling };

/// Returns the opposite direction (an inverting gate flips polarity).
[[nodiscard]] constexpr Polarity flip(Polarity p) noexcept {
  return p == Polarity::kRising ? Polarity::kFalling : Polarity::kRising;
}

[[nodiscard]] const char* to_string(Polarity p) noexcept;

class Waveform {
 public:
  Waveform() = default;

  /// Takes ownership of the sample arrays.  `time` must be strictly
  /// increasing, every time and value finite and the arrays equal
  /// length (≥ 1); throws util::Error otherwise, naming the offending
  /// sample index.
  Waveform(std::vector<double> time, std::vector<double> value);

  [[nodiscard]] size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return time_.empty(); }

  [[nodiscard]] std::span<const double> times() const noexcept {
    return time_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return value_;
  }
  [[nodiscard]] double time(size_t i) const noexcept { return time_[i]; }
  [[nodiscard]] double value(size_t i) const noexcept { return value_[i]; }

  [[nodiscard]] double t_begin() const noexcept { return time_.front(); }
  [[nodiscard]] double t_end() const noexcept { return time_.back(); }

  /// Linear interpolation; clamps outside the grid.
  [[nodiscard]] double at(double t) const noexcept;

  /// Numerical derivative dv/dt (central differences, one-sided at the
  /// ends), on the same time grid.
  [[nodiscard]] Waveform derivative() const;

  /// All times where the waveform crosses `level`, in increasing order.
  /// A sample exactly equal to `level` counts once — including a record
  /// that *ends* on the level: the final sample is only emitted when
  /// the penultimate sample sits off-level (a flat tail resting on the
  /// level is one touch, not two).  Linear interpolation inside
  /// segments.  Implemented on wave::scan_crossings (kernels.hpp), the
  /// single shared crossing walk.
  [[nodiscard]] std::vector<double> crossings(double level) const;

  /// First/last crossing of `level`; nullopt when never crossed.
  [[nodiscard]] std::optional<double> first_crossing(double level) const;
  [[nodiscard]] std::optional<double> last_crossing(double level) const;

  /// Uniform resampling with n points across [t0, t1].
  [[nodiscard]] Waveform resampled(double t0, double t1, size_t n) const;

  /// Sub-waveform restricted to [t0, t1] (end points interpolated in).
  [[nodiscard]] Waveform window(double t0, double t1) const;

  /// Time-shifted copy: returned waveform satisfies w'(t + dt) = w(t).
  [[nodiscard]] Waveform shifted(double dt) const;

  /// Voltage-flipped copy v → (v_ref − v); with v_ref = Vdd this maps a
  /// falling transition onto an equivalent rising one, which is how the
  /// techniques normalize polarity.
  [[nodiscard]] Waveform flipped(double v_ref) const;

  /// Returns a copy normalized to a rising transition: identity for
  /// rising polarity, flipped(vdd) for falling.
  [[nodiscard]] Waveform normalized_rising(Polarity p, double vdd) const;

  /// Boxcar smoothing with a centered window of `half_width` samples on
  /// each side (half_width = 0 returns a copy).
  [[nodiscard]] Waveform smoothed(size_t half_width) const;

  [[nodiscard]] double min_value() const noexcept;
  [[nodiscard]] double max_value() const noexcept;

  /// True when values are non-decreasing (within `tol`).
  [[nodiscard]] bool is_monotone_rising(double tol = 0.0) const noexcept;

  /// Trapezoidal integral of (v(t) − baseline) over the full grid.
  [[nodiscard]] double integral(double baseline = 0.0) const noexcept;

  /// Builds a saturated linear ramp sampled with `n` points: rises from
  /// `v_lo` to `v_hi`, crossing (v_lo+v_hi)/2 at `t_mid`, with 0%–100%
  /// transition time `t_transition`.  Flat margins of one transition
  /// time are added on each side.
  [[nodiscard]] static Waveform linear_ramp(double t_mid, double t_transition,
                                            double v_lo, double v_hi,
                                            size_t n = 64);

  /// CSV I/O ("t,v" header + rows), used by the figure benches.
  void write_csv(const std::string& path, const std::string& label) const;
  [[nodiscard]] static Waveform read_csv(const std::string& path);

 private:
  std::vector<double> time_;
  std::vector<double> value_;
};

/// Pointwise combination on the union grid of a and b:
/// out(t) = a(t)*ca + b(t)*cb (each side interpolated/clamped).
[[nodiscard]] Waveform combine(const Waveform& a, double ca, const Waveform& b,
                               double cb);

}  // namespace waveletic::wave
