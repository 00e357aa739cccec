#include "spice/sources.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "wave/kernels.hpp"

namespace waveletic::spice {
namespace {

void require_finite(const char* source, const char* param, double value) {
  util::require(std::isfinite(value), source, ": ", param,
                " must be finite, got ", value);
}

}  // namespace

DcStimulus::DcStimulus(double value) : value_(value) {
  require_finite("DC stimulus", "value", value);
}

PwlStimulus::PwlStimulus(std::vector<Point> points)
    : points_(std::move(points)) {
  util::require(!points_.empty(), "PWL stimulus needs at least one point");
  for (const Point& p : points_) {
    require_finite("PWL stimulus", "time", p.t);
    require_finite("PWL stimulus", "value", p.v);
  }
  for (size_t i = 1; i < points_.size(); ++i) {
    util::require(points_[i].t > points_[i - 1].t,
                  "PWL stimulus times must be strictly increasing");
  }
}

double PwlStimulus::at(double t) const noexcept {
  if (t <= points_.front().t) return points_.front().v;
  if (t >= points_.back().t) return points_.back().v;
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double value, const Point& p) { return value < p.t; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double frac = (t - lo.t) / (hi.t - lo.t);
  return lo.v + frac * (hi.v - lo.v);
}

PulseStimulus::PulseStimulus(double v0, double v1, double delay, double rise,
                             double fall, double width, double period)
    : v0_(v0),
      v1_(v1),
      delay_(delay),
      rise_(rise),
      fall_(fall),
      width_(width),
      period_(period) {
  require_finite("PULSE", "v0", v0);
  require_finite("PULSE", "v1", v1);
  require_finite("PULSE", "delay", delay);
  require_finite("PULSE", "rise", rise);
  require_finite("PULSE", "fall", fall);
  require_finite("PULSE", "width", width);
  require_finite("PULSE", "period", period);
  util::require(rise > 0 && fall > 0 && width >= 0,
                "PULSE: rise/fall must be positive");
  util::require(period == 0.0 || period >= rise + width + fall,
                "PULSE: period shorter than one pulse");
}

double PulseStimulus::at(double t) const noexcept {
  if (t < delay_) return v0_;
  double local = t - delay_;
  if (period_ > 0.0) local = std::fmod(local, period_);
  if (local < rise_) return v0_ + (v1_ - v0_) * (local / rise_);
  local -= rise_;
  if (local < width_) return v1_;
  local -= width_;
  if (local < fall_) return v1_ + (v0_ - v1_) * (local / fall_);
  return v0_;
}

RampStimulus::RampStimulus(double t_mid, double t_transition, double v_lo,
                           double v_hi, bool rising)
    : t_mid_(t_mid),
      t_transition_(t_transition),
      v_lo_(v_lo),
      v_hi_(v_hi),
      rising_(rising) {
  require_finite("ramp stimulus", "t_mid", t_mid);
  require_finite("ramp stimulus", "t_transition", t_transition);
  require_finite("ramp stimulus", "v_lo", v_lo);
  require_finite("ramp stimulus", "v_hi", v_hi);
  util::require(t_transition > 0, "ramp stimulus: non-positive transition");
  util::require(v_hi > v_lo, "ramp stimulus: v_hi must exceed v_lo");
}

double RampStimulus::at(double t) const noexcept {
  const double start = t_mid_ - 0.5 * t_transition_;
  const double frac = std::clamp((t - start) / t_transition_, 0.0, 1.0);
  const double progress = rising_ ? frac : 1.0 - frac;
  return v_lo_ + progress * (v_hi_ - v_lo_);
}

double WaveformStimulus::at(double t) const noexcept {
  const auto time = wave_.times();
  const auto value = wave_.values();
  if (t <= time.front()) return value.front();
  if (t >= time.back()) return value.back();
  // time[hi_ - 1] <= t makes the forward walk end at upper_bound's
  // answer; t < time.back() stops it inside the grid.
  if (t < time[hi_ - 1]) {
    hi_ = static_cast<size_t>(
        std::upper_bound(time.begin(), time.end(), t) - time.begin());
  } else {
    while (time[hi_] <= t) ++hi_;
  }
  return wave::detail::lerp_segment(time.data(), value.data(), hi_ - 1, hi_,
                                    t);
}

}  // namespace waveletic::spice
