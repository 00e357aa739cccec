#include "wave/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "wave/kernels.hpp"

namespace waveletic::wave {

const char* to_string(Polarity p) noexcept {
  return p == Polarity::kRising ? "rising" : "falling";
}

Waveform::Waveform(std::vector<double> time, std::vector<double> value)
    : time_(std::move(time)), value_(std::move(value)) {
  util::require(time_.size() == value_.size(),
                "Waveform: time/value length mismatch (", time_.size(), " vs ",
                value_.size(), ")");
  util::require(!time_.empty(), "Waveform: empty sample set");
  for (size_t i = 0; i < time_.size(); ++i) {
    util::require(std::isfinite(time_[i]) && std::isfinite(value_[i]),
                  "Waveform: non-finite sample at index ", i, " (t=",
                  time_[i], ", v=", value_[i], ")");
    util::require(i == 0 || time_[i] > time_[i - 1],
                  "Waveform: time grid not strictly increasing at index ", i);
  }
}

double Waveform::at(double t) const noexcept {
  if (t <= time_.front()) return value_.front();
  if (t >= time_.back()) return value_.back();
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(time_.begin(), time_.end(), t);
  const size_t hi = static_cast<size_t>(it - time_.begin());
  return detail::lerp_segment(time_.data(), value_.data(), hi - 1, hi, t);
}

Waveform Waveform::derivative() const {
  std::vector<double> d(size());
  derivative_into(*this, d);
  return Waveform(time_, std::move(d));
}

std::vector<double> Waveform::crossings(double level) const {
  std::vector<double> out;
  out.reserve(8);  // typical noisy records cross a few times
  scan_crossings(*this, level, [&](double t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::optional<double> Waveform::first_crossing(double level) const {
  return wave::first_crossing(WaveView(*this), level);
}

std::optional<double> Waveform::last_crossing(double level) const {
  return wave::last_crossing(WaveView(*this), level);
}

Waveform Waveform::resampled(double t0, double t1, size_t n) const {
  util::require(n >= 2, "resampled: need at least 2 points");
  util::require(t1 > t0, "resampled: empty interval [", t0, ", ", t1, "]");
  std::vector<double> t(n), v(n);
  resample_into(*this, t0, t1, t, v);
  return Waveform(std::move(t), std::move(v));
}

Waveform Waveform::window(double t0, double t1) const {
  util::require(t1 > t0, "window: empty interval");
  // Interior samples are exactly those in (t0, t1): locate the range
  // with binary searches instead of scanning the whole record.
  const auto lo = std::upper_bound(time_.begin(), time_.end(), t0);
  const auto hi = std::lower_bound(lo, time_.end(), t1);
  const size_t interior = static_cast<size_t>(hi - lo);
  std::vector<double> t, v;
  t.reserve(interior + 2);
  v.reserve(interior + 2);
  t.push_back(t0);
  v.push_back(at(t0));
  const size_t first = static_cast<size_t>(lo - time_.begin());
  for (size_t i = first; i < first + interior; ++i) {
    t.push_back(time_[i]);
    v.push_back(value_[i]);
  }
  if (t1 > t.back()) {
    t.push_back(t1);
    v.push_back(at(t1));
  }
  return Waveform(std::move(t), std::move(v));
}

Waveform Waveform::shifted(double dt) const {
  std::vector<double> t(time_);
  for (double& x : t) x += dt;
  return Waveform(std::move(t), value_);
}

Waveform Waveform::flipped(double v_ref) const {
  std::vector<double> v(value_);
  for (double& x : v) x = v_ref - x;
  return Waveform(time_, std::move(v));
}

Waveform Waveform::normalized_rising(Polarity p, double vdd) const {
  return p == Polarity::kRising ? *this : flipped(vdd);
}

Waveform Waveform::smoothed(size_t half_width) const {
  if (half_width == 0) return *this;
  const size_t n = size();
  std::vector<double> prefix(n + 1);
  std::vector<double> v(n);
  smoothed_into(*this, half_width, prefix, v);
  return Waveform(time_, std::move(v));
}

double Waveform::min_value() const noexcept {
  return *std::min_element(value_.begin(), value_.end());
}

double Waveform::max_value() const noexcept {
  return *std::max_element(value_.begin(), value_.end());
}

bool Waveform::is_monotone_rising(double tol) const noexcept {
  for (size_t i = 1; i < size(); ++i) {
    if (value_[i] < value_[i - 1] - tol) return false;
  }
  return true;
}

double Waveform::integral(double baseline) const noexcept {
  double acc = 0.0;
  for (size_t i = 1; i < size(); ++i) {
    const double mid =
        0.5 * (value_[i] + value_[i - 1]) - baseline;
    acc += mid * (time_[i] - time_[i - 1]);
  }
  return acc;
}

Waveform Waveform::linear_ramp(double t_mid, double t_transition, double v_lo,
                               double v_hi, size_t n) {
  util::require(t_transition > 0.0, "linear_ramp: non-positive transition");
  util::require(v_hi > v_lo, "linear_ramp: v_hi must exceed v_lo");
  util::require(n >= 4, "linear_ramp: need at least 4 points");
  const double t_start = t_mid - 0.5 * t_transition;
  const double t0 = t_start - t_transition;
  const double t1 = t_mid + 0.5 * t_transition + t_transition;
  std::vector<double> t(n), v(n);
  const double dt = (t1 - t0) / static_cast<double>(n - 1);
  const double slope = (v_hi - v_lo) / t_transition;
  for (size_t i = 0; i < n; ++i) {
    t[i] = t0 + dt * static_cast<double>(i);
    const double raw = v_lo + slope * (t[i] - t_start);
    v[i] = std::clamp(raw, v_lo, v_hi);
  }
  return Waveform(std::move(t), std::move(v));
}

void Waveform::write_csv(const std::string& path,
                         const std::string& label) const {
  std::ofstream file(path);
  util::require(file.good(), "cannot open waveform CSV for write: ", path);
  file << "t," << label << '\n';
  file.precision(12);
  for (size_t i = 0; i < size(); ++i) {
    file << time_[i] << ',' << value_[i] << '\n';
  }
}

Waveform Waveform::read_csv(const std::string& path) {
  std::ifstream file(path);
  util::require(file.good(), "cannot open waveform CSV for read: ", path);
  std::string line;
  std::vector<double> t, v;
  bool first = true;
  while (std::getline(file, line)) {
    const auto fields = util::split(line, ",");
    if (fields.size() < 2) continue;
    if (first) {
      first = false;
      // Skip a header row if the first field is not numeric.
      double probe = 0.0;
      if (!util::try_parse_eng(fields[0], probe)) continue;
    }
    double ti = 0.0, vi = 0.0;
    util::require(util::try_parse_eng(fields[0], ti) &&
                      util::try_parse_eng(fields[1], vi),
                  "bad CSV row in ", path, ": ", line);
    t.push_back(ti);
    v.push_back(vi);
  }
  return Waveform(std::move(t), std::move(v));
}

Waveform combine(const Waveform& a, double ca, const Waveform& b, double cb) {
  // Union grid by linear two-pointer merge (both inputs are strictly
  // increasing) instead of concatenate + sort + unique, then one merge
  // scan per operand instead of two binary searches per grid point.
  std::vector<double> grid(a.size() + b.size());
  grid.resize(merge_grids(a.times(), b.times(), grid));
  std::vector<double> va(grid.size()), vb(grid.size());
  sample_into(a, grid, va);
  sample_into(b, grid, vb);
  std::vector<double> v(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    v[i] = ca * va[i] + cb * vb[i];
  }
  return Waveform(std::move(grid), std::move(v));
}

}  // namespace waveletic::wave
