#pragma once

/// \file sources.hpp
/// Time-domain stimulus descriptions for independent sources: DC, PWL,
/// PULSE (SPICE semantics), saturated ramps, and arbitrary sampled
/// waveforms (used to replay noisy victim waveforms into a receiver).

#include <memory>
#include <vector>

#include "wave/ramp.hpp"
#include "wave/waveform.hpp"

namespace waveletic::spice {

/// Value-semantics stimulus: v(t) for any t ≥ 0.
class Stimulus {
 public:
  virtual ~Stimulus() = default;
  [[nodiscard]] virtual double at(double t) const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<Stimulus> clone() const = 0;
};

class DcStimulus final : public Stimulus {
 public:
  /// Throws util::Error on a non-finite value.
  explicit DcStimulus(double value);
  [[nodiscard]] double at(double) const noexcept override { return value_; }
  [[nodiscard]] std::unique_ptr<Stimulus> clone() const override {
    return std::make_unique<DcStimulus>(value_);
  }

 private:
  double value_;
};

/// Piecewise-linear stimulus; flat extension outside the point list.
class PwlStimulus final : public Stimulus {
 public:
  struct Point {
    double t;
    double v;
  };
  /// Points must be finite and strictly increasing in time (≥ 1 point).
  explicit PwlStimulus(std::vector<Point> points);
  [[nodiscard]] double at(double t) const noexcept override;
  [[nodiscard]] std::unique_ptr<Stimulus> clone() const override {
    return std::make_unique<PwlStimulus>(*this);
  }

 private:
  std::vector<Point> points_;
};

/// SPICE PULSE(v0 v1 td tr tf pw per); period 0 = single pulse.  Every
/// parameter must be finite.
class PulseStimulus final : public Stimulus {
 public:
  PulseStimulus(double v0, double v1, double delay, double rise, double fall,
                double width, double period);
  [[nodiscard]] double at(double t) const noexcept override;
  [[nodiscard]] std::unique_ptr<Stimulus> clone() const override {
    return std::make_unique<PulseStimulus>(*this);
  }

 private:
  double v0_, v1_, delay_, rise_, fall_, width_, period_;
};

/// Saturated linear ramp from v_lo to v_hi (or the reverse when
/// `rising` is false) crossing midpoint at t_mid with 0-100% transition
/// time t_transition.  Every parameter must be finite.
class RampStimulus final : public Stimulus {
 public:
  RampStimulus(double t_mid, double t_transition, double v_lo, double v_hi,
               bool rising);
  [[nodiscard]] double at(double t) const noexcept override;
  [[nodiscard]] std::unique_ptr<Stimulus> clone() const override {
    return std::make_unique<RampStimulus>(*this);
  }

 private:
  double t_mid_, t_transition_, v_lo_, v_hi_;
  bool rising_;
};

/// Replays an arbitrary sampled waveform (clamped outside its grid).
class WaveformStimulus final : public Stimulus {
 public:
  explicit WaveformStimulus(wave::Waveform w) : wave_(std::move(w)) {}
  /// Bitwise Waveform::at(t).  A transient asks for non-decreasing
  /// times, so the segment of the last query is kept and walked
  /// forward; a query before it falls back to the binary search.  The
  /// cursor makes concurrent calls unsafe, which no analysis makes: a
  /// circuit is analysed by one thread at a time.
  [[nodiscard]] double at(double t) const noexcept override;
  [[nodiscard]] std::unique_ptr<Stimulus> clone() const override {
    return std::make_unique<WaveformStimulus>(*this);
  }

 private:
  wave::Waveform wave_;
  mutable size_t hi_ = 1;  ///< upper sample of the last query's segment
};

}  // namespace waveletic::spice
