#include "core/lsf.hpp"

#include "core/ramp_fit.hpp"
#include "la/solve.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace waveletic::core {

Fit lsf3_fit(wave::WaveView noisy_rising, double vdd, int samples,
             wave::Workspace& ws) {
  const auto scope = ws.scope();
  // Sample the arrival event (see wave::arrival_event_region): glitch
  // tails that cannot move the latest 50% crossing are excluded so they
  // cannot dominate the sample budget.
  const auto region = wave::arrival_event_region(
      noisy_rising, wave::Polarity::kRising, vdd);
  util::require(region.has_value(),
                "LSF3: noisy input never completes a transition");
  util::require(samples >= 2, "sample_times: need >= 2 samples");
  const auto t = ws.alloc(static_cast<size_t>(samples));
  wave::sample_times_into(region->t_first, region->t_last, t);
  const auto v = ws.alloc(t.size());
  wave::sample_into(noisy_rising, t, v);

  // Least-squares fit of the *saturated* ramp: plain linear LSQ seeds
  // the Gauss-Newton refinement, which is what keeps long mid-rail
  // glitch tails from dragging the slope (tail samples saturate).
  const auto arrival = wave::last_crossing(noisy_rising, 0.5 * vdd);
  util::require(arrival.has_value(), "LSF3: noisy input never crosses 50%");
  wave::Ramp init = wave::Ramp::from_arrival_slew(
      *arrival, 0.8 * (region->t_last - region->t_first), vdd);
  const auto line = la::fit_line(t, v);
  Fit fit;
  if (line.slope > 0.0) {
    const wave::Ramp linear(line.slope, line.intercept, vdd);
    const double span = region->t_last - region->t_first;
    if (linear.t50() > region->t_first - span &&
        linear.t50() < region->t_last + span) {
      init = linear;
    }
  } else {
    fit.degenerate_fallback = true;
  }

  ClampedRampFit spec;
  spec.t = t;
  spec.v = v;
  spec.vdd = vdd;
  spec.init = init;
  fit.ramp = fit_clamped_ramp(spec, ws);
  return fit;
}

Fit Lsf3Method::fit(const MethodInput& input) const {
  input.require_noisy();
  wave::Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  return lsf3_fit(input.noisy_rising_view(ws), input.vdd, input.samples, ws);
}

}  // namespace waveletic::core
