#include "core/point_based.hpp"

#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace waveletic::core {

Fit P1Method::fit(const MethodInput& input) const {
  input.require_noisy();
  input.require_noiseless_pair("P1");
  wave::Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);
  const auto clean = input.noiseless_in_rising_view(ws);

  const auto slew =
      wave::slew_clean(clean, wave::Polarity::kRising, input.vdd);
  util::require(slew.has_value(), "P1: noiseless input has no 10-90 slew");
  const auto arrival = wave::last_crossing(noisy, 0.5 * input.vdd);
  util::require(arrival.has_value(), "P1: noisy input never crosses 50%");

  Fit fit;
  fit.ramp = wave::Ramp::from_arrival_slew(*arrival, *slew, input.vdd);
  return fit;
}

Fit P2Method::fit(const MethodInput& input) const {
  input.require_noisy();
  wave::Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);

  const auto slew =
      wave::slew_noisy(noisy, wave::Polarity::kRising, input.vdd);
  util::require(slew.has_value(),
                "P2: noisy input has no first-10% to last-90% span");
  const auto arrival = wave::last_crossing(noisy, 0.5 * input.vdd);
  util::require(arrival.has_value(), "P2: noisy input never crosses 50%");

  Fit fit;
  fit.ramp = wave::Ramp::from_arrival_slew(*arrival, *slew, input.vdd);
  return fit;
}

}  // namespace waveletic::core
