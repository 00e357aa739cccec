#include "core/energy.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "wave/kernels.hpp"

namespace waveletic::core {

Fit E4Method::fit(const MethodInput& input) const {
  input.require_noisy();
  wave::Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);
  const double vdd = input.vdd;
  const double half = 0.5 * vdd;

  const auto arrival = wave::last_crossing(noisy, half);
  util::require(arrival.has_value(), "E4: noisy input never crosses 50%");

  // Area enclosed by the noisy waveform and the lines v1 = Vdd/2 and
  // v2 = Vdd, taken from the pinned point onward:
  //   A = ∫ (Vdd − clamp(v(t), Vdd/2, Vdd)) dt ,  t ≥ t50_last.
  // Integrate on the waveform grid with the P-point sampling density the
  // other techniques use (plus the tail to the end of the record).  The
  // waveform is evaluated with one merge scan; the trapezoid fold keeps
  // the scalar order.
  const double t_end = noisy.t_end();
  util::require(t_end > *arrival, "E4: no samples after the 50% crossing");
  const int n = std::max(64, input.samples * 4);
  const auto t = ws.alloc(static_cast<size_t>(n));
  wave::sample_times_into(*arrival, t_end, t);
  const auto vt = ws.alloc(t.size());
  wave::sample_into(noisy, t, vt);
  double area = 0.0;
  for (size_t k = 1; k < t.size(); ++k) {
    const double va = vdd - std::clamp(vt[k - 1], half, vdd);
    const double vb = vdd - std::clamp(vt[k], half, vdd);
    area += 0.5 * (va + vb) * (t[k] - t[k - 1]);
  }

  // The line from (t50, Vdd/2) with slope a reaches Vdd after Vdd/(2a);
  // its enclosed area is (Vdd/2)²/(2a).  Equate with the noisy area.
  Fit fit;
  const double min_area = half * half / 2.0 * 1e-15;  // slope cap ~ 1 V/fs
  if (area < min_area) {
    // Degenerate: the waveform jumps to Vdd instantly after the pin.
    fit.degenerate_fallback = true;
    area = min_area;
  }
  const double slope = half * half / (2.0 * area);
  const double intercept = half - slope * *arrival;
  fit.ramp = wave::Ramp(slope, intercept, vdd);
  return fit;
}

}  // namespace waveletic::core
