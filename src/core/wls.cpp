#include "core/wls.hpp"

#include "core/lsf.hpp"
#include "la/solve.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace waveletic::core {

Fit Wls5Method::fit(const MethodInput& input) const {
  input.require_noisy();
  input.require_noiseless_pair("WLS5");
  wave::Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);
  const auto clean_in = input.noiseless_in_rising_view(ws);
  const auto clean_out = input.noiseless_out_rising_view(ws);

  // WLS5 never applies the non-overlap alignment — that is SGDP's
  // addition.  Disjoint transitions simply produce zero weights here.
  const auto rho =
      SensitivityCurve::build(clean_in, clean_out, input.vdd,
                              /*align_non_overlapping=*/false, {}, ws);

  // Sample across the noiseless critical region — the support of ρ.
  // The noisy values arrive via one merge scan; the ρ² weights fold in
  // the scalar order.
  const auto& region = rho.region();
  const auto t = ws.alloc(static_cast<size_t>(input.samples));
  wave::sample_times_into(region.t_first, region.t_last, t);
  const auto v = ws.alloc(t.size());
  wave::sample_into(noisy, t, v);
  const auto w = ws.alloc(t.size());
  double weight_sum = 0.0;
  for (size_t k = 0; k < t.size(); ++k) {
    const double r = rho.rho_at_time(t[k]);
    w[k] = r * r;  // the squared Eq. 2 term weights by ρ²
    weight_sum += w[k];
  }

  if (weight_sum < 1e-12) {
    // Every weight vanished: the WLS5 failure mode.
    Fit fit = lsf3_fit(noisy, input.vdd, input.samples, ws);
    fit.degenerate_fallback = true;
    return fit;
  }

  const auto line = la::fit_line(t, v, w);
  if (line.slope <= 0.0) {
    Fit fit = lsf3_fit(noisy, input.vdd, input.samples, ws);
    fit.degenerate_fallback = true;
    return fit;
  }
  Fit fit;
  fit.ramp = wave::Ramp(line.slope, line.intercept, input.vdd);
  return fit;
}

}  // namespace waveletic::core
