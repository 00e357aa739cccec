#include "core/ramp_fit.hpp"

#include <algorithm>
#include <cmath>

#include "la/gauss_newton.hpp"
#include "util/error.hpp"

namespace waveletic::core {

wave::Ramp fit_clamped_ramp(const ClampedRampFit& spec,
                            util::Workspace& ws) {
  const size_t n = spec.t.size();
  util::require(n >= 4 && spec.v.size() == n,
                "fit_clamped_ramp: need >= 4 samples");
  util::require(spec.rho.empty() || spec.rho.size() == n,
                "fit_clamped_ramp: rho length mismatch");
  util::require(spec.drho.empty() || spec.drho.size() == n,
                "fit_clamped_ramp: drho length mismatch");

  // Scale time by the sample span so both unknowns are O(1).
  const double t_ref = spec.pin_time.value_or(
      0.5 * (spec.t.front() + spec.t.back()));
  const double tau = std::max(spec.t.back() - spec.t.front(), 1e-15);
  const double vdd = spec.vdd;
  const bool pinned = spec.pin_time.has_value();

  // Unknowns: [slope·τ, value at t_ref]; when pinned, the value at the
  // pin is fixed to vdd/2 and only the slope remains.  The per-sample
  // formula matches the historical scalar loop exactly; the ρ/ρ'
  // presence checks are hoisted out of the inner loop so each variant
  // is a single fused pass over the contiguous sample buffers.
  const double* t_p = spec.t.data();
  const double* v_p = spec.v.data();
  const double* rho_p = spec.rho.empty() ? nullptr : spec.rho.data();
  const double* drho_p = spec.drho.empty() ? nullptr : spec.drho.data();
  const auto fill = [&]<bool kHasRho, bool kHasDrho>(double s, double c,
                                                     std::span<double> r,
                                                     la::MatrixRef jac) {
    for (size_t k = 0; k < n; ++k) {
      const double u = (t_p[k] - t_ref) / tau;
      const double line = s * u + c;
      const bool active = line > 0.0 && line < vdd;
      const double clamped = std::clamp(line, 0.0, vdd);
      const double delta = v_p[k] - clamped;
      const double rho = kHasRho ? rho_p[k] : 1.0;
      const double drho = kHasDrho ? drho_p[k] : 0.0;
      r[k] = rho * delta + 0.5 * drho * delta * delta;
      // dr/dΔ · dΔ/d{s,c}; saturated samples have zero sensitivity.
      const double gain = active ? (rho + drho * delta) : 0.0;
      jac(k, 0) = -u * gain;
      if (!pinned) jac(k, 1) = -gain;
    }
  };
  const auto residual = [&](std::span<const double> x, std::span<double> r,
                            la::MatrixRef jac) {
    const double s = x[0];
    const double c = pinned ? 0.5 * vdd : x[1];
    if (rho_p != nullptr) {
      if (drho_p != nullptr) {
        fill.template operator()<true, true>(s, c, r, jac);
      } else {
        fill.template operator()<true, false>(s, c, r, jac);
      }
    } else if (drho_p != nullptr) {
      fill.template operator()<false, true>(s, c, r, jac);
    } else {
      fill.template operator()<false, false>(s, c, r, jac);
    }
  };

  double x_buf[2];
  size_t m = 0;
  x_buf[m++] = spec.init.a() * tau;
  if (!pinned) x_buf[m++] = spec.init.a() * t_ref + spec.init.b();
  la::GaussNewtonOptions gn;
  gn.max_iterations = spec.iterations;
  (void)la::gauss_newton_into(residual, std::span<double>(x_buf, m), n, gn,
                              ws);

  const double slope = x_buf[0] / tau;
  const double intercept =
      (pinned ? 0.5 * vdd : x_buf[1]) - slope * t_ref;
  const auto sane = [&](double a, double b) {
    if (!(a > 0.0) || !std::isfinite(a) || !std::isfinite(b)) return false;
    const double t50 = (0.5 * vdd - b) / a;
    const double span = spec.t.back() - spec.t.front();
    return t50 > spec.t.front() - span && t50 < spec.t.back() + span;
  };
  if (!sane(slope, intercept)) return spec.init;
  return wave::Ramp(slope, intercept, vdd);
}

}  // namespace waveletic::core
