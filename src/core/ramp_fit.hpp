#pragma once

/// \file ramp_fit.hpp
/// Shared nonlinear fitter for saturated ramps.  Γeff is the *clamped*
/// line clamp(a·t + b, 0, vdd) — once a sample sits where the ramp is
/// saturated at a rail, its residual no longer depends on (a, b).  This
/// matters for noisy waveforms whose glitch tail hovers mid-rail long
/// after the main transition: with an unclamped line those tail samples
/// drag the fit into meaningless slopes, while the saturated model
/// correctly lets the transition region determine Γeff.
///
/// The residual per sample is the first two Taylor terms of the
/// predicted output difference (Eq. 3 of the paper):
///
///   r_k = ρ_k·Δ_k + ½·ρ'_k·Δ_k²,   Δ_k = v_k − clamp(a·t_k + b)
///
/// with ρ ≡ 1, ρ' ≡ 0 reproducing the plain (LSF3-style) geometric fit.

#include <optional>
#include <span>

#include "util/workspace.hpp"
#include "wave/ramp.hpp"

namespace waveletic::core {

struct ClampedRampFit {
  std::span<const double> t;     ///< sample times
  std::span<const double> v;     ///< noisy voltages (rising-normalized)
  std::span<const double> rho;   ///< weights; empty = all ones
  std::span<const double> drho;  ///< dρ/dv; empty = first-order only
  double vdd = 1.2;
  wave::Ramp init;               ///< starting point (must be valid)
  int iterations = 10;
  /// When set, the line is constrained through (pin_time, vdd/2) and
  /// only the slope is fitted (used to anchor the arrival at the noisy
  /// waveform's latest 50% crossing when the free fit drifts).
  std::optional<double> pin_time{};
};

/// Gauss-Newton refinement of the saturated-ramp objective.  Returns
/// the refined ramp, or `init` unchanged when the problem is degenerate
/// (all samples saturated / no descent found).  The result is guaranteed
/// to have positive slope and a 50% crossing within one region-span of
/// the sample window.  The Gauss-Newton scratch comes from `ws`.
[[nodiscard]] wave::Ramp fit_clamped_ramp(const ClampedRampFit& spec,
                                          util::Workspace& ws);

}  // namespace waveletic::core
