#include "core/sgdp.hpp"

#include <cmath>
#include <limits>

#include "core/lsf.hpp"
#include "core/ramp_fit.hpp"
#include "la/solve.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace waveletic::core {
namespace {

using wave::WaveView;
using wave::Workspace;

struct SampleSet {
  std::span<double> t;     // sample times (noisy critical region)
  std::span<double> v;     // noisy voltages at t
  std::span<double> rho;   // ρ_eff(t_k) (Step 2 remap)
  std::span<double> drho;  // dρ_eff/dv at v_k
  double weight_sum = 0.0;
};

SampleSet collect_samples(WaveView noisy, const SensitivityCurve& rho,
                          int samples, double t_lo, double t_hi,
                          Workspace& ws) {
  SampleSet set;
  util::require(samples >= 2, "sample_times: need >= 2 samples");
  set.t = ws.alloc(static_cast<size_t>(samples));
  wave::sample_times_into(t_lo, t_hi, set.t);
  set.v = ws.alloc(set.t.size());
  // The time grid is monotone, so the noisy voltages arrive via one
  // merge scan; the ρ remap is indexed by *voltage* (non-monotone), so
  // it stays a per-point interpolation.
  wave::sample_into(noisy, set.t, set.v);
  set.rho = ws.alloc(set.t.size());
  set.drho = ws.alloc(set.t.size());
  for (size_t k = 0; k < set.t.size(); ++k) {
    // Step 2: voltage-level matching.
    set.rho[k] = rho.rho_at_voltage(set.v[k]);
    set.drho[k] = rho.drho_dv(set.v[k]);
    set.weight_sum += set.rho[k] * set.rho[k];
  }
  return set;
}

/// The arrival-relevant 50% crossing.  Marginal re-crosses — dips that
/// re-cross the measurement level but never come back down to the
/// receiving stage's switching band (its ρ-derived lower edge) — cannot
/// re-switch the gate, so they are discarded from the crossing list.
/// This is pure sensitivity information: no extra characterization is
/// needed, which keeps the paper's library-compatibility claim intact.
struct OperativeCrossing {
  double t_cross = 0.0;  ///< the crossing the gate actually responds to
  /// Start of the first rejected dip; samples beyond it describe noise
  /// the gate ignores and must not enter the fit.
  double t_cap = std::numeric_limits<double>::infinity();
};

OperativeCrossing operative_crossing(WaveView noisy, double vdd,
                                     double rho_band_low_edge,
                                     double max_dwell, Workspace& ws) {
  auto mids = wave::crossings_into(noisy, 0.5 * vdd, ws);
  util::require(!mids.empty(), "SGDP: noisy input never crosses 50%");
  OperativeCrossing out;
  size_t count = mids.size();
  while (count >= 3) {
    // The last dip lies between the downward crossing mids[n-2] and the
    // final upward crossing mids[n-1]; measure how deep it goes and how
    // long it lingers.
    const double t_a = mids[count - 2];
    const double t_b = mids[count - 1];
    double v_min = 0.5 * vdd;
    for (size_t i = 0; i < noisy.size(); ++i) {
      if (noisy.time[i] <= t_a || noisy.time[i] >= t_b) continue;
      v_min = std::min(v_min, noisy.value[i]);
    }
    // A dip is inoperative only when it is both *shallow* (never
    // reaching the sensitivity band's lower edge) and *brief* (shorter
    // than the gate's own response time, so the output cannot follow
    // quasi-statically).
    const bool shallow = v_min > rho_band_low_edge;
    const bool brief = (t_b - t_a) < max_dwell;
    if (shallow && brief) {
      out.t_cap = t_a;
      count -= 2;
    } else {
      break;
    }
  }
  out.t_cross = mids[count - 1];
  return out;
}

}  // namespace

Fit SgdpMethod::fit(const MethodInput& input) const {
  input.require_noisy();
  input.require_noiseless_pair("SGDP");
  Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);
  const auto clean_in = input.noiseless_in_rising_view(ws);
  const auto clean_out = input.noiseless_out_rising_view(ws);

  // Step 1 (+ additional alignment step when transitions are disjoint).
  const auto rho = SensitivityCurve::build(clean_in, clean_out, input.vdd,
                                           opt_.align_non_overlapping, {},
                                           ws);

  // P samples across the arrival event: from the low crossing before
  // the operative 50% crossing up to the completion level after it (the
  // glitch tail past completion cannot change the arrival; see
  // wave::arrival_event_region).
  OperativeCrossing oc;
  if (opt_.anchor_guard) {
    // Response timescale: the receiving stage's own output transition.
    const auto out_slew =
        wave::slew_clean(clean_out, wave::Polarity::kRising, input.vdd);
    const double max_dwell = out_slew ? 2.0 * *out_slew : 0.0;
    oc = operative_crossing(noisy, input.vdd, rho.band_low_edge(),
                            max_dwell, ws);
  } else {
    oc.t_cross = *wave::last_crossing(noisy, 0.5 * input.vdd);
  }
  const double anchor = oc.t_cross;
  const auto event =
      wave::arrival_event_region(noisy, wave::Polarity::kRising, input.vdd);
  util::require(event.has_value(),
                "SGDP: noisy input never completes a transition");
  double t_hi = event->t_last;
  if (anchor < event->t_first || anchor > event->t_last) {
    // The operative crossing belongs to an earlier event than the last
    // one: truncate at its own completion crossing instead.
    t_hi = noisy.t_end();
    wave::scan_crossings(noisy, 0.8 * input.vdd, [&](double t) {
      if (t >= anchor) {
        t_hi = t;
        return false;
      }
      return true;
    });
  }
  // Never sample into a rejected dip.
  t_hi = std::min(t_hi, oc.t_cap);
  const double t_lo = std::min(event->t_first, anchor - 1e-15);
  util::require(t_hi > t_lo, "SGDP: empty sampling window");

  const auto set = collect_samples(noisy, rho, input.samples, t_lo, t_hi, ws);
  if (set.weight_sum < 1e-12) {
    // Even the remapped sensitivity found no overlap with the noisy
    // voltages (e.g. rail-to-rail glitch only): honest fallback.
    Fit fit = lsf3_fit(noisy, input.vdd, input.samples, ws);
    fit.degenerate_fallback = true;
    return fit;
  }

  // Robust starting point: a P2-style construction around the operative
  // crossing is always a meaningful saturated ramp.
  const double span = set.t.back() - set.t.front();
  const wave::Ramp start =
      wave::Ramp::from_arrival_slew(anchor, 0.8 * span, input.vdd);

  // First-order pass (Eq. 3 truncated after the linear term): clamped
  // weighted LSQ with the Step 2 remapped weights.
  ClampedRampFit first;
  first.t = set.t;
  first.v = set.v;
  first.rho = set.rho;
  first.vdd = input.vdd;
  first.init = start;
  first.iterations = opt_.gauss_newton_iterations;
  wave::Ramp ramp = fit_clamped_ramp(first, ws);

  if (opt_.second_order) {
    // Full Eq. 3 with the ½·dρ/dv·Δ² correction, seeded by the
    // first-order solution.
    ClampedRampFit second = first;
    second.drho = set.drho;
    second.init = ramp;
    ramp = fit_clamped_ramp(second, ws);
  }

  if (opt_.anchor_guard) {
    // Production guards.  (1) An equivalent waveform whose 50% crossing
    // falls outside the noisy waveform's own crossing span cannot
    // represent the transition (long shallow-noise tails can drag the
    // free fit there): re-fit with the line pinned through the
    // operative crossing, slope free.  (2) Γeff's slew may not exceed
    // the waveform's own first-10% to last-90% span — the most
    // pessimistic physical slew measure (P2's definition); beyond it
    // the ramp no longer describes the transition at all.
    const double first05 = *wave::first_crossing(noisy, 0.5 * input.vdd);
    const double slack = 0.15 * span;
    if (ramp.t50() < first05 - slack || ramp.t50() > anchor + slack) {
      ClampedRampFit pinned = first;
      pinned.pin_time = anchor;
      pinned.init = start;
      if (opt_.second_order) pinned.drho = set.drho;
      ramp = fit_clamped_ramp(pinned, ws);
    }
    const auto span_slew =
        wave::slew_noisy(noisy, wave::Polarity::kRising, input.vdd);
    if (span_slew && ramp.slew() > *span_slew) {
      ramp = wave::Ramp::from_arrival_slew(anchor, *span_slew, input.vdd);
    }
  }

  Fit fit;
  fit.ramp = ramp;
  if (opt_.shift_gamma_by_delta && rho.aligned()) {
    fit.ramp = fit.ramp.shifted(rho.delta());
  }
  return fit;
}

wave::Waveform SgdpMethod::effective_sensitivity(
    const MethodInput& input) const {
  input.require_noisy();
  input.require_noiseless_pair("SGDP");
  Workspace& ws = util::thread_scratch();
  const auto scope = ws.scope();
  const auto noisy = input.noisy_rising_view(ws);
  const auto rho = SensitivityCurve::build(
      input.noiseless_in_rising_view(ws),
      input.noiseless_out_rising_view(ws), input.vdd,
      opt_.align_non_overlapping, {}, ws);
  const auto event =
      wave::arrival_event_region(noisy, wave::Polarity::kRising, input.vdd);
  util::require(event.has_value(),
                "SGDP: noisy input never completes a transition");
  const auto set = collect_samples(noisy, rho, input.samples,
                                   event->t_first, event->t_last, ws);
  return WaveView(set.t, set.rho).to_waveform();
}

}  // namespace waveletic::core
