#pragma once

/// \file method.hpp
/// The equivalent-waveform abstraction: every technique from the paper
/// (P1, P2, LSF3, E4, WLS5, SGDP) maps a noisy input waveform to the
/// equivalent linear ramp Γeff that STA then treats as the gate input.
///
/// All waveforms handed to a method must describe the same transition;
/// methods internally rising-normalize using the supplied polarities and
/// always return a rising-normalized Ramp (callers keep polarity).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sensitivity.hpp"
#include "wave/kernels.hpp"
#include "wave/ramp.hpp"
#include "wave/waveform.hpp"

namespace waveletic::core {

/// Inputs available to a technique.  `noisy_in` is mandatory; the
/// noiseless pair is required by P1 (slew), WLS5 and SGDP (sensitivity).
struct MethodInput {
  const wave::Waveform* noisy_in = nullptr;
  const wave::Waveform* noiseless_in = nullptr;
  const wave::Waveform* noiseless_out = nullptr;
  /// View alternatives to the pointer fields above; a non-empty view
  /// takes precedence over the matching pointer.  The propagation hot
  /// path uses these to hand techniques workspace-backed waveforms
  /// without materializing Waveform objects (zero heap traffic).
  wave::WaveView noisy_in_view;
  wave::WaveView noiseless_in_view;
  wave::WaveView noiseless_out_view;
  wave::Polarity in_polarity = wave::Polarity::kRising;
  /// Polarity of the gate *output* transition (inverting gates flip);
  /// used to normalize noiseless_out for the sensitivity computation.
  wave::Polarity out_polarity = wave::Polarity::kFalling;
  double vdd = 1.2;
  /// P — the number of sampling points (the paper's run-time section
  /// uses P = 35).
  int samples = 35;

  /// Rising-normalized owning copies (legacy surface; cold paths).
  [[nodiscard]] wave::Waveform noisy_rising() const;
  [[nodiscard]] wave::Waveform noiseless_in_rising() const;
  [[nodiscard]] wave::Waveform noiseless_out_rising() const;

  /// Rising-normalized views: zero-copy for rising inputs, a flip into
  /// `ws` for falling.  Bitwise identical to the owning accessors.
  [[nodiscard]] wave::WaveView noisy_rising_view(wave::Workspace& ws) const;
  [[nodiscard]] wave::WaveView noiseless_in_rising_view(
      wave::Workspace& ws) const;
  [[nodiscard]] wave::WaveView noiseless_out_rising_view(
      wave::Workspace& ws) const;

  /// The effective (view-or-pointer) waveforms; empty when absent.
  [[nodiscard]] wave::WaveView noisy_wave() const noexcept;
  [[nodiscard]] wave::WaveView noiseless_in_wave() const noexcept;
  [[nodiscard]] wave::WaveView noiseless_out_wave() const noexcept;

  /// Validates presence of the required waveforms.
  void require_noisy() const;
  void require_noiseless_pair(std::string_view method) const;
};

/// Result of a fit: the ramp plus diagnostics.
struct Fit {
  wave::Ramp ramp;
  /// True when the technique's own formulation degenerated (e.g. all
  /// WLS5 weights zero because the noise fell outside the noiseless
  /// critical region) and the method fell back to an unweighted fit.
  bool degenerate_fallback = false;
};

/// Interface shared by all techniques.
///
/// Reentrancy contract: fit() is const and must be safe to call
/// concurrently from many threads on one instance — implementations
/// keep all working state on the stack and in the calling thread's
/// util::thread_scratch() arena, under a scope (every built-in
/// technique does), so a warmed thread fits without touching the
/// heap.  The levelized STA engine and its sweeps rely on this to
/// evaluate noise scenarios in parallel through a single method
/// object.  A caller that wants per-thread instances anyway (e.g. to
/// tolerate a future stateful technique) can clone().
class EquivalentWaveformMethod {
 public:
  virtual ~EquivalentWaveformMethod() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Const and reentrant; see the class comment.
  [[nodiscard]] virtual Fit fit(const MethodInput& input) const = 0;
  /// Whether the method needs the noiseless input/output pair.
  [[nodiscard]] virtual bool needs_noiseless() const noexcept { return false; }
  /// Deep copy carrying all options.
  [[nodiscard]] virtual std::unique_ptr<EquivalentWaveformMethod> clone()
      const = 0;
};

/// P uniform sample times across [t0, t1].
[[nodiscard]] std::vector<double> sample_times(double t0, double t1,
                                               int samples);

/// All six techniques in paper order: P1, P2, LSF3, E4, WLS5, SGDP.
[[nodiscard]] std::vector<std::unique_ptr<EquivalentWaveformMethod>>
all_methods();

/// Builds one technique by paper name (case-insensitive); throws on
/// unknown names.
[[nodiscard]] std::unique_ptr<EquivalentWaveformMethod> make_method(
    std::string_view name);

}  // namespace waveletic::core
