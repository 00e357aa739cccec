#pragma once

/// \file lsf.hpp
/// LSF3 (§2.2): plain least-squares fit of the line a·t + b to P samples
/// of the noisy waveform across its critical region — a purely
/// mathematical match with no knowledge of the receiving gate.

#include "core/method.hpp"

namespace waveletic::core {

class Lsf3Method final : public EquivalentWaveformMethod {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "LSF3";
  }
  [[nodiscard]] Fit fit(const MethodInput& input) const override;
  [[nodiscard]] std::unique_ptr<EquivalentWaveformMethod> clone()
      const override {
    return std::make_unique<Lsf3Method>(*this);
  }
};

/// Shared helper: unweighted LSQ ramp over the noisy critical region;
/// used directly by LSF3 and as the degenerate fallback of WLS5/SGDP.
/// Draws all sampling buffers from `ws`.
[[nodiscard]] Fit lsf3_fit(wave::WaveView noisy_rising, double vdd,
                           int samples, wave::Workspace& ws);

}  // namespace waveletic::core
