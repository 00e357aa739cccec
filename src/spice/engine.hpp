#pragma once

/// \file engine.hpp
/// DC operating point and fixed-step transient analysis on a Circuit.
///
/// The engine is the golden reference of the whole reproduction: it
/// plays the role Hspice plays in the paper.  Accuracy knobs (step size,
/// integration method) are explicit so the ablation benches can study
/// their effect.
///
/// Each analysis sizes one Newton system (matrix, rhs, solution,
/// permutation, LU pattern) from the circuit once.  Every Newton
/// iteration stamps into that matrix and factors it in place along the
/// analysis' la::LuPattern, which skips the structural zeros of factor
/// and solve and is rebuilt only when a device stamps a new entry or
/// the pivot order moves (bitwise equal to the dense LU; see lu.hpp).
/// A transient step allocates nothing beyond its recorded samples,
/// whose buffers are reserved up front.  A debug-level log line at the
/// end of a transient counts its factorizations along the pattern and
/// its rebuilds.
///
/// When no device reports Device::nonlinear(), the system also keeps
/// its last factorization beside the unfactored matrix it came from.
/// An assembly bitwise equal to that matrix reuses the LU (every
/// iteration after a step's first, and every step whose dt repeats bit
/// for bit), and a right-hand side equal to the last one reuses the
/// solution.  Equal input bits give equal output bits, so results do
/// not depend on it.

#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.hpp"
#include "wave/waveform.hpp"

namespace waveletic::spice {

struct NewtonOptions {
  int max_iterations = 60;
  /// Convergence: max |Δv| below vtol AND max |Δi_branch| below itol.
  double vtol = 1e-6;
  double itol = 1e-9;
  /// Per-iteration clamp on node-voltage updates [V]; damps overshoot.
  double max_update = 0.4;
  /// Conductance to ground added at every node.
  double gmin = 1e-12;
};

struct TransientSpec {
  double t_stop = 1e-9;
  double dt = 1e-12;
  Integration method = Integration::kTrapezoidal;
  NewtonOptions newton;
  /// Record every node when empty, otherwise only the named ones.
  std::vector<std::string> probes;
};

/// Result of a transient run: per-probe sampled waveforms.
class TransientResult {
 public:
  TransientResult(std::vector<std::string> names,
                  std::vector<double> time,
                  std::vector<std::vector<double>> samples);

  [[nodiscard]] const wave::Waveform& waveform(const std::string& node) const;
  [[nodiscard]] bool has(const std::string& node) const noexcept;
  [[nodiscard]] std::vector<std::string> probe_names() const;
  [[nodiscard]] size_t steps() const noexcept { return time_.size(); }

 private:
  std::vector<double> time_;
  std::unordered_map<std::string, wave::Waveform> waves_;
};

/// Solves the DC operating point; returns the full unknown vector
/// (layout: node voltages 1..n-1, then branch currents).  Uses plain
/// Newton first and falls back to source stepping.  Throws util::Error
/// on non-convergence, naming the unknown when an update is NaN or
/// infinite.
[[nodiscard]] la::Vector dc_operating_point(Circuit& circuit,
                                            const NewtonOptions& opt = {});

/// Fixed-step transient from the DC operating point at t = 0.  Throws
/// util::Error on a bad spec (non-finite or non-positive dt, non-finite
/// t_stop or t_stop <= dt, more than 1e7 steps) and when a step's
/// Newton iteration diverges or updates an unknown to NaN or infinity
/// (the message names the time and the unknown).
[[nodiscard]] TransientResult transient(Circuit& circuit,
                                        const TransientSpec& spec);

}  // namespace waveletic::spice
