#pragma once

/// \file devices.hpp
/// Concrete circuit elements: resistor, capacitor, independent sources,
/// and the α-power-law MOSFET used by the virtual cell library.

#include <memory>
#include <string>

#include "spice/circuit.hpp"
#include "spice/sources.hpp"

namespace waveletic::spice {

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);
  void stamp(Stamper& st, const StampContext& ctx) const override;
  [[nodiscard]] double resistance() const noexcept { return ohms_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

/// Linear two-terminal capacitor (also used for coupling capacitors).
/// Companion models:
///   backward Euler:  i = (C/h)(v − v_prev)
///   trapezoidal:     i = (2C/h)(v − v_prev) − i_prev
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);
  void stamp(Stamper& st, const StampContext& ctx) const override;
  void commit(std::span<const double> x, double dt,
              Integration method) override;
  void reset_state() override;
  [[nodiscard]] double capacitance() const noexcept { return farads_; }

 private:
  [[nodiscard]] double voltage_of(std::span<const double> x) const noexcept;
  /// Companion conductance C/h (backward Euler) or 2C/h (trapezoidal).
  [[nodiscard]] double companion_g(double dt,
                                   Integration method) const noexcept;

  NodeId a_, b_;
  double farads_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
  // Companion conductance and current of the step being solved, keyed
  // by its dt and method (dt varies in its low bits from step to step);
  // commit() reuses the conductance, then clears the key, as does
  // reset_state() (step_dt_ = 0 never matches: stamps run with dt > 0).
  mutable double step_dt_ = 0.0;
  mutable Integration step_method_ = Integration::kTrapezoidal;
  mutable double step_g_ = 0.0;
  mutable double step_ieq_ = 0.0;
};

/// Independent current source, current flows from `a` to `b` through
/// the source (SPICE convention: positive current into node b).
class CurrentSource final : public Device {
 public:
  CurrentSource(std::string name, NodeId a, NodeId b,
                std::unique_ptr<Stimulus> stim);
  void stamp(Stamper& st, const StampContext& ctx) const override;

 private:
  NodeId a_, b_;
  std::unique_ptr<Stimulus> stim_;
};

/// Independent voltage source between pos and neg, adds one branch
/// current unknown.
class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId pos, NodeId neg,
                std::unique_ptr<Stimulus> stim);
  [[nodiscard]] int branch_count() const noexcept override { return 1; }
  void stamp(Stamper& st, const StampContext& ctx) const override;

  /// Replaces the stimulus (used by the characterization sweeps so one
  /// circuit can be re-simulated with many input ramps).
  void set_stimulus(std::unique_ptr<Stimulus> stim);

  [[nodiscard]] double value_at(double t) const noexcept {
    return stim_->at(t);
  }

 private:
  NodeId pos_, neg_;
  std::unique_ptr<Stimulus> stim_;
};

/// α-power-law MOSFET model card (Sakurai–Newton).  All current
/// parameters are per metre of channel width; gate/junction capacitances
/// are handled separately by cell builders (explicit Capacitor devices)
/// to keep the conduction model purely resistive.
struct MosfetModel {
  std::string name = "nmos";
  bool pmos = false;
  double vth = 0.35;        ///< threshold voltage [V] (positive for both)
  double alpha = 1.3;       ///< velocity-saturation index
  double kc = 6.0e2;        ///< saturation current factor [A/m / V^alpha]
  double kv = 0.9;          ///< saturation voltage factor [V^(1-alpha/2)]
  double lambda = 0.05;     ///< channel-length modulation [1/V]
  double cgs_per_w = 0.7e-9;  ///< gate-source capacitance [F/m]
  double cgd_per_w = 0.25e-9; ///< gate-drain (Miller) capacitance [F/m]
  double cdb_per_w = 0.5e-9;  ///< drain junction capacitance [F/m]

  /// Saturation drain current at gate overdrive `vov` for width w [m].
  [[nodiscard]] double idsat(double vov, double w) const noexcept;
  /// Saturation drain-source voltage at overdrive `vov`.
  [[nodiscard]] double vdsat(double vov) const noexcept;
};

/// Four-terminal MOSFET (drain, gate, source, bulk).  The bulk terminal
/// only anchors junction capacitance added externally; conduction uses
/// d/g/s.  PMOS is handled by sign reflection of all terminal voltages.
class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         MosfetModel model, double width);

  void stamp(Stamper& st, const StampContext& ctx) const override;
  [[nodiscard]] bool nonlinear() const noexcept override { return true; }

  [[nodiscard]] const MosfetModel& model() const noexcept { return model_; }
  [[nodiscard]] double width() const noexcept { return width_; }

  /// Large-signal drain current (terminal voltages in circuit frame);
  /// exposed for model unit tests.
  struct Operating {
    double id = 0.0;   ///< drain->source current in circuit frame
    double gm = 0.0;   ///< ∂id/∂vgs
    double gds = 0.0;  ///< ∂id/∂vds
  };
  /// Updates the device's power memo (below), so one device must not
  /// be evaluated from two threads at once.
  [[nodiscard]] Operating evaluate(double vd, double vg,
                                   double vs) const noexcept;

  /// The overdrive last evaluated and its two powers.  A device at a
  /// settled bias sees the same overdrive bit for bit on consecutive
  /// iterations and steps, and std::pow is the costliest part of a
  /// stamp; a hit returns exactly what pow would.
  struct PowMemo {
    double vov = 0.0;  ///< key; 0 never matches (evaluation needs vov > 0)
    double pow_alpha = 0.0;       ///< vov^alpha
    double pow_half_alpha = 0.0;  ///< vov^(alpha/2)
  };

 private:
  NodeId d_, g_, s_, b_;
  MosfetModel model_;
  double width_;
  mutable PowMemo memo_;
};

}  // namespace waveletic::spice
