#include "spice/devices.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace waveletic::spice {
namespace {

/// Voltage of node `n` inside the unknown vector (ground = 0 V).
double node_v(std::span<const double> x, NodeId n) noexcept {
  return n == kGround ? 0.0 : x[static_cast<size_t>(n - 1)];
}

}  // namespace

// ---------------------------------------------------------------------------
// Resistor
// ---------------------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  util::require(std::isfinite(ohms) && ohms > 0.0, "resistor ",
                Device::name(),
                ": resistance must be positive and finite, got ", ohms);
}

void Resistor::stamp(Stamper& st, const StampContext&) const {
  st.conductance(a_, b_, 1.0 / ohms_);
}

// ---------------------------------------------------------------------------
// Capacitor
// ---------------------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads) {
  util::require(std::isfinite(farads) && farads > 0.0, "capacitor ",
                Device::name(),
                ": capacitance must be positive and finite, got ", farads);
}

double Capacitor::voltage_of(std::span<const double> x) const noexcept {
  return node_v(x, a_) - node_v(x, b_);
}

double Capacitor::companion_g(double dt, Integration method) const noexcept {
  return method == Integration::kBackwardEuler ? farads_ / dt
                                               : 2.0 * farads_ / dt;
}

void Capacitor::stamp(Stamper& st, const StampContext& ctx) const {
  if (ctx.dc || ctx.dt <= 0.0) return;  // open circuit at DC
  // The companion model depends on the step only: every Newton
  // iteration of a step stamps the values its first iteration computed.
  if (ctx.dt != step_dt_ || ctx.method != step_method_) {
    step_dt_ = ctx.dt;
    step_method_ = ctx.method;
    step_g_ = companion_g(ctx.dt, ctx.method);
    step_ieq_ = ctx.method == Integration::kBackwardEuler
                    ? -step_g_ * v_prev_
                    : -step_g_ * v_prev_ - i_prev_;
  }
  st.conductance(a_, b_, step_g_);
  st.current(a_, b_, step_ieq_);
}

void Capacitor::commit(std::span<const double> x, double dt,
                       Integration method) {
  const double v_now = voltage_of(x);
  if (dt > 0.0) {
    const double g = dt == step_dt_ && method == step_method_
                         ? step_g_
                         : companion_g(dt, method);
    if (method == Integration::kBackwardEuler) {
      i_prev_ = g * (v_now - v_prev_);
    } else {
      i_prev_ = g * (v_now - v_prev_) - i_prev_;
    }
  } else {
    i_prev_ = 0.0;  // DC: steady state, no displacement current
  }
  v_prev_ = v_now;
  step_dt_ = 0.0;  // the next step's companion model uses the new history
}

void Capacitor::reset_state() {
  v_prev_ = 0.0;
  i_prev_ = 0.0;
  step_dt_ = 0.0;
}

// ---------------------------------------------------------------------------
// CurrentSource
// ---------------------------------------------------------------------------

CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b,
                             std::unique_ptr<Stimulus> stim)
    : Device(std::move(name)), a_(a), b_(b), stim_(std::move(stim)) {
  util::require(stim_ != nullptr, "current source without stimulus");
}

void CurrentSource::stamp(Stamper& st, const StampContext& ctx) const {
  st.current(a_, b_, ctx.source_scale * stim_->at(ctx.time));
}

// ---------------------------------------------------------------------------
// VoltageSource
// ---------------------------------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             std::unique_ptr<Stimulus> stim)
    : Device(std::move(name)), pos_(pos), neg_(neg), stim_(std::move(stim)) {
  util::require(stim_ != nullptr, "voltage source without stimulus");
}

void VoltageSource::set_stimulus(std::unique_ptr<Stimulus> stim) {
  util::require(stim != nullptr, "voltage source without stimulus");
  stim_ = std::move(stim);
}

void VoltageSource::stamp(Stamper& st, const StampContext& ctx) const {
  st.branch_voltage(branch_index(), pos_, neg_,
                    ctx.source_scale * stim_->at(ctx.time));
}

// ---------------------------------------------------------------------------
// Mosfet (α-power law, Sakurai–Newton)
// ---------------------------------------------------------------------------

double MosfetModel::idsat(double vov, double w) const noexcept {
  if (vov <= 0.0) return 0.0;
  return kc * w * std::pow(vov, alpha);
}

double MosfetModel::vdsat(double vov) const noexcept {
  if (vov <= 0.0) return 0.0;
  return kv * std::pow(vov, 0.5 * alpha);
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosfetModel model, double width)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      model_(std::move(model)),
      width_(width) {
  util::require(std::isfinite(width) && width > 0.0, "mosfet ",
                Device::name(), ": width must be positive and finite, got ",
                width);
  (void)b_;  // bulk anchors external junction caps only
}

namespace {

/// α-power-law current and partials for an NMOS-frame device with
/// vds ≥ 0.  Returns {id, ∂id/∂vgs, ∂id/∂vds}.
struct NmosEval {
  double id, gm, gds;
};

NmosEval eval_nmos_frame(const MosfetModel& m, double w, double vgs,
                         double vds, Mosfet::PowMemo& memo) noexcept {
  const double vov = vgs - m.vth;
  if (vov <= 0.0) {
    // Sub-threshold: treat as off (leakage folded into engine gmin).
    return {0.0, 0.0, 0.0};
  }
  if (vov != memo.vov) {
    memo = {vov, std::pow(vov, m.alpha), std::pow(vov, 0.5 * m.alpha)};
  }
  const double idsat = m.kc * w * memo.pow_alpha;  // m.idsat(vov, w)
  const double vdsat = m.kv * memo.pow_half_alpha;  // m.vdsat(vov)
  const double clm = 1.0 + m.lambda * vds;
  const double didsat_dvgs = m.alpha * idsat / vov;
  if (vds >= vdsat) {
    return {idsat * clm, didsat_dvgs * clm, idsat * m.lambda};
  }
  const double u = vds / vdsat;
  const double f = (2.0 - u) * u;
  const double df_dvds = (2.0 - 2.0 * u) / vdsat;
  const double dvdsat_dvgs = 0.5 * m.alpha * vdsat / vov;
  // f depends on vgs through vdsat: ∂f/∂vgs = f'(u)·(−u/vdsat)·∂vdsat/∂vgs
  const double df_dvgs = (2.0 - 2.0 * u) * (-u / vdsat) * dvdsat_dvgs;
  NmosEval e;
  e.id = idsat * f * clm;
  e.gm = (didsat_dvgs * f + idsat * df_dvgs) * clm;
  e.gds = idsat * (df_dvds * clm + f * m.lambda);
  return e;
}

}  // namespace

Mosfet::Operating Mosfet::evaluate(double vd, double vg,
                                   double vs) const noexcept {
  // PMOS: reflect every terminal voltage, evaluate as NMOS, and reflect
  // the current back.  Partials are invariant under the reflection
  // (current and controlling voltage deltas flip sign together).
  const double sign = model_.pmos ? -1.0 : 1.0;
  const double vds = sign * (vd - vs);
  const double vgs = sign * (vg - vs);

  Operating op;
  if (vds >= 0.0) {
    const NmosEval e = eval_nmos_frame(model_, width_, vgs, vds, memo_);
    op.id = e.id;
    op.gm = e.gm;
    op.gds = e.gds;
  } else {
    // Symmetric conduction with drain/source roles exchanged:
    //   vgs' = vgs − vds,  vds' = −vds,  id = −id'(vgs', vds')
    // Chain rule back to the (vgs, vds) frame:
    //   ∂id/∂vgs = −gm'
    //   ∂id/∂vds = gm' + gds'
    const NmosEval e = eval_nmos_frame(model_, width_, vgs - vds, -vds, memo_);
    op.id = -e.id;
    op.gm = -e.gm;
    op.gds = e.gm + e.gds;
  }
  op.id *= sign;
  return op;
}

void Mosfet::stamp(Stamper& st, const StampContext& ctx) const {
  const double vd = node_v(ctx.x, d_);
  const double vg = node_v(ctx.x, g_);
  const double vs = node_v(ctx.x, s_);
  const Operating op = evaluate(vd, vg, vs);

  // Linearized drain current about the iterate:
  //   id(v) ≈ id* + gm·(vgs − vgs*) + gds·(vds − vds*)
  // For PMOS the partials returned by evaluate() are in the reflected
  // frame, but both the current and the controlling deltas reflect, so
  // stamping in the circuit frame uses them unchanged.
  const double vgs = vg - vs;
  const double vds = vd - vs;
  const double i0 = op.id - op.gm * vgs - op.gds * vds;

  st.vccs(d_, s_, g_, s_, op.gm);
  st.conductance(d_, s_, op.gds);
  // conductance() stamps a symmetric gds term; the VCCS handles gm.  The
  // remaining constant flows d -> s.
  st.current(d_, s_, i0);
}

}  // namespace waveletic::spice
