// Physics and engine tests for the transient simulator: closed-form RC
// responses, integrator convergence order, MOSFET model properties,
// CMOS inverter behaviour, capacitive coupling.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "interconnect/coupled.hpp"
#include "spice/devices.hpp"
#include "spice/engine.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace sp = waveletic::spice;
namespace wv = waveletic::wave;
namespace wu = waveletic::util;

// ---------------------------------------------------------------------------
// Heap-allocation counter for this test binary: every form of operator
// new counts, every form of delete frees (so sanitizer builds see
// matching pairs).  Engine.TransientAllocationsDoNotGrowWithSteps reads it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace {

constexpr double kVdd = 1.2;

sp::MosfetModel nmos_model() {
  sp::MosfetModel m;
  m.name = "nmos";
  m.pmos = false;
  m.vth = 0.35;
  m.alpha = 1.3;
  m.kc = 6.0e2;
  m.kv = 0.9;
  m.lambda = 0.05;
  return m;
}

sp::MosfetModel pmos_model() {
  sp::MosfetModel m = nmos_model();
  m.name = "pmos";
  m.pmos = true;
  m.vth = 0.32;
  m.kc = 2.7e2;
  return m;
}

/// Adds a transistor-level inverter between in/out with explicit gate
/// and junction capacitances; returns nothing (devices live in ckt).
void add_inverter(sp::Circuit& ckt, const std::string& name,
                  const std::string& in, const std::string& out,
                  const std::string& vdd_node, double wn, double wp) {
  const auto n_in = ckt.node(in);
  const auto n_out = ckt.node(out);
  const auto n_vdd = ckt.node(vdd_node);
  const auto gnd = sp::kGround;
  const auto nm = nmos_model();
  const auto pm = pmos_model();
  ckt.emplace<sp::Mosfet>(name + ".mn", n_out, n_in, gnd, gnd, nm, wn);
  ckt.emplace<sp::Mosfet>(name + ".mp", n_out, n_in, n_vdd, n_vdd, pm, wp);
  // Lumped device capacitances.
  ckt.emplace<sp::Capacitor>(name + ".cgs", n_in, gnd,
                             nm.cgs_per_w * wn + pm.cgs_per_w * wp);
  ckt.emplace<sp::Capacitor>(name + ".cgd", n_in, n_out,
                             nm.cgd_per_w * wn + pm.cgd_per_w * wp);
  ckt.emplace<sp::Capacitor>(name + ".cdb", n_out, gnd,
                             nm.cdb_per_w * wn + pm.cdb_per_w * wp);
}

void add_vdd(sp::Circuit& ckt, const std::string& node) {
  ckt.emplace<sp::VoltageSource>("vdd_src", ckt.node(node), sp::kGround,
                                 std::make_unique<sp::DcStimulus>(kVdd));
}

}  // namespace

// ---------------------------------------------------------------------------
// Linear circuits against closed forms
// ---------------------------------------------------------------------------

TEST(SpiceDc, ResistorDividerHitsExactRatio) {
  sp::Circuit ckt;
  const auto top = ckt.node("top");
  const auto mid = ckt.node("mid");
  ckt.emplace<sp::VoltageSource>("v1", top, sp::kGround,
                                 std::make_unique<sp::DcStimulus>(1.0));
  ckt.emplace<sp::Resistor>("r1", top, mid, 1000.0);
  ckt.emplace<sp::Resistor>("r2", mid, sp::kGround, 3000.0);
  const auto x = sp::dc_operating_point(ckt);
  EXPECT_NEAR(x[static_cast<size_t>(mid - 1)], 0.75, 1e-9);
}

TEST(SpiceTransient, RcChargeMatchesExponential) {
  // 1kΩ, 1pF, step at t=0 from the DC value 0 to 1V: v(t)=1-exp(-t/τ).
  sp::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.emplace<sp::VoltageSource>(
      "vin", in, sp::kGround,
      std::make_unique<sp::PwlStimulus>(std::vector<sp::PwlStimulus::Point>{
          {0.0, 0.0}, {1e-12, 1.0}}));
  ckt.emplace<sp::Resistor>("r", in, out, 1000.0);
  ckt.emplace<sp::Capacitor>("c", out, sp::kGround, 1e-12);

  sp::TransientSpec spec;
  spec.t_stop = 6e-9;
  spec.dt = 1e-12;
  const auto res = sp::transient(ckt, spec);
  const auto& w = res.waveform("out");
  const double tau = 1e-9;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-(t - 1e-12) / tau);
    EXPECT_NEAR(w.at(t), expected, 4e-3) << "t=" << t;
  }
}

TEST(SpiceTransient, RcDelayAt50PercentIsLn2Tau) {
  sp::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.emplace<sp::VoltageSource>(
      "vin", in, sp::kGround,
      std::make_unique<sp::PwlStimulus>(std::vector<sp::PwlStimulus::Point>{
          {0.0, 0.0}, {1e-12, 1.0}}));
  ckt.emplace<sp::Resistor>("r", in, out, 2000.0);
  ckt.emplace<sp::Capacitor>("c", out, sp::kGround, 0.5e-12);
  sp::TransientSpec spec;
  spec.t_stop = 8e-9;
  spec.dt = 0.5e-12;
  const auto res = sp::transient(ckt, spec);
  const auto cross = res.waveform("out").first_crossing(0.5);
  ASSERT_TRUE(cross.has_value());
  EXPECT_NEAR(*cross, std::log(2.0) * 1e-9, 5e-12);
}

TEST(SpiceTransient, TrapezoidalIsSecondOrder) {
  // Global error of the RC response at fixed t should drop ~4x when dt
  // halves for trapezoidal, ~2x for backward Euler.
  const auto run_error = [&](sp::Integration method, double dt) {
    sp::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.emplace<sp::VoltageSource>(
        "vin", in, sp::kGround,
        std::make_unique<sp::RampStimulus>(0.5e-9, 0.2e-9, 0.0, 1.0, true));
    ckt.emplace<sp::Resistor>("r", in, out, 1000.0);
    ckt.emplace<sp::Capacitor>("c", out, sp::kGround, 1e-12);
    sp::TransientSpec spec;
    spec.t_stop = 3e-9;
    spec.dt = dt;
    spec.method = method;
    const auto res = sp::transient(ckt, spec);
    // Reference: very fine trapezoidal run.
    sp::Circuit ref_ckt;
    const auto rin = ref_ckt.node("in");
    const auto rout = ref_ckt.node("out");
    ref_ckt.emplace<sp::VoltageSource>(
        "vin", rin, sp::kGround,
        std::make_unique<sp::RampStimulus>(0.5e-9, 0.2e-9, 0.0, 1.0, true));
    ref_ckt.emplace<sp::Resistor>("r", rin, rout, 1000.0);
    ref_ckt.emplace<sp::Capacitor>("c", rout, sp::kGround, 1e-12);
    sp::TransientSpec ref_spec = spec;
    ref_spec.dt = 0.125e-12;
    ref_spec.method = sp::Integration::kTrapezoidal;
    const auto ref = sp::transient(ref_ckt, ref_spec);
    double err = 0.0;
    for (double t : {0.8e-9, 1.2e-9, 1.6e-9, 2.4e-9}) {
      err = std::max(err, std::fabs(res.waveform("out").at(t) -
                                    ref.waveform("out").at(t)));
    }
    return err;
  };

  const double trap_8 = run_error(sp::Integration::kTrapezoidal, 8e-12);
  const double trap_4 = run_error(sp::Integration::kTrapezoidal, 4e-12);
  const double be_8 = run_error(sp::Integration::kBackwardEuler, 8e-12);
  const double be_4 = run_error(sp::Integration::kBackwardEuler, 4e-12);
  EXPECT_LT(trap_4, trap_8 / 2.5);  // ~4x expected
  EXPECT_LT(be_4, be_8 / 1.6);      // ~2x expected
  EXPECT_LT(trap_8, be_8);          // trap strictly more accurate here
}

TEST(SpiceTransient, CouplingCapInjectsNoiseOnQuietNet) {
  // Quiet victim held by a resistor to ground; aggressor steps through a
  // coupling cap: the victim must bump and then recover.
  sp::Circuit ckt;
  const auto agg = ckt.node("agg");
  const auto vic = ckt.node("vic");
  ckt.emplace<sp::VoltageSource>(
      "vagg", agg, sp::kGround,
      std::make_unique<sp::RampStimulus>(1e-9, 0.15e-9, 0.0, kVdd, true));
  ckt.emplace<sp::Capacitor>("cm", agg, vic, 50e-15);
  ckt.emplace<sp::Resistor>("rv", vic, sp::kGround, 1000.0);
  ckt.emplace<sp::Capacitor>("cv", vic, sp::kGround, 20e-15);

  sp::TransientSpec spec;
  spec.t_stop = 4e-9;
  spec.dt = 1e-12;
  const auto res = sp::transient(ckt, spec);
  const auto& v = res.waveform("vic");
  EXPECT_GT(v.max_value(), 0.1);            // visible bump
  EXPECT_LT(std::fabs(v.at(4e-9)), 0.02);   // recovers to quiet level
  EXPECT_LT(std::fabs(v.at(0.5e-9)), 1e-3); // quiet before the aggressor
}

TEST(SpiceTransient, ChargeConservationAcrossFloatingCapPair) {
  // Two series caps from a stepped source: the middle node settles at
  // the capacitive divider value.
  sp::Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.emplace<sp::VoltageSource>(
      "vin", in, sp::kGround,
      std::make_unique<sp::RampStimulus>(0.2e-9, 0.1e-9, 0.0, 1.0, true));
  ckt.emplace<sp::Capacitor>("c1", in, mid, 3e-15);
  ckt.emplace<sp::Capacitor>("c2", mid, sp::kGround, 1e-15);
  sp::TransientSpec spec;
  spec.t_stop = 1e-9;
  spec.dt = 0.5e-12;
  const auto res = sp::transient(ckt, spec);
  EXPECT_NEAR(res.waveform("mid").at(1e-9), 0.75, 5e-3);
}

// ---------------------------------------------------------------------------
// MOSFET model properties
// ---------------------------------------------------------------------------

TEST(Mosfet, CutoffBelowThreshold) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  const auto op = m.evaluate(1.2, 0.2, 0.0);
  EXPECT_DOUBLE_EQ(op.id, 0.0);
  EXPECT_DOUBLE_EQ(op.gm, 0.0);
}

// A device remembers the powers of its last overdrive; a hit must return
// exactly what std::pow would, so a bias sequence with repeats (forward
// and reverse conduction, cutoff in between) evaluates bit for bit like
// fresh devices.
TEST(Mosfet, PowMemoIsBitwise) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const double biases[][3] = {
      {1.2, 0.8, 0.0}, {1.2, 0.8, 0.0}, {0.3, 0.8, 0.0},  {0.3, 0.8, 0.0},
      {1.2, 0.2, 0.0}, {1.2, 0.8, 0.0}, {-0.2, 0.9, 0.0}, {0.5, 0.8, 0.1},
      {0.5, 0.8, 0.1}, {1.2, 0.8, 0.0}};
  for (const auto& model : {nmos_model(), pmos_model()}) {
    const double sign = model.pmos ? -1.0 : 1.0;
    const sp::Mosfet reused("m", 1, 2, sp::kGround, sp::kGround, model, 1e-6);
    for (const auto& b : biases) {
      const sp::Mosfet fresh("m", 1, 2, sp::kGround, sp::kGround, model,
                             1e-6);
      const auto got = reused.evaluate(sign * b[0], sign * b[1], sign * b[2]);
      const auto want = fresh.evaluate(sign * b[0], sign * b[1], sign * b[2]);
      EXPECT_EQ(bits(got.id), bits(want.id));
      EXPECT_EQ(bits(got.gm), bits(want.gm));
      EXPECT_EQ(bits(got.gds), bits(want.gds));
    }
  }
}

TEST(Mosfet, ContinuousAcrossSaturationBoundary) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  const double vgs = 1.0;
  const double vdsat = nmos_model().vdsat(vgs - nmos_model().vth);
  const double below = m.evaluate(vdsat - 1e-9, vgs, 0.0).id;
  const double above = m.evaluate(vdsat + 1e-9, vgs, 0.0).id;
  EXPECT_NEAR(below, above, std::fabs(above) * 1e-6);
  // gds is continuous too (linear-region derivative -> lambda term).
  const double g_below = m.evaluate(vdsat - 1e-9, vgs, 0.0).gds;
  const double g_above = m.evaluate(vdsat + 1e-9, vgs, 0.0).gds;
  EXPECT_NEAR(g_below, g_above, std::max(1e-9, g_above) * 0.05 + 1e-7);
}

TEST(Mosfet, CurrentMonotoneInVgs) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 1.2001; vgs += 0.05) {
    const double id = m.evaluate(1.2, vgs, 0.0).id;
    EXPECT_GE(id, prev - 1e-15);
    prev = id;
  }
}

TEST(Mosfet, SymmetricConductionFlipsSign) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  // Same |vds| with roles swapped must give equal magnitude currents
  // when the gate overdrive is referenced to the conducting source.
  const double fwd = m.evaluate(0.1, 1.2, 0.0).id;
  const double rev = m.evaluate(-0.1, 1.2 - 0.1, 0.0).id;
  EXPECT_GT(fwd, 0.0);
  EXPECT_LT(rev, 0.0);
  EXPECT_NEAR(fwd, -rev, fwd * 1e-9);
}

TEST(Mosfet, PmosMirrorsNmos) {
  sp::Circuit ckt;
  auto nm = nmos_model();
  auto pm = nm;
  pm.pmos = true;
  sp::Mosfet n("mn", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nm, 1e-6);
  sp::Mosfet p("mp", ckt.node("d2"), ckt.node("g2"), sp::kGround,
               sp::kGround, pm, 1e-6);
  const auto no = n.evaluate(0.6, 1.0, 0.0);
  const auto po = p.evaluate(-0.6, -1.0, 0.0);
  EXPECT_NEAR(no.id, -po.id, std::fabs(no.id) * 1e-12);
  EXPECT_NEAR(no.gm, po.gm, std::fabs(no.gm) * 1e-12);
  EXPECT_NEAR(no.gds, po.gds, std::fabs(no.gds) * 1e-12);
}

TEST(Mosfet, GmMatchesFiniteDifference) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  for (double vds : {0.05, 0.3, 0.8, 1.2}) {
    for (double vgs : {0.5, 0.8, 1.2}) {
      const double h = 1e-7;
      const double base = m.evaluate(vds, vgs, 0.0).id;
      const double bump = m.evaluate(vds, vgs + h, 0.0).id;
      const double gm_fd = (bump - base) / h;
      const double gm = m.evaluate(vds, vgs, 0.0).gm;
      EXPECT_NEAR(gm, gm_fd, std::max(1e-9, gm_fd) * 1e-3)
          << "vds=" << vds << " vgs=" << vgs;
    }
  }
}

TEST(Mosfet, GdsMatchesFiniteDifference) {
  sp::Circuit ckt;
  sp::Mosfet m("m1", ckt.node("d"), ckt.node("g"), sp::kGround, sp::kGround,
               nmos_model(), 1e-6);
  for (double vds : {0.05, 0.3, 0.8, 1.2}) {
    const double vgs = 1.0;
    const double h = 1e-7;
    const double base = m.evaluate(vds, vgs, 0.0).id;
    const double bump = m.evaluate(vds + h, vgs, 0.0).id;
    const double gds_fd = (bump - base) / h;
    const double gds = m.evaluate(vds, vgs, 0.0).gds;
    EXPECT_NEAR(gds, gds_fd, std::max(1e-9, gds_fd) * 1e-3) << "vds=" << vds;
  }
}

// ---------------------------------------------------------------------------
// CMOS inverter behaviour
// ---------------------------------------------------------------------------

TEST(Inverter, DcTransferEndpoints) {
  sp::Circuit ckt;
  add_vdd(ckt, "vdd");
  add_inverter(ckt, "inv", "in", "out", "vdd", 0.52e-6, 1.04e-6);
  auto& vin = ckt.emplace<sp::VoltageSource>(
      "vin", ckt.find_node("in"), sp::kGround,
      std::make_unique<sp::DcStimulus>(0.0));

  const auto out_idx = static_cast<size_t>(ckt.find_node("out") - 1);
  auto x_low = sp::dc_operating_point(ckt);
  EXPECT_NEAR(x_low[out_idx], kVdd, 1e-3);

  vin.set_stimulus(std::make_unique<sp::DcStimulus>(kVdd));
  auto x_high = sp::dc_operating_point(ckt);
  EXPECT_NEAR(x_high[out_idx], 0.0, 1e-3);
}

TEST(Inverter, TransientInvertsAndDelays) {
  sp::Circuit ckt;
  add_vdd(ckt, "vdd");
  add_inverter(ckt, "inv", "in", "out", "vdd", 0.52e-6, 1.04e-6);
  ckt.emplace<sp::Capacitor>("cl", ckt.find_node("out"), sp::kGround,
                             10e-15);
  ckt.emplace<sp::VoltageSource>(
      "vin", ckt.find_node("in"), sp::kGround,
      std::make_unique<sp::RampStimulus>(1e-9, 150e-12, 0.0, kVdd, true));

  sp::TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 1e-12;
  const auto res = sp::transient(ckt, spec);
  const auto& out = res.waveform("out");
  EXPECT_NEAR(out.at(0.2e-9), kVdd, 0.02);  // starts high
  EXPECT_NEAR(out.at(3e-9), 0.0, 0.02);     // ends low
  const auto d = wv::gate_delay_50(res.waveform("in"), wv::Polarity::kRising,
                                   out, wv::Polarity::kFalling, kVdd);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 0.0);
  EXPECT_LT(*d, 300e-12);
}

TEST(Inverter, DelayGrowsWithLoad) {
  const auto delay_with_load = [&](double cl) {
    sp::Circuit ckt;
    add_vdd(ckt, "vdd");
    add_inverter(ckt, "inv", "in", "out", "vdd", 0.52e-6, 1.04e-6);
    ckt.emplace<sp::Capacitor>("cl", ckt.find_node("out"), sp::kGround, cl);
    ckt.emplace<sp::VoltageSource>(
        "vin", ckt.find_node("in"), sp::kGround,
        std::make_unique<sp::RampStimulus>(1e-9, 150e-12, 0.0, kVdd, true));
    sp::TransientSpec spec;
    spec.t_stop = 6e-9;
    spec.dt = 1e-12;
    const auto res = sp::transient(ckt, spec);
    const auto d =
        wv::gate_delay_50(res.waveform("in"), wv::Polarity::kRising,
                          res.waveform("out"), wv::Polarity::kFalling, kVdd);
    return d.value();
  };
  const double d_small = delay_with_load(5e-15);
  const double d_big = delay_with_load(50e-15);
  EXPECT_GT(d_big, 1.5 * d_small);
}

TEST(Inverter, ChainPropagatesBothPolarities) {
  // Two cascaded inverters: final output follows the input direction.
  sp::Circuit ckt;
  add_vdd(ckt, "vdd");
  add_inverter(ckt, "i1", "in", "n1", "vdd", 0.52e-6, 1.04e-6);
  add_inverter(ckt, "i2", "n1", "n2", "vdd", 2.08e-6, 4.16e-6);
  ckt.emplace<sp::Capacitor>("cl", ckt.find_node("n2"), sp::kGround, 20e-15);
  ckt.emplace<sp::VoltageSource>(
      "vin", ckt.find_node("in"), sp::kGround,
      std::make_unique<sp::RampStimulus>(1e-9, 150e-12, 0.0, kVdd, true));
  sp::TransientSpec spec;
  spec.t_stop = 5e-9;
  spec.dt = 1e-12;
  const auto res = sp::transient(ckt, spec);
  EXPECT_NEAR(res.waveform("n2").at(0.2e-9), 0.0, 0.05);
  EXPECT_NEAR(res.waveform("n2").at(5e-9), kVdd, 0.05);
  const auto d =
      wv::gate_delay_50(res.waveform("in"), wv::Polarity::kRising,
                        res.waveform("n2"), wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 0.0);
}

namespace {

/// Message of the util::Error `fn` throws ("" when it does not throw).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const wu::Error& e) {
    return e.what();
  }
  return "";
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

}  // namespace

TEST(Engine, ThrowsOnBadSpec) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sp::Circuit ckt;
  ckt.emplace<sp::Resistor>("r", ckt.node("a"), sp::kGround, 1.0);
  const auto run = [&](double t_stop, double dt) {
    sp::TransientSpec spec;
    spec.t_stop = t_stop;
    spec.dt = dt;
    return error_of([&] { (void)sp::transient(ckt, spec); });
  };
  EXPECT_TRUE(contains(run(1e-9, 0.0), "dt")) << run(1e-9, 0.0);
  EXPECT_TRUE(contains(run(1e-9, -1e-12), "dt"));
  EXPECT_TRUE(contains(run(1e-9, kNaN), "dt must be positive and finite"));
  EXPECT_TRUE(contains(run(1e-9, kInf), "dt must be positive and finite"));
  EXPECT_TRUE(contains(run(kInf, 1e-12), "t_stop must be finite"));
  EXPECT_TRUE(contains(run(kNaN, 1e-12), "t_stop must be finite"));
  EXPECT_TRUE(contains(run(1e-12, 1e-12), "exceed dt"));
  // A mistyped dt fails by name, before any sample buffer is reserved.
  EXPECT_TRUE(contains(run(1e-9, 1e-30), "steps")) << run(1e-9, 1e-30);
  EXPECT_TRUE(contains(run(1.0, 1e-12), "steps"));
  // An empty circuit has nothing to solve.
  sp::Circuit empty;
  sp::TransientSpec spec;
  EXPECT_TRUE(contains(error_of([&] { (void)sp::transient(empty, spec); }),
                       "no unknowns"));
}

namespace {

/// 1 V until `t_bad`, then `bad` (NaN or infinity) from there on.
class TurnsNonFinite final : public sp::Stimulus {
 public:
  TurnsNonFinite(double t_bad, double bad) : t_bad_(t_bad), bad_(bad) {}
  [[nodiscard]] double at(double t) const noexcept override {
    return t >= t_bad_ ? bad_ : 1.0;
  }
  [[nodiscard]] std::unique_ptr<sp::Stimulus> clone() const override {
    return std::make_unique<TurnsNonFinite>(*this);
  }

 private:
  double t_bad_, bad_;
};

/// Message of a transient of an RC driven by TurnsNonFinite.
std::string rc_error(double t_bad, double bad) {
  sp::Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.emplace<sp::VoltageSource>("vin", in, sp::kGround,
                                 std::make_unique<TurnsNonFinite>(t_bad, bad));
  ckt.emplace<sp::Resistor>("r", in, out, 1000.0);
  ckt.emplace<sp::Capacitor>("c", out, sp::kGround, 1e-12);
  sp::TransientSpec spec;
  spec.t_stop = 2e-10;
  spec.dt = 1e-12;
  return error_of([&] { (void)sp::transient(ckt, spec); });
}

}  // namespace

// A NaN or infinite Newton update is divergence: the run stops at the
// step where it appears, naming the analysis, the time and the unknown,
// instead of "converging" on NaN and failing later in Waveform.
TEST(Engine, NonFiniteNewtonUpdateIsDivergence) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kNaN, kInf, -kInf}) {
    const std::string tran = rc_error(50e-12, bad);
    // Caught on the first iteration at the bad step: an infinite update
    // is not clamped into a finite one.
    EXPECT_TRUE(contains(tran, "transient: non-finite Newton update of "
                               "node 'in' at t = 5e-11 (iteration 1)"))
        << tran;
    const std::string dc = rc_error(0.0, bad);
    EXPECT_TRUE(contains(dc, "DC operating point: non-finite Newton update"))
        << dc;
    EXPECT_TRUE(contains(dc, "at t = 0")) << dc;
  }

  // A solution that overflows to infinity (finite sources, no NaN) is
  // caught too, not clamped into a finite node step.
  sp::Circuit ckt;
  const auto n = ckt.node("n");
  ckt.emplace<sp::CurrentSource>("i", sp::kGround, n,
                                 std::make_unique<sp::DcStimulus>(1e308));
  ckt.emplace<sp::Resistor>("r", n, sp::kGround, 1e3);
  const std::string overflow =
      error_of([&] { (void)sp::dc_operating_point(ckt); });
  EXPECT_TRUE(contains(overflow, "DC operating point: non-finite Newton "
                                 "update of node 'n'"))
      << overflow;
}

// The Newton buffers live for the whole analysis and every sample buffer
// is reserved up front, so a run's heap allocations do not depend on its
// step count.
TEST(Engine, TransientAllocationsDoNotGrowWithSteps) {
  sp::Circuit ckt;
  add_vdd(ckt, "vdd");
  add_inverter(ckt, "inv", "in", "out", "vdd", 0.52e-6, 1.04e-6);
  ckt.emplace<sp::Capacitor>("cl", ckt.find_node("out"), sp::kGround, 4e-15);
  ckt.emplace<sp::VoltageSource>(
      "vin", ckt.find_node("in"), sp::kGround,
      std::make_unique<sp::RampStimulus>(0.3e-9, 100e-12, 0.0, kVdd, true));
  const auto allocations = [&](double t_stop) {
    sp::TransientSpec spec;
    spec.t_stop = t_stop;
    spec.dt = 1e-12;
    const uint64_t before = g_heap_allocations.load();
    size_t steps = 0;
    {
      const auto res = sp::transient(ckt, spec);
      steps = res.steps();
    }
    return std::pair{g_heap_allocations.load() - before, steps};
  };
  (void)allocations(1e-9);  // warm-up
  const auto [short_allocs, short_steps] = allocations(1e-9);
  const auto [long_allocs, long_steps] = allocations(2e-9);
  EXPECT_EQ(long_steps, 2 * short_steps - 1);
  EXPECT_GT(short_allocs, 0u);  // the counter is live
  EXPECT_EQ(long_allocs, short_allocs);
}

TEST(Engine, ProbeSubsetOnlyRecordsRequested) {
  sp::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.emplace<sp::VoltageSource>("v", a, sp::kGround,
                                 std::make_unique<sp::DcStimulus>(1.0));
  ckt.emplace<sp::Resistor>("r", a, ckt.node("b"), 1.0);
  ckt.emplace<sp::Resistor>("r2", ckt.node("b"), sp::kGround, 1.0);
  sp::TransientSpec spec;
  spec.t_stop = 1e-10;
  spec.dt = 1e-12;
  spec.probes = {"b"};
  const auto res = sp::transient(ckt, spec);
  EXPECT_TRUE(res.has("b"));
  EXPECT_FALSE(res.has("a"));
  EXPECT_THROW((void)res.waveform("a"), wu::Error);
}

// ---------------------------------------------------------------------------
// The linear-circuit factorization memo
// ---------------------------------------------------------------------------

namespace {

/// Stamps nothing and reports itself nonlinear: added to a linear
/// circuit, it turns the engine's factorization memo off and changes
/// nothing else.
class InertNonlinear final : public sp::Device {
 public:
  InertNonlinear() : sp::Device("inert") {}
  void stamp(sp::Stamper&, const sp::StampContext&) const override {}
  [[nodiscard]] bool nonlinear() const noexcept override { return true; }
};

/// A two-line coupled bus under a ramp aggressor: the bump-shape
/// testbench, with capacitors in most rows of the matrix.
sp::Circuit coupled_bus_circuit(bool inert) {
  sp::Circuit ckt;
  waveletic::interconnect::CoupledBusSpec bus;
  bus.lines = {{"a", 4, 51.0, 28.8e-15}, {"v", 4, 51.0, 28.8e-15}};
  bus.couplings = {{0, 1, 60e-15}};
  const auto nodes = waveletic::interconnect::build_coupled_bus(ckt, bus);
  const auto drv = ckt.node("drv");
  ckt.emplace<sp::VoltageSource>(
      "vsrc", drv, sp::kGround,
      std::make_unique<sp::RampStimulus>(45e-12, 30e-12, 0.0, 1.0, true));
  ckt.emplace<sp::Resistor>("rdrv", drv, ckt.find_node(nodes.near_end(0)),
                            120.0);
  ckt.emplace<sp::Resistor>("rhold", ckt.find_node(nodes.near_end(1)),
                            sp::kGround, 120.0);
  ckt.emplace<sp::Capacitor>("cl", ckt.find_node(nodes.far_end(1)),
                             sp::kGround, 2e-15);
  if (inert) ckt.emplace<InertNonlinear>();
  return ckt;
}

/// A resistor ladder driven by a current pulse that returns to zero.
/// With `far_cap`, one capacitor sits on the last node, so a change of
/// step size changes only the matrix's last row; without it, the
/// right-hand side is all zero again after the pulse.
sp::Circuit norton_ladder(bool far_cap, bool inert) {
  sp::Circuit ckt;
  const sp::NodeId n[] = {ckt.node("n0"), ckt.node("n1"), ckt.node("n2"),
                          ckt.node("n3")};
  ckt.emplace<sp::CurrentSource>(
      "isrc", sp::kGround, n[0],
      std::make_unique<sp::PulseStimulus>(0.0, 1e-3, 20e-12, 10e-12, 10e-12,
                                          30e-12, 0.0));
  ckt.emplace<sp::Resistor>("rsrc", n[0], sp::kGround, 500.0);
  ckt.emplace<sp::Resistor>("r1", n[0], n[1], 200.0);
  ckt.emplace<sp::Resistor>("r2", n[1], n[2], 200.0);
  ckt.emplace<sp::Resistor>("r3", n[2], n[3], 200.0);
  if (far_cap) ckt.emplace<sp::Capacitor>("c", n[3], sp::kGround, 5e-15);
  if (inert) ckt.emplace<InertNonlinear>();
  return ckt;
}

/// Asserts that every probe sample of `a` equals `b`'s bit for bit.
void expect_same_bits(const sp::TransientResult& a,
                      const sp::TransientResult& b) {
  ASSERT_EQ(a.probe_names(), b.probe_names());
  ASSERT_EQ(a.steps(), b.steps());
  for (const auto& name : a.probe_names()) {
    const auto& wa = a.waveform(name);
    const auto& wb = b.waveform(name);
    for (size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(wa.time(i)),
                std::bit_cast<uint64_t>(wb.time(i)))
          << name << " sample " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(wa.value(i)),
                std::bit_cast<uint64_t>(wb.value(i)))
          << name << " sample " << i;
    }
  }
}

}  // namespace

// A linear circuit reuses its last factorization (and its last solution)
// when the assembled system repeats bit for bit.  Every probe sample must
// equal the twin circuit whose inert nonlinear device turns that reuse
// off.  t_stop is not a multiple of dt, so the last step is shorter.
TEST(Engine, LinearFactorReuseIsBitwise) {
  using Build = sp::Circuit (*)(bool);
  const std::pair<const char*, Build> circuits[] = {
      {"coupled bus", coupled_bus_circuit},
      {"ladder, far-end cap",
       [](bool inert) { return norton_ladder(true, inert); }},
      {"ladder, resistive",
       [](bool inert) { return norton_ladder(false, inert); }},
  };
  for (const auto& [label, build] : circuits) {
    for (const auto method :
         {sp::Integration::kBackwardEuler, sp::Integration::kTrapezoidal}) {
      SCOPED_TRACE(std::string(label) + ", " + sp::to_string(method));
      sp::TransientSpec spec;
      spec.t_stop = 180.5e-12;
      spec.dt = 0.7e-12;
      spec.method = method;
      sp::Circuit linear = build(false);
      sp::Circuit reference = build(true);
      const auto got = sp::transient(linear, spec);
      const auto want = sp::transient(reference, spec);
      EXPECT_GT(got.steps(), 250u);
      expect_same_bits(got, want);
      // A second run of the same circuit starts from a fresh memo.
      expect_same_bits(sp::transient(linear, spec), want);
    }
  }
}

namespace {

/// A 1 V source from `node` to ground that opens (stamps nothing, so its
/// branch row and column are zero) from `t_open` on: a linear device
/// that makes the matrix singular mid-transient.
class OpensAt final : public sp::Device {
 public:
  OpensAt(sp::NodeId node, double t_open)
      : sp::Device("opens"), node_(node), t_open_(t_open) {}
  [[nodiscard]] int branch_count() const noexcept override { return 1; }
  void stamp(sp::Stamper& st, const sp::StampContext& ctx) const override {
    if (ctx.time < t_open_) {
      st.branch_voltage(branch_index(), node_, sp::kGround, 1.0);
    }
  }

 private:
  sp::NodeId node_;
  double t_open_;
};

sp::Circuit opening_rc() {
  sp::Circuit ckt;
  const auto s = ckt.node("s");
  const auto out = ckt.node("out");
  ckt.emplace<OpensAt>(s, 100e-12);
  ckt.emplace<sp::Resistor>("r", s, out, 1000.0);
  ckt.emplace<sp::Capacitor>("c", out, sp::kGround, 1e-13);
  return ckt;
}

}  // namespace

// A singular step throws the LU error naming the column (the source's
// branch, unknown 2) after many memo hits, and the same Circuit runs
// cleanly afterwards, bitwise equal to a fresh copy.
TEST(Engine, SingularLinearCircuitThrowsAndRerunSucceeds) {
  sp::Circuit ckt = opening_rc();
  sp::TransientSpec spec;
  spec.dt = 1e-12;
  spec.t_stop = 200e-12;
  const std::string err = error_of([&] { (void)sp::transient(ckt, spec); });
  EXPECT_TRUE(contains(err, "singular matrix")) << err;
  EXPECT_TRUE(contains(err, "at column 2")) << err;

  spec.t_stop = 90e-12;
  const auto rerun = sp::transient(ckt, spec);
  EXPECT_EQ(rerun.steps(), 91u);
  sp::Circuit fresh = opening_rc();
  expect_same_bits(rerun, sp::transient(fresh, spec));
}

namespace {

/// A 1 mS conductance between `a` and `b` that closes (starts stamping,
/// so the matrix gains two off-diagonal entries) at `t_close`: a linear
/// device that grows the matrix structure mid-transient.
class ClosesAt final : public sp::Device {
 public:
  ClosesAt(sp::NodeId a, sp::NodeId b, double t_close)
      : sp::Device("closes"), a_(a), b_(b), t_close_(t_close) {}
  void stamp(sp::Stamper& st, const sp::StampContext& ctx) const override {
    if (ctx.time >= t_close_) st.conductance(a_, b_, 1e-3);
  }

 private:
  sp::NodeId a_, b_;
  double t_close_;
};

/// A ramp-driven RC whose node `mid` joins a second RC node `side` at
/// 60 ps.
sp::Circuit closing_rc(bool inert) {
  sp::Circuit ckt;
  const auto s = ckt.node("s");
  const auto mid = ckt.node("mid");
  const auto side = ckt.node("side");
  ckt.emplace<sp::VoltageSource>(
      "vs", s, sp::kGround,
      std::make_unique<sp::RampStimulus>(20e-12, 40e-12, 0.0, 1.0, true));
  ckt.emplace<sp::Resistor>("r1", s, mid, 1000.0);
  ckt.emplace<sp::Capacitor>("c1", mid, sp::kGround, 1e-13);
  ckt.emplace<ClosesAt>(mid, side, 60e-12);
  ckt.emplace<sp::Capacitor>("c2", side, sp::kGround, 2e-13);
  ckt.emplace<sp::Resistor>("r2", side, sp::kGround, 5000.0);
  if (inert) ckt.emplace<InertNonlinear>();
  return ckt;
}

/// FNV-1a over the bits of every time and value of every probe.
uint64_t sample_hash(const sp::TransientResult& res) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& name : res.probe_names()) {
    const auto& w = res.waveform(name);
    for (size_t i = 0; i < w.size(); ++i) {
      for (const double v : {w.time(i), w.value(i)}) {
        h ^= std::bit_cast<uint64_t>(v);
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

}  // namespace

// A matrix whose structure grows mid-transient (the DC system lacks the
// capacitors, the conductance joins at 60 ps) keeps its output bits.
// The pinned values were generated before the engine factored along an
// LU pattern, with the dense factorization and solve; the linear path
// (factorization memo) and the nonlinear one must both reproduce them.
// The pattern is sized with the analysis, so the rebuild at 60 ps
// allocates nothing: a run that passes it allocates as often as one
// that stops before it.
TEST(Engine, GrowingMatrixStructureKeepsPinnedBits) {
  for (const bool inert : {false, true}) {
    SCOPED_TRACE(inert ? "nonlinear path" : "linear path");
    sp::Circuit ckt = closing_rc(inert);
    sp::TransientSpec spec;
    spec.t_stop = 150e-12;
    spec.dt = 1e-12;
    const auto res = sp::transient(ckt, spec);
    ASSERT_EQ(res.steps(), 151u);
    EXPECT_EQ(sample_hash(res), 0x894c46460312d649ull);
    const auto& side = res.waveform("side");
    const auto& mid = res.waveform("mid");
    EXPECT_EQ(side.value(59), 0.0);
    EXPECT_EQ(side.value(61), 0x1.3daad4bce7899p-9);
    EXPECT_EQ(side.value(80), 0x1.18e48cd73d81ap-5);
    EXPECT_EQ(side.value(150), 0x1.3bbb0380a25d4p-3);
    EXPECT_EQ(mid.value(59), 0x1.460f102fa5766p-2);
    EXPECT_EQ(mid.value(61), 0x1.4ef3d78d5cc64p-2);
    EXPECT_EQ(mid.value(150), 0x1.065aedd6a53d4p-1);

    const auto allocations = [&](double t_stop) {
      spec.t_stop = t_stop;
      const uint64_t before = g_heap_allocations.load();
      { (void)sp::transient(ckt, spec); }
      return g_heap_allocations.load() - before;
    };
    const uint64_t before_close = allocations(50e-12);
    EXPECT_GT(before_close, 0u);  // the counter is live
    EXPECT_EQ(allocations(150e-12), before_close);
  }
}

// The receiver replica's source walks a cursor forward over its
// waveform; every query must still equal Waveform::at bit for bit,
// whichever way the queries move.
TEST(WaveformStimulus, CursorMatchesWaveformAt) {
  std::vector<double> t;
  std::vector<double> v;
  for (int k = 0; k < 40; ++k) {
    t.push_back(1e-12 * (k * k + 3 * k));  // non-uniform grid
    v.push_back(std::sin(0.37 * k));
  }
  const wv::Waveform w(t, v);
  const sp::WaveformStimulus stim(w);
  std::vector<double> queries;
  for (double q = -50e-12; q < 1700e-12; q += 0.37e-12) {
    queries.push_back(q);
    if (queries.size() % 7 == 0) queries.push_back(q);  // repeated
  }
  queries.insert(queries.end(), t.begin(), t.end());  // exact sample times
  for (const double q : {900e-12, 12e-12, -1e-9, 1e-6, 5e-12, 4e-12,
                         t[20], t[19], t[19], 1.5e-9, 0.0}) {
    queries.push_back(q);  // backward jumps and out-of-range queries
  }
  for (double q = 0.0; q < 200e-12; q += 1.1e-12) queries.push_back(q);
  for (const double q : queries) {
    ASSERT_EQ(std::bit_cast<uint64_t>(stim.at(q)),
              std::bit_cast<uint64_t>(w.at(q)))
        << "t = " << q;
  }
  // A clone carries the cursor along and stays exact.
  const auto copy = stim.clone();
  EXPECT_EQ(std::bit_cast<uint64_t>(copy->at(3e-12)),
            std::bit_cast<uint64_t>(w.at(3e-12)));
}

TEST(Circuit, NodeRegistryAliasesGround) {
  sp::Circuit ckt;
  EXPECT_EQ(ckt.node("0"), sp::kGround);
  EXPECT_EQ(ckt.node("gnd"), sp::kGround);
  EXPECT_EQ(ckt.node("GND"), sp::kGround);
  const auto a = ckt.node("N1");
  EXPECT_EQ(ckt.node("n1"), a);  // case-insensitive
  EXPECT_THROW((void)ckt.find_node("missing"), wu::Error);
  EXPECT_TRUE(ckt.has_node("n1"));
}

TEST(Circuit, DeviceLookupAndDescribe) {
  sp::Circuit ckt;
  ckt.emplace<sp::Resistor>("r1", ckt.node("a"), sp::kGround, 5.0);
  EXPECT_NE(ckt.find_device("R1"), nullptr);
  EXPECT_EQ(ckt.find_device("nope"), nullptr);
  EXPECT_NE(ckt.describe().find("r1"), std::string::npos);
}

TEST(Devices, RejectNonPhysicalValues) {
  sp::Circuit ckt;
  EXPECT_THROW(ckt.emplace<sp::Resistor>("r", ckt.node("a"), sp::kGround,
                                         -5.0),
               wu::Error);
  EXPECT_THROW(ckt.emplace<sp::Capacitor>("c", ckt.node("a"), sp::kGround,
                                          0.0),
               wu::Error);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto a = ckt.node("a");
  for (const double bad : {kInf, kNaN}) {
    EXPECT_TRUE(contains(error_of([&] {
                           ckt.emplace<sp::Resistor>("r", a, sp::kGround, bad);
                         }),
                         "resistance must be positive and finite"));
    EXPECT_TRUE(contains(error_of([&] {
                           ckt.emplace<sp::Capacitor>("c", a, sp::kGround, bad);
                         }),
                         "capacitance must be positive and finite"));
    EXPECT_TRUE(contains(error_of([&] {
                           ckt.emplace<sp::Mosfet>("m", a, a, sp::kGround,
                                                   sp::kGround, nmos_model(),
                                                   bad);
                         }),
                         "width must be positive and finite"));
  }

  // Stimuli: every parameter must be finite; the message names it.
  const auto stim_error = [](auto make) { return error_of(make); };
  for (const double bad : {kInf, -kInf, kNaN}) {
    EXPECT_TRUE(contains(
        stim_error([&] { sp::DcStimulus s(bad); }), "DC stimulus: value"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::RampStimulus s(bad, 1e-10, 0.0, 1.0, true);
                         }),
                         "ramp stimulus: t_mid must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::RampStimulus s(1e-9, 1e-10, 0.0, bad, true);
                         }),
                         "v_hi must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::RampStimulus s(1e-9, 1e-10, bad, 1.0, false);
                         }),
                         "v_lo must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PulseStimulus s(bad, 1.0, 0.0, 1e-11, 1e-11,
                                               1e-10, 0.0);
                         }),
                         "PULSE: v0 must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PulseStimulus s(0.0, bad, 0.0, 1e-11, 1e-11,
                                               1e-10, 0.0);
                         }),
                         "PULSE: v1 must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PulseStimulus s(0.0, 1.0, bad, 1e-11, 1e-11,
                                               1e-10, 0.0);
                         }),
                         "PULSE: delay must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PulseStimulus s(0.0, 1.0, 0.0, 1e-11, 1e-11,
                                               1e-10, bad);
                         }),
                         "PULSE: period must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PwlStimulus s({{0.0, 0.0}, {1e-10, bad}});
                         }),
                         "PWL stimulus: value must be finite"));
    EXPECT_TRUE(contains(stim_error([&] {
                           sp::PwlStimulus s({{bad, 0.0}});
                         }),
                         "PWL stimulus: time must be finite"));
  }
}

// Parameterized: inverter delay is finite and positive across drive
// strengths (sanity sweep ahead of library characterization).
class DriveSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DriveSweepTest, InverterDelayPositiveAndBounded) {
  const double scale = GetParam();
  sp::Circuit ckt;
  add_vdd(ckt, "vdd");
  add_inverter(ckt, "inv", "in", "out", "vdd", 0.52e-6 * scale,
               1.04e-6 * scale);
  ckt.emplace<sp::Capacitor>("cl", ckt.find_node("out"), sp::kGround,
                             4e-15 * scale + 4e-15);
  ckt.emplace<sp::VoltageSource>(
      "vin", ckt.find_node("in"), sp::kGround,
      std::make_unique<sp::RampStimulus>(0.8e-9, 150e-12, 0.0, kVdd, true));
  sp::TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 1e-12;
  const auto res = sp::transient(ckt, spec);
  const auto d =
      wv::gate_delay_50(res.waveform("in"), wv::Polarity::kRising,
                        res.waveform("out"), wv::Polarity::kFalling, kVdd);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(*d, 0.0);
  EXPECT_LT(*d, 500e-12);
}

INSTANTIATE_TEST_SUITE_P(Drives, DriveSweepTest,
                         ::testing::Values(1.0, 4.0, 16.0, 64.0));
