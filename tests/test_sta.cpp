// Mini-STA engine tests: arrival/slew propagation against hand-chained
// NLDM lookups, unateness, slack/required times, critical paths, cycle
// detection, parasitics, and the crosstalk (noisy-net) flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "core/method.hpp"
#include "core/point_based.hpp"
#include "netlist/generators.hpp"
#include "netlist/verilog.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"
#include "wave/ramp.hpp"

namespace cl = waveletic::charlib;
namespace co = waveletic::core;
namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wv = waveletic::wave;
namespace wu = waveletic::util;
namespace tu = waveletic::statest;

namespace {

const lb::Library& lib() {
  static const lb::Library library = cl::build_vcl013_library_fast();
  return library;
}

nl::Netlist inv_chain3() {
  return nl::parse_verilog(R"(
module chain (a, y);
  input a;
  output y;
  wire n1, n2;
  INVX1 u1 (.A(a), .Y(n1));
  INVX1 u2 (.A(n1), .Y(n2));
  INVX4 u3 (.A(n2), .Y(y));
endmodule
)");
}

}  // namespace

TEST(Sta, ChainArrivalMatchesHandChainedLookups) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  const double t0 = 0.1e-9;
  const double slew0 = 100e-12;
  sta.set_input("a", t0, slew0);
  const double load_y = 8e-15;
  sta.set_output_load("y", load_y);
  sta.run();

  // Hand-chain the same NLDM lookups (input rise -> y falls after 3
  // inversions... rise->fall->rise->fall).
  const auto& inv1 = lib().cell("INVX1");
  const auto& inv4 = lib().cell("INVX4");
  const double cap1 = inv1.find_pin("A")->capacitance;
  const double cap4 = inv4.find_pin("A")->capacitance;

  const auto& arc1 = inv1.output_pin().arcs[0];
  const auto& arc4 = inv4.output_pin().arcs[0];

  // u1 drives u2 (cap1); rise input -> fall output.
  const auto s1 = arc1.fall(slew0, cap1);
  // u2 drives u3 (cap4); fall input -> rise output.
  const auto s2 = arc1.rise(s1.out_slew, cap4);
  // u3 drives y (load_y); rise input -> fall output.
  const auto s3 = arc4.fall(s2.out_slew, load_y);
  const double expected = t0 + s1.delay + s2.delay + s3.delay;

  const auto& yt = sta.timing("y", st::RiseFall::kFall);
  ASSERT_TRUE(yt.valid);
  EXPECT_NEAR(yt.arrival, expected, 1e-15);
  EXPECT_NEAR(yt.slew, s3.out_slew, 1e-15);
}

TEST(Sta, PolarityAlternatesThroughInverters) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  sta.set_input("a", st::RiseFall::kRise, 0.0, 100e-12);
  sta.set_output_load("y", 5e-15);
  sta.run();
  // Only the rise input was constrained: n1 falls, n2 rises, y falls.
  EXPECT_TRUE(sta.timing("u1/Y", st::RiseFall::kFall).valid);
  EXPECT_FALSE(sta.timing("u1/Y", st::RiseFall::kRise).valid);
  EXPECT_TRUE(sta.timing("u2/Y", st::RiseFall::kRise).valid);
  EXPECT_TRUE(sta.timing("y", st::RiseFall::kFall).valid);
  EXPECT_FALSE(sta.timing("y", st::RiseFall::kRise).valid);
}

TEST(Sta, WorstPathPicksLongerBranch) {
  const auto net = nl::parse_verilog(R"(
module two_paths (a, b, y);
  input a, b;
  output y;
  wire n1, n2, n3;
  INVX1 u1 (.A(a), .Y(n1));
  INVX1 u2 (.A(n1), .Y(n2));
  INVX1 u3 (.A(n2), .Y(n3));
  NAND2X1 u4 (.A(n3), .B(b), .Y(y));
endmodule
)");
  st::StaEngine sta(net, lib());
  sta.set_input("a", 0.0, 100e-12);
  sta.set_input("b", 0.0, 100e-12);
  sta.set_output_load("y", 5e-15);
  sta.run();
  const auto path = sta.worst_path();
  ASSERT_GE(path.size(), 4u);
  EXPECT_EQ(path.front().pin, "a");  // deep branch dominates
  EXPECT_EQ(path.back().pin, "y");
  // Arrivals increase monotonically along the path.
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].arrival, path[i - 1].arrival - 1e-15);
  }
}

TEST(Sta, SlackAndRequiredTimes) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  sta.set_input("a", 0.0, 100e-12);
  sta.set_output_load("y", 5e-15);
  sta.set_required("y", 1e-9);
  sta.run();
  const auto& yt = sta.timing("y", st::RiseFall::kFall);
  EXPECT_NEAR(sta.worst_slack(), 1e-9 - yt.arrival, 1e-15);
  // Required time propagates upstream along the critical chain.
  const auto& n1 = sta.timing("u1/Y", st::RiseFall::kFall);
  EXPECT_TRUE(std::isfinite(n1.required));
  EXPECT_NEAR(n1.slack(), sta.worst_slack(), 1e-13);
}

TEST(Sta, NetParasiticsDelayAndLoad) {
  const auto net = inv_chain3();
  st::StaEngine base(net, lib());
  base.set_input("a", 0.0, 100e-12);
  base.set_output_load("y", 5e-15);
  base.run();
  const double t_base = base.timing("y", st::RiseFall::kFall).arrival;

  st::StaEngine loaded(net, lib());
  loaded.set_input("a", 0.0, 100e-12);
  loaded.set_output_load("y", 5e-15);
  loaded.set_net_parasitics("n1", 20e-15, 30e-12);
  loaded.run();
  const double t_loaded = loaded.timing("y", st::RiseFall::kFall).arrival;
  // Extra cap slows u1, extra wire delay adds directly: strictly later,
  // by at least the wire delay.
  EXPECT_GT(t_loaded, t_base + 30e-12);
}

TEST(Sta, CombinationalCycleRejected) {
  nl::Netlist net;
  net.add_instance({"u1", "INVX1", {{"A", "n2"}, {"Y", "n1"}}});
  net.add_instance({"u2", "INVX1", {{"A", "n1"}, {"Y", "n2"}}});
  EXPECT_THROW((void)st::StaEngine(net, lib()), wu::Error);
}

TEST(Sta, BadConstraintsThrow) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  EXPECT_THROW(sta.set_input("y", 0.0, 1e-10), wu::Error);
  EXPECT_THROW(sta.set_output_load("a", 1e-15), wu::Error);
  EXPECT_THROW(sta.set_input("a", 0.0, -1.0), wu::Error);
  EXPECT_THROW(sta.set_net_parasitics("nope", 0.0, 0.0), wu::Error);
  EXPECT_THROW((void)sta.timing("y", st::RiseFall::kRise), wu::Error);
}

TEST(Sta, UnknownCellRejected) {
  nl::Netlist net;
  net.add_instance({"u1", "MYSTERY9", {{"A", "a"}, {"Y", "y"}}});
  EXPECT_THROW((void)st::StaEngine(net, lib()), wu::Error);
}

TEST(Sta, ReportMentionsPortsAndPath) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  sta.set_input("a", 0.0, 100e-12);
  sta.set_output_load("y", 5e-15);
  sta.set_required("y", 1e-9);
  sta.run();
  const auto text = sta.report();
  EXPECT_NE(text.find("y (fall)"), std::string::npos);
  EXPECT_NE(text.find("slack"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Crosstalk flow: the paper's integration story
// ---------------------------------------------------------------------------

namespace {

/// Runs the chain with a noisy annotation on n1 built from the clean
/// ramp at n1 plus a dip of the given depth; returns the y arrival.
double y_arrival_with_noise(double dip_amp,
                            std::unique_ptr<co::EquivalentWaveformMethod> m) {
  const auto net = inv_chain3();
  st::StaEngine clean(net, lib());
  clean.set_input("a", 0.0, 100e-12);
  clean.set_output_load("y", 5e-15);
  clean.run();
  const auto& n1 = clean.timing("u2/A", st::RiseFall::kFall);

  // Falling victim waveform at n1: clean ramp + upward bump centred on
  // the 50% crossing (the noise pushes the falling signal back up in
  // mid-transition, as an opposite-switching aggressor would), which
  // delays the latest 50% crossing.
  const double vdd = lib().nom_voltage;
  const auto ramp = wv::Ramp::from_arrival_slew(n1.arrival, n1.slew, vdd);
  auto falling = ramp.denormalized(wv::Polarity::kFalling, 512);
  std::vector<double> t(falling.times().begin(), falling.times().end());
  std::vector<double> v(falling.values().begin(), falling.values().end());
  const double center = n1.arrival;
  for (size_t i = 0; i < t.size(); ++i) {
    v[i] += dip_amp *
            std::exp(-std::pow((t[i] - center) / (0.5 * n1.slew), 2.0));
  }

  st::StaEngine noisy(net, lib());
  noisy.set_input("a", 0.0, 100e-12);
  noisy.set_output_load("y", 5e-15);
  if (m) noisy.set_noise_method(std::move(m));
  noisy.annotate_noisy_net("n1", wv::Waveform(std::move(t), std::move(v)),
                           wv::Polarity::kFalling);
  noisy.run();
  return noisy.timing("y", st::RiseFall::kFall).arrival;
}

}  // namespace

TEST(StaNoise, ZeroNoiseMatchesCleanRun) {
  const auto net = inv_chain3();
  st::StaEngine clean(net, lib());
  clean.set_input("a", 0.0, 100e-12);
  clean.set_output_load("y", 5e-15);
  clean.run();
  const double t_clean = clean.timing("y", st::RiseFall::kFall).arrival;
  const double t_annotated = y_arrival_with_noise(0.0, nullptr);
  EXPECT_NEAR(t_annotated, t_clean, 3e-12);  // Γeff of a clean ramp ≈ ramp
}

TEST(StaNoise, CrosstalkBumpDelaysArrival) {
  const double t_clean = y_arrival_with_noise(0.0, nullptr);
  const double t_noisy = y_arrival_with_noise(0.55, nullptr);  // deep bump
  EXPECT_GT(t_noisy, t_clean + 5e-12);
}

TEST(StaNoise, MethodIsPluggable) {
  // Deep bump that re-crosses the mid level: P1 pins the arrival at the
  // latest 50% crossing while SGDP weighs the shape — the two estimates
  // must differ measurably.
  const double t_sgdp = y_arrival_with_noise(0.85, nullptr);  // default SGDP
  const double t_p1 =
      y_arrival_with_noise(0.85, std::make_unique<co::P1Method>());
  EXPECT_GT(std::fabs(t_p1 - t_sgdp), 0.5e-12);
}

TEST(StaNoise, OppositePolarityTransitionUnaffected) {
  // Annotation is for the falling victim; the rising transition through
  // the same net must stay identical to the clean run.
  const auto net = inv_chain3();
  st::StaEngine clean(net, lib());
  clean.set_input("a", 0.0, 100e-12);
  clean.set_output_load("y", 5e-15);
  clean.run();
  st::StaEngine noisy(net, lib());
  noisy.set_input("a", 0.0, 100e-12);
  noisy.set_output_load("y", 5e-15);
  const auto& n1 = clean.timing("u2/A", st::RiseFall::kFall);
  const auto ramp =
      wv::Ramp::from_arrival_slew(n1.arrival, n1.slew, lib().nom_voltage);
  noisy.annotate_noisy_net("n1", ramp.denormalized(wv::Polarity::kFalling),
                           wv::Polarity::kFalling);
  noisy.run();
  // Fall uses the annotation; rise would have used the plain ramp — and
  // since the input was constrained on both transitions, u2/A rise is
  // driven by the input fall and must match the clean run exactly.
  EXPECT_NEAR(noisy.timing("u2/A", st::RiseFall::kRise).arrival,
              clean.timing("u2/A", st::RiseFall::kRise).arrival, 1e-15);
}

TEST(Sta, ConstructionScalesLinearly) {
  // Netlist generation plus graph construction at N = 256 and 4N gates,
  // best of 3 runs each.  Linear code takes about 4x as long at 4N; one
  // scan over every instance pin per net (quadratic) takes over 10x.
  // The clock is this process's CPU time and the runs interleave, so
  // other load on the host does not skew one size; both sizes stay
  // small enough to run in cache, where linear code scales cleanly.
  (void)lib();  // characterize outside the timed region
  const auto cpu_seconds = [](int layers) {
    const std::clock_t t0 = std::clock();
    const auto netlist = nl::make_random_dag(3, 8, layers, 64);
    const st::StaEngine sta(netlist, lib());
    return static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
  };
  double t_n = std::numeric_limits<double>::infinity();
  double t_4n = t_n;
  for (int run = 0; run < 3; ++run) {
    t_n = std::min(t_n, cpu_seconds(4));
    t_4n = std::min(t_4n, cpu_seconds(16));
  }
  EXPECT_LE(t_4n / t_n, 6.0) << "t(N) = " << t_n * 1e3
                             << " ms, t(4N) = " << t_4n * 1e3 << " ms";
}

TEST(Sta, EndpointOnlySweepPointsScaleWithTheirCone) {
  // Endpoint-only sweep points with equal cones on banks of N and 4N
  // parallel chains: CPU time per point, best of 3 runs each, sizes
  // interleaved (see ConstructionScalesLinearly).  Each point annotates
  // its own chain, so it builds its own plan, and P1 keeps its one Γeff
  // fit cheap.  A point whose cost follows its cone takes about as long
  // at both sizes; one that clears a V-sized marker or walks every
  // endpoint takes about 4x as long at 4N.  The baselines are given, so
  // the per-call full-graph pass stays out of the timed sweep.
  (void)tu::vcl013();  // characterize outside the timed region
  constexpr int kPoints = 256;
  const auto p1 = co::make_method("P1");
  struct Bank {
    tu::EngineFixture f;
    std::vector<st::TimingState> baselines;
    st::SweepSpec spec;
  };
  const auto make_bank = [&](int chains) {
    auto b = std::make_unique<Bank>();
    b->f = tu::parallel_chains(chains, 6, chains);
    const st::StaEngine& sta = *b->f.sta;
    b->baselines.push_back(tu::serial_point(sta, st::Corner{}, nullptr));
    b->spec.threads = 1;
    b->spec.endpoint_only = true;
    b->spec.method = p1.get();
    b->spec.corner_baselines = &b->baselines;
    for (int i = 0; i < kPoints; ++i) {
      const std::string id = std::to_string(i);
      const auto& t = sta.timing_in(b->baselines[0], "g" + id + "_2/A",
                                    st::RiseFall::kFall);
      b->spec.scenarios.push_back(st::make_aggressor_scenario(
          "c" + id + "_1", t.arrival, t.slew, tu::vcl013().nom_voltage,
          wv::Polarity::kFalling, 0.0, 0.3));
    }
    return b;
  };
  const auto small = make_bank(1024);
  const auto large = make_bank(4096);
  const size_t cone_n = small->f.sta->delta_plan(small->spec.scenarios[0])
                            .forward.size();
  const size_t cone_4n = large->f.sta->delta_plan(large->spec.scenarios[0])
                             .forward.size();
  EXPECT_LE(cone_4n, 2 * cone_n);
  EXPECT_LE(cone_n, 2 * cone_4n);

  const auto cpu_per_point = [](const Bank& b) {
    const std::clock_t t0 = std::clock();
    const auto r = b.f.sta->sweep(b.spec);
    return static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC /
           static_cast<double>(r.size());
  };
  double t_n = std::numeric_limits<double>::infinity();
  double t_4n = t_n;
  for (int run = 0; run < 3; ++run) {
    t_n = std::min(t_n, cpu_per_point(*small));
    t_4n = std::min(t_4n, cpu_per_point(*large));
  }
  EXPECT_LE(t_4n / t_n, 2.5) << "per point: t(N) = " << t_n * 1e6
                             << " us, t(4N) = " << t_4n * 1e6 << " us";
}

TEST(Sta, NetLoadsStayCurrentWithoutPrepare) {
  // The setters that change a load refresh it, so evaluate() needs no
  // prepare(): an engine edited through set_output_load(),
  // set_net_parasitics() and copy_config_from() — or forked and then
  // edited — evaluates bitwise like a fresh engine configured the same
  // way that ran prepare().
  const auto netlist = nl::make_random_dag(7, 6, 5, 7);
  std::vector<std::string> outputs;
  for (const auto& port : netlist.ports()) {
    if (port.direction == nl::PortDirection::kOutput) {
      outputs.push_back(port.name);
    }
  }
  ASSERT_GE(outputs.size(), 2u);
  using Config = std::function<void(st::StaEngine&)>;
  const Config constrain = [&](st::StaEngine& s) {
    tu::constrain_ports(s, netlist);
  };
  const Config edit = [&](st::StaEngine& s) {
    s.set_output_load(outputs[0], 9e-15);
    s.set_net_parasitics(netlist.nets()[3], 2e-15, 4e-12);
    s.set_net_parasitics(outputs[1], 3e-15, 1e-12);  // a port's net
  };
  const Config more = [&](st::StaEngine& s) {
    s.set_output_load(outputs[1], 2e-15);
    s.set_net_parasitics(netlist.nets()[5], 1e-15, 2e-12);
  };
  const auto reference = [](const nl::Netlist& n,
                            std::initializer_list<const Config*> configs) {
    st::StaEngine fresh(n, tu::vcl013());
    for (const Config* c : configs) (*c)(fresh);
    fresh.prepare();
    return tu::serial_point(fresh, st::Corner{}, nullptr);
  };
  const auto evaluated = [](const st::StaEngine& s) {
    return tu::serial_point(s, st::Corner{}, nullptr);
  };

  st::StaEngine edited(netlist, tu::vcl013());
  constrain(edited);
  (void)evaluated(edited);  // loads in use before the edits
  edit(edited);
  const auto want = reference(netlist, {&constrain, &edit});
  EXPECT_TRUE(tu::states_bitwise_equal(evaluated(edited), want, &edited));

  st::StaEngine copied(netlist, tu::vcl013());
  copied.copy_config_from(edited);
  EXPECT_TRUE(tu::states_bitwise_equal(evaluated(copied), want, &copied));

  // Across a rebuild the pin caps come from the new graph: a retyped
  // gate loads its input net differently.
  nl::Netlist retyped = netlist;
  const auto inv = std::find_if(
      netlist.instances().begin(), netlist.instances().end(),
      [](const nl::Instance& i) { return i.cell == "INVX1"; });
  ASSERT_NE(inv, netlist.instances().end());
  retyped.retype_instance(inv->name, "INVX4");
  st::StaEngine rebuilt(retyped, tu::vcl013());
  rebuilt.copy_config_from(edited);
  const auto rebuilt_state = evaluated(rebuilt);
  EXPECT_TRUE(tu::states_bitwise_equal(
      rebuilt_state, reference(retyped, {&constrain, &edit}), &rebuilt));
  EXPECT_FALSE(tu::states_bitwise_equal(rebuilt_state, want));

  const auto forked = edited.fork();
  more(*forked);
  EXPECT_TRUE(tu::states_bitwise_equal(
      evaluated(*forked), reference(netlist, {&constrain, &edit, &more}),
      forked.get()));
  EXPECT_TRUE(tu::states_bitwise_equal(evaluated(edited), want, &edited));
}
