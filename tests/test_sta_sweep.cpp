// Unified Sweep surface: corner × scenario cross products, cross-checked
// bitwise against independent single-engine runs and the serial
// evaluate() oracle; TimingView accessors; worst_point(); endpoint-only
// results across chunk boundaries; and corner-keyed Γeff memoization.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "wave/ramp.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

// Shared scaffolding lives in sta_test_util.hpp.
const lb::Library& lib() { return tu::vcl013(); }

void constrain(st::StaEngine& sta, int width) {
  tu::constrain_chain_tree(sta, width);
}

st::NoiseScenario bump_scenario(const st::StaEngine& clean, int chain,
                                double alignment, double strength) {
  return tu::chain_bump_scenario(clean, chain, alignment, strength);
}

void apply_scenario(st::StaEngine& sta, const st::NoiseScenario& sc) {
  sta.clear_noisy_nets();
  for (const auto& e : sc.entries) {
    sta.annotate_noisy_net(e.net, e.annotation.waveform,
                           e.annotation.polarity);
  }
}

std::vector<st::Corner> two_corners() {
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.12;
  slow.cell_slew_scale = 1.08;
  slow.wire_delay_scale = 1.25;
  return {st::Corner{}, slow};
}

}  // namespace

TEST(StaSweep, CrossProductMatchesIndependentRunsBitwise) {
  const int width = 6;
  const auto net = nl::make_chain_tree(width);

  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // 2 corners × 8 scenarios, evaluated in ONE levelized pass.
  st::SweepSpec spec;
  spec.corners = two_corners();
  for (int chain : {0, 3}) {
    for (int a = 0; a < 4; ++a) {
      spec.scenarios.push_back(
          bump_scenario(clean, chain, (a - 2) * 20e-12, 0.3 + 0.1 * a));
    }
  }
  spec.threads = 4;

  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto result = sta.sweep(spec);
  ASSERT_EQ(result.num_corners(), 2u);
  ASSERT_EQ(result.num_scenarios(), 8u);
  ASSERT_EQ(result.size(), 16u);
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, result));

  // Independent nested loops: one single-threaded engine run per
  // (corner, scenario), no cache.  Must match the sweep bitwise.
  st::StaEngine ref(net, lib());
  constrain(ref, width);
  ref.set_threads(1);
  for (size_t c = 0; c < spec.corners.size(); ++c) {
    ref.set_corner(spec.corners[c]);
    for (size_t s = 0; s < spec.scenarios.size(); ++s) {
      apply_scenario(ref, spec.scenarios[s]);
      ref.run();
      const size_t p = result.point(c, s);
      EXPECT_EQ(result.worst_slack(p), ref.worst_slack())
          << "corner " << c << " scenario " << s;
      const auto& ry = ref.timing("y", st::RiseFall::kFall);
      const auto& sy = result.timing(p, "y", st::RiseFall::kFall);
      EXPECT_EQ(sy.arrival, ry.arrival);
      EXPECT_EQ(sy.slew, ry.slew);
      EXPECT_EQ(sy.required, ry.required);
    }
  }
}

TEST(StaSweep, WorstPointIsTheArgminOverAllPoints) {
  const int width = 4;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  st::SweepSpec spec;
  spec.corners = two_corners();
  for (int a = 0; a < 4; ++a) {
    spec.scenarios.push_back(bump_scenario(clean, 0, a * 15e-12, 0.5));
  }
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto result = sta.sweep(spec);

  const auto worst = result.worst_point();
  EXPECT_EQ(worst.point,
            worst.corner * result.num_scenarios() + worst.scenario);
  for (size_t p = 0; p < result.size(); ++p) {
    EXPECT_LE(worst.slack, result.worst_slack(p));
  }
  EXPECT_EQ(worst.slack, result.worst_slack(worst.point));
  // The derated corner is strictly slower, so the worst point must come
  // from it.
  EXPECT_EQ(worst.corner, 1u);
}

TEST(StaSweep, DeratedCornerIsStrictlySlower) {
  const int width = 3;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine sta(net, lib());
  constrain(sta, width);

  st::SweepSpec spec;
  spec.corners = two_corners();
  const auto result = sta.sweep(spec);  // no scenarios: one clean point each

  const auto nominal = result.view(0, 0);
  const auto slow = result.view(1, 0);
  EXPECT_EQ(nominal.corner().name, "nominal");
  EXPECT_EQ(slow.corner().name, "slow");
  const auto& ty_nom = nominal.timing("y", st::RiseFall::kFall);
  const auto& ty_slow = slow.timing("y", st::RiseFall::kFall);
  ASSERT_TRUE(ty_nom.valid && ty_slow.valid);
  EXPECT_GT(ty_slow.arrival, ty_nom.arrival);
  EXPECT_GT(ty_slow.slew, ty_nom.slew);
  EXPECT_LT(slow.worst_slack(), nominal.worst_slack());
}

TEST(StaSweep, TimingViewHandleAndStringAgreeAndPathsBacktrack) {
  const int width = 4;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  st::SweepSpec spec;
  spec.scenarios.push_back(bump_scenario(clean, 0, 10e-12, 0.5));
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto result = sta.sweep(spec);

  const auto view = result.view(0);
  EXPECT_EQ(view.scenario_name(), spec.scenarios[0].name);
  const st::PinId y = sta.pin("y");
  // Same PinTiming object through both overloads.
  EXPECT_EQ(&view.timing(y, st::RiseFall::kFall),
            &view.timing("y", st::RiseFall::kFall));

  const auto path = view.critical_path();
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.back().pin, "y");
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].arrival, path[i - 1].arrival - 1e-15);
  }
  // Matches the per-point accessor on the result itself.
  EXPECT_EQ(result.critical_path(0).size(), path.size());
}

TEST(StaSweep, EmptySpecIsOneCleanPointMatchingRun) {
  const int width = 3;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto result = sta.sweep(st::SweepSpec{});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.scenario_name(0), "clean");

  sta.run();
  EXPECT_EQ(result.worst_slack(0), sta.worst_slack());
  EXPECT_EQ(result.timing(0, "y", st::RiseFall::kFall).arrival,
            sta.timing("y", st::RiseFall::kFall).arrival);
}

TEST(StaSweep, EngineCornerAppliesWhenSpecHasNoCornerAxis) {
  const int width = 3;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  sta.set_corner(two_corners()[1]);

  const auto result = sta.sweep(st::SweepSpec{});
  ASSERT_EQ(result.num_corners(), 1u);
  EXPECT_EQ(result.corner(0).name, "slow");

  sta.run();  // run() honours the engine corner too
  EXPECT_EQ(result.worst_slack(0), sta.worst_slack());

  sta.clear_corner();
  sta.run();
  EXPECT_LT(result.worst_slack(0), sta.worst_slack());  // derate costs slack
}

TEST(StaSweep, SharedCacheAcrossCornersStaysBitwiseCorrect) {
  const int width = 4;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  st::SweepSpec spec;
  spec.corners = two_corners();
  for (int a = 0; a < 4; ++a) {
    spec.scenarios.push_back(bump_scenario(clean, 1, a * 15e-12, 0.5));
  }
  spec.threads = 2;

  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto shared = sta.sweep(spec);
  EXPECT_GT(shared.cache_stats().hits + shared.cache_stats().misses, 0u);

  // Corner keys keep cache entries distinct per derate: a hit can never
  // leak a fit from another corner, so the shared-memo sweep equals
  // cache-free serial evaluation bitwise.
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, shared));
}

TEST(StaSweep, EndpointOnlyAgreesWithFullStateBitwise) {
  const int width = 5;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // 2 corners × 65 scenarios = 130 points at one thread: three 64-point
  // endpoint-only chunks, the last one partial.
  st::SweepSpec spec;
  spec.corners = two_corners();
  for (int a = 0; a < 65; ++a) {
    spec.scenarios.push_back(bump_scenario(
        clean, a % 2, (a % 13 - 6) * 5e-12, 0.3 + 0.005 * a));
  }
  spec.threads = 1;

  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto full = sta.sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, full));
  spec.endpoint_only = true;
  const auto summary = sta.sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, summary));

  ASSERT_EQ(summary.size(), full.size());
  EXPECT_TRUE(summary.endpoint_only());
  EXPECT_FALSE(full.endpoint_only());
  ASSERT_EQ(summary.num_endpoints(), 1u);
  EXPECT_EQ(summary.endpoint_name(0), "y");

  for (size_t p = 0; p < full.size(); ++p) {
    // worst slack, critical endpoint and endpoint arrivals agree
    // bitwise with the full-state accessors on the same spec.
    EXPECT_EQ(summary.worst_slack(p), full.worst_slack(p)) << "point " << p;
    const auto ce_s = summary.critical_endpoint(p);
    const auto ce_f = full.critical_endpoint(p);
    EXPECT_EQ(ce_s.endpoint, ce_f.endpoint);
    EXPECT_EQ(ce_s.rf, ce_f.rf);
    EXPECT_EQ(ce_s.slack, ce_f.slack);
    for (int rf = 0; rf < 2; ++rf) {
      EXPECT_EQ(summary.endpoint_arrival(p, 0, static_cast<st::RiseFall>(rf)),
                full.endpoint_arrival(p, 0, static_cast<st::RiseFall>(rf)));
    }
  }
  const auto wp_full = full.worst_point();
  const auto wp_sum = summary.worst_point();
  EXPECT_EQ(wp_sum.point, wp_full.point);
  EXPECT_EQ(wp_sum.corner, wp_full.corner);
  EXPECT_EQ(wp_sum.scenario, wp_full.scenario);
  EXPECT_EQ(wp_sum.slack, wp_full.slack);

  // Memory: the whole point of the mode.
  EXPECT_LT(summary.result_bytes_per_point() * 10,
            full.result_bytes_per_point());
}

TEST(StaSweep, EndpointOnlyFullStateAccessorsThrowClearly) {
  const int width = 3;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.endpoint_only = true;
  const auto r = sta.sweep(spec);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.worst_slack(0)));
  auto expect_throws_endpoint_only = [](auto&& fn) {
    try {
      fn();
      FAIL() << "expected util::Error";
    } catch (const wu::Error& e) {
      EXPECT_NE(std::string(e.what()).find("endpoint-only"),
                std::string::npos)
          << "error should name the mode: " << e.what();
    }
  };
  expect_throws_endpoint_only([&] { (void)r.state(0); });
  expect_throws_endpoint_only([&] { (void)r.view(0); });
  expect_throws_endpoint_only(
      [&] { (void)r.timing(0, "y", st::RiseFall::kFall); });
  expect_throws_endpoint_only([&] { (void)r.critical_path(0); });
}

TEST(StaSweep, OutOfRangeAccessThrows) {
  const int width = 2;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto result = sta.sweep(st::SweepSpec{});
  EXPECT_THROW((void)result.state(1), wu::Error);
  EXPECT_THROW((void)result.point(1, 0), wu::Error);
  EXPECT_THROW((void)result.point(0, 1), wu::Error);
  EXPECT_THROW((void)result.corner(1), wu::Error);
  EXPECT_THROW((void)st::SweepResult{}.state(0), wu::Error);
}
