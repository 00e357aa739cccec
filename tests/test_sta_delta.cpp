// Baseline + delta scenario propagation and slack-bound pruning:
// dirty-cone plan structure (engine graph vs netlist-level fanout
// query), delta sweeps bitwise identical to the serial evaluate()
// oracle on randomized netlists at 1/2/4 threads with scenarios
// touching one/few/all nets and engine-level annotation overlays,
// endpoint-only agreement with full-state sweeps, prune=safe
// exactness (worst_slack/worst_point/critical_endpoint never change),
// bound validity, and pruned/reused accessor errors.  Endpoint-only
// sweeps fold every point in place on per-worker state: the residue
// tests show no point leaks into the next (cone restore, edge-table
// restore to the engine-level annotation), a failing fit leaves the
// engine reusable, and the output-port invariant that lets those
// points skip the required-time pass holds on every fixture family.
// Their summaries read only the cone plus the worst baseline entries
// outside it: winners from outside the cone, exact ties across the
// cone boundary and unconstrained outputs agree with full-state sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "liberty/parser.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"

namespace co = waveletic::core;
namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

/// One scenario annotating EVERY instance input net that has a valid
/// falling victim transition — the cone-covers-everything stress shape.
st::NoiseScenario all_nets_scenario(const tu::EngineFixture& f) {
  st::StaEngine clean(*f.netlist, tu::vcl013());
  tu::constrain_ports(clean, *f.netlist);
  clean.run();
  st::NoiseScenario s;
  s.name = "all-nets";
  for (const auto& inst : f.netlist->instances()) {
    const auto& net = inst.pins.at("A");
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    auto one = st::make_aggressor_scenario(net, t.arrival, t.slew,
                                           tu::vcl013().nom_voltage,
                                           wv::Polarity::kFalling, 5e-12, 0.3);
    s.annotate(net, one.entries[0].annotation.waveform,
               one.entries[0].annotation.polarity);
  }
  return s;
}

std::vector<st::Corner> two_corners() {
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.10;
  slow.cell_slew_scale = 1.06;
  slow.wire_delay_scale = 1.20;
  return {st::Corner{}, slow};
}

/// The one/few(overlapping)/all-nets scenario mix every delta suite
/// sweeps.
std::vector<st::NoiseScenario> mixed_scenarios(const tu::EngineFixture& f) {
  auto scenarios = tu::random_scenarios(f, 4);  // one net each
  st::NoiseScenario merged;                     // few nets, overlapping cones
  merged.name = "merged";
  for (int i = 0; i < 3; ++i) {
    for (const auto& e : scenarios[static_cast<size_t>(i)].entries) {
      merged.annotate(e.net, e.annotation.waveform, e.annotation.polarity);
    }
  }
  scenarios.push_back(std::move(merged));
  scenarios.push_back(all_nets_scenario(f));
  return scenarios;
}

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

/// vcl013() with INVX1's fall tables replaced by its rise tables: chains
/// of this inverter under rise/fall-symmetric input constraints carry
/// bitwise-equal rise and fall timing, so rise and fall tie at every
/// endpoint outside a noisy cone.
const lb::Library& symmetric_inverter_library() {
  static const lb::Library library = [] {
    lb::Library l = tu::vcl013();
    for (auto& cell : l.cells) {
      if (cell.name != "INVX1") continue;
      for (auto& pin : cell.pins) {
        for (auto& arc : pin.arcs) {
          arc.cell_fall = arc.cell_rise;
          arc.fall_transition = arc.rise_transition;
        }
      }
    }
    return l;
  }();
  return library;
}

/// Bitwise equality of every endpoint-level answer of two sweeps of the
/// same spec, point by point, over the points neither one pruned.
::testing::AssertionResult summaries_bitwise_equal(const st::SweepResult& a,
                                                   const st::SweepResult& b) {
  if (a.size() != b.size() || a.num_endpoints() != b.num_endpoints()) {
    return ::testing::AssertionFailure() << "result shapes differ";
  }
  for (size_t p = 0; p < a.size(); ++p) {
    if (a.pruned(p) || b.pruned(p)) continue;
    const auto ca = a.critical_endpoint(p);
    const auto cb = b.critical_endpoint(p);
    if (bits(a.worst_slack(p)) != bits(b.worst_slack(p)) ||
        ca.endpoint != cb.endpoint || ca.rf != cb.rf ||
        bits(ca.slack) != bits(cb.slack)) {
      return ::testing::AssertionFailure()
             << "point " << p << ": worst slack " << a.worst_slack(p)
             << " vs " << b.worst_slack(p) << ", critical endpoint "
             << ca.endpoint << " vs " << cb.endpoint;
    }
    for (size_t e = 0; e < a.num_endpoints(); ++e) {
      for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
        if (bits(a.endpoint_arrival(p, e, rf)) !=
            bits(b.endpoint_arrival(p, e, rf))) {
          return ::testing::AssertionFailure()
                 << "point " << p << ": arrival at " << a.endpoint_name(e)
                 << " (" << st::to_string(rf) << ") "
                 << a.endpoint_arrival(p, e, rf) << " vs "
                 << b.endpoint_arrival(p, e, rf);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Scenarios that stress in-place endpoint-only folding on a random
/// DAG, and the engine-level annotations they run over:
///  - `down` annotates a net that the engine also annotates, and `up`
///    annotates a net whose cone strictly contains `down`'s (nested
///    cones) but leaves the engine net alone, so `up` must see the
///    engine-level annotation again right after `down` overrode it;
///  - `down` also runs right after `up`, so its smaller cone leaves
///    endpoints that `up` moved outside of it;
///  - a second engine-level net no scenario touches;
///  - one-net bumps, an overlapping few-net merge, and bumps that speed
///    the falling victim transition up instead of delaying it.
std::vector<st::NoiseScenario> residue_scenarios(tu::EngineFixture& f) {
  const auto singles = tu::random_scenarios(f, 12);
  const auto& sta = *f.sta;
  // Nested pair: down's cone is a strict subset of up's.
  size_t up = singles.size();
  size_t down = singles.size();
  std::vector<std::vector<int>> cones;
  for (const auto& sc : singles) {
    cones.push_back(sta.delta_plan(sc).forward);
    std::sort(cones.back().begin(), cones.back().end());
  }
  for (size_t a = 0; a < singles.size() && up == singles.size(); ++a) {
    for (size_t b = 0; b < singles.size(); ++b) {
      const auto& sa = cones[a];
      const auto& sb = cones[b];
      if (sb.size() < sa.size() && !sb.empty() &&
          std::includes(sa.begin(), sa.end(), sb.begin(), sb.end())) {
        up = a;
        down = b;
        break;
      }
    }
  }
  EXPECT_LT(up, singles.size()) << "fixture has no nested cone pair";
  if (up == singles.size()) return {};

  // Engine-level annotations: down's net (shifted so the override by
  // `down` and the engine value differ) and one net nobody sweeps.
  const auto& de = singles[down].entries[0];
  f.sta->annotate_noisy_net(de.net, de.annotation.waveform.shifted(9e-12),
                            de.annotation.polarity);
  for (size_t i = singles.size(); i-- > 0;) {
    if (i == up || i == down) continue;
    const auto& e = singles[i].entries[0];
    f.sta->annotate_noisy_net(e.net, e.annotation.waveform.shifted(-6e-12),
                              e.annotation.polarity);
    break;
  }

  std::vector<st::NoiseScenario> out;
  out.push_back(singles[down]);
  out.push_back(singles[up]);
  out.push_back(singles[down]);
  for (size_t i = 0; i < singles.size(); ++i) {
    if (i != up && i != down) out.push_back(singles[i]);
  }
  st::NoiseScenario merged;
  merged.name = "merged";
  for (size_t i = 0; i < 4; ++i) {
    const auto& e = singles[i].entries[0];
    merged.annotate(e.net, e.annotation.waveform, e.annotation.polarity);
  }
  out.push_back(std::move(merged));
  // Speed-up bumps: a dip just before the falling 50% crossing pulls
  // the crossing earlier, so the refolded arrivals fall below the
  // baseline's.
  st::StaEngine clean(*f.netlist, tu::vcl013());
  tu::constrain_ports(clean, *f.netlist);
  clean.run();
  int fast = 0;
  for (const auto& inst : f.netlist->instances()) {
    if (fast == 3) break;
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    auto sc = st::make_aggressor_scenario(
        inst.pins.at("A"), t.arrival, t.slew, tu::vcl013().nom_voltage,
        wv::Polarity::kFalling, -0.4 * t.slew, -0.35);
    sc.name = "speedup-" + std::to_string(fast++);
    out.push_back(std::move(sc));
  }
  out.push_back(singles[up]);
  out.push_back(singles[down]);
  return out;
}

/// Throws util::Error from its k-th fit (counted across threads) and
/// otherwise forwards to SGDP.
class ThrowOnKthFit final : public co::EquivalentWaveformMethod {
 public:
  explicit ThrowOnKthFit(int k) : k_(k) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "throw-on-kth-fit";
  }
  [[nodiscard]] co::Fit fit(const co::MethodInput& input) const override {
    if (calls_.fetch_add(1) + 1 == k_) {
      throw wu::Error("ThrowOnKthFit: injected failure");
    }
    return inner_->fit(input);
  }
  [[nodiscard]] bool needs_noiseless() const noexcept override {
    return inner_->needs_noiseless();
  }
  [[nodiscard]] std::unique_ptr<co::EquivalentWaveformMethod> clone()
      const override {
    return std::make_unique<ThrowOnKthFit>(k_);
  }
  [[nodiscard]] int calls() const noexcept { return calls_.load(); }

 private:
  int k_;
  mutable std::atomic<int> calls_{0};
  std::unique_ptr<co::EquivalentWaveformMethod> inner_ =
      co::make_method("SGDP");
};

}  // namespace

TEST(StaDelta, DeltaPlanMatchesNetlistFanoutCone) {
  const auto net = nl::make_chain_tree(4);
  st::StaEngine sta(net, tu::vcl013());
  tu::constrain_chain_tree(sta, 4);

  const auto bump = st::make_aggressor_scenario(
      "c0_1", 0.2e-9, 80e-12, tu::vcl013().nom_voltage,
      wv::Polarity::kFalling, 0.0, 0.4);

  const auto plan = sta.delta_plan(bump);
  ASSERT_EQ(plan.num_vertices, sta.vertex_count());
  ASSERT_FALSE(plan.forward.empty());

  auto contains = [](const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  // The victim chain and the fold tree are dirty; sibling chains are not.
  EXPECT_TRUE(contains(plan.forward, sta.pin("inv0_2/A").index));
  EXPECT_TRUE(contains(plan.forward, sta.pin("y").index));
  EXPECT_FALSE(contains(plan.forward, sta.pin("inv1_1/A").index));
  EXPECT_FALSE(contains(plan.forward, sta.pin("inv1_1/Y").index));
  // forward ⊆ backward (required times recompute over the fanin
  // closure of the cone), and both are level-sorted.
  for (const int v : plan.forward) EXPECT_TRUE(contains(plan.backward, v));
  for (size_t i = 1; i < plan.forward.size(); ++i) {
    EXPECT_LE(sta.vertex_levels()[static_cast<size_t>(plan.forward[i - 1])],
              sta.vertex_levels()[static_cast<size_t>(plan.forward[i])]);
  }
  for (size_t i = 1; i < plan.backward.size(); ++i) {
    EXPECT_GE(sta.vertex_levels()[static_cast<size_t>(plan.backward[i - 1])],
              sta.vertex_levels()[static_cast<size_t>(plan.backward[i])]);
  }
  // The single endpoint y lies in the cone.
  ASSERT_EQ(plan.endpoints.size(), 1u);
  EXPECT_EQ(plan.endpoints[0], 0);

  // Netlist-layer counterpart: the net-level transitive fanout under a
  // liberty-driven direction predicate covers every dirty instance
  // input pin's net.
  const auto& lib = tu::vcl013();
  const int seed_ord = net.net_ordinal("c0_1");
  const std::vector<int> seeds = {seed_ord};
  const auto cone_nets = net.transitive_fanout_nets(
      seeds, [&](const nl::Instance& inst, const std::string& pin) {
        return lib.find_cell(inst.cell)->find_pin(pin)->direction ==
               lb::PinDirection::kOutput;
      });
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 seed_ord));  // seeds included
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 net.net_ordinal("c0_2")));
  EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                 net.net_ordinal("y")));
  EXPECT_FALSE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                  net.net_ordinal("c1_1")));
  EXPECT_FALSE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                  net.net_ordinal("a0")));
  for (const int v : plan.forward) {
    const std::string& name = sta.vertex_name(static_cast<size_t>(v));
    const auto slash = name.find('/');
    const std::string nname =
        slash == std::string::npos
            ? name
            : net.find_instance(name.substr(0, slash))
                  ->pins.at(name.substr(slash + 1));
    EXPECT_TRUE(std::binary_search(cone_nets.begin(), cone_nets.end(),
                                   net.net_ordinal(nname)))
        << "dirty vertex " << name << " on net " << nname
        << " outside the netlist-level cone";
  }

  // A clean scenario has an empty plan: its point IS the baseline.
  EXPECT_TRUE(sta.delta_plan(st::NoiseScenario{}).forward.empty());
  // Unknown nets are rejected naming the scenario.
  st::NoiseScenario bad = bump;
  bad.entries[0].net = "no_such_net";
  EXPECT_THROW((void)sta.delta_plan(bad), wu::Error);
}

TEST(StaDelta, DeltaBitwiseIdenticalToFullAcrossThreads) {
  for (const uint64_t seed : {3ull, 11ull}) {
    const auto f = tu::random_engine(seed);
    st::SweepSpec spec;
    spec.corners = two_corners();
    spec.scenarios = mixed_scenarios(f);
    for (const int threads : {1, 2, 4}) {
      spec.threads = threads;
      const auto delta = f.sta->sweep(spec);
      EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, delta))
          << "seed " << seed << " threads " << threads;
      // Repeated delta runs are bitwise stable too.
      const auto again = f.sta->sweep(spec);
      for (size_t p = 0; p < delta.size(); ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(delta.state(p), again.state(p),
                                             f.sta.get()))
            << "repeat, seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(StaDelta, EngineLevelOverlayStaysBitwiseIdentical) {
  const auto f = tu::random_engine(7);
  const auto scenarios = tu::random_scenarios(f, 3);

  // Engine-level annotation on the net scenario 0 also touches: the
  // baseline carries it for every scenario, and scenario 0's own
  // annotation must win on the shared net (overlay semantics).
  const auto& e0 = scenarios[0].entries[0];
  auto engine_wave = e0.annotation.waveform.shifted(7e-12);
  f.sta->annotate_noisy_net(e0.net, engine_wave, e0.annotation.polarity);

  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = 2;
  const auto delta = f.sta->sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, delta));
  f.sta->clear_noisy_nets();
}

TEST(StaDelta, EndpointOnlyDeltaAgreesWithFullBitwise) {
  const auto f = tu::random_engine(13);
  st::SweepSpec spec;
  spec.corners = two_corners();
  // 130 points at one thread: every endpoint-only point folds in place
  // on the one worker's state, right after the point before it.
  spec.scenarios = tu::random_scenarios(f, 65);
  spec.threads = 1;
  const auto full = f.sta->sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, full));

  spec.endpoint_only = true;
  const auto summary = f.sta->sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, summary));
  ASSERT_EQ(summary.size(), full.size());
  for (size_t p = 0; p < full.size(); ++p) {
    EXPECT_EQ(summary.worst_slack(p), full.worst_slack(p)) << "point " << p;
    const auto cs = summary.critical_endpoint(p);
    const auto cf = full.critical_endpoint(p);
    EXPECT_EQ(cs.endpoint, cf.endpoint);
    EXPECT_EQ(cs.rf, cf.rf);
    EXPECT_EQ(cs.slack, cf.slack);
    for (size_t e = 0; e < summary.num_endpoints(); ++e) {
      for (int rf = 0; rf < 2; ++rf) {
        EXPECT_EQ(
            summary.endpoint_arrival(p, e, static_cast<st::RiseFall>(rf)),
            full.endpoint_arrival(p, e, static_cast<st::RiseFall>(rf)));
      }
    }
  }
  const auto stats = summary.prune_stats();
  EXPECT_EQ(stats.points, summary.size());
  EXPECT_EQ(stats.evaluated, summary.size());
  EXPECT_GT(stats.dirty_vertex_fraction, 0.0);
  EXPECT_LT(stats.dirty_vertex_fraction, 1.0);
}

TEST(StaDelta, PruneSafeNeverChangesTheExactAnswers) {
  for (const uint64_t seed : {5ull, 17ull}) {
    const auto f = tu::random_engine(seed, 8, 5, 9);
    // Mix critical (aligned, strong) and harmless (far, weak) bumps so
    // pruning has something to skip.
    st::StaEngine clean(*f.netlist, tu::vcl013());
    tu::constrain_ports(clean, *f.netlist);
    clean.run();
    std::vector<st::NoiseScenario> scenarios = tu::random_scenarios(f, 6);
    for (int i = 0; i < 12; ++i) {
      const auto& inst =
          f.netlist->instances()[static_cast<size_t>(i) %
                                 f.netlist->instances().size()];
      const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      scenarios.push_back(st::make_aggressor_scenario(
          inst.pins.at("A"), t.arrival, t.slew, tu::vcl013().nom_voltage,
          wv::Polarity::kFalling, 1.5e-9 + 10e-12 * i, 1e-7));
    }

    st::SweepSpec spec;
    spec.corners = two_corners();
    spec.scenarios = scenarios;
    spec.threads = 2;
    const auto exact = f.sta->sweep(spec);  // prune off
    spec.prune = st::PruneMode::kSafe;
    const auto pruned = f.sta->sweep(spec);
    EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, pruned));

    // The sweep-level answers are exact and bitwise unchanged.
    const auto wp_exact = exact.worst_point();
    const auto wp_pruned = pruned.worst_point();
    EXPECT_EQ(wp_pruned.point, wp_exact.point) << "seed " << seed;
    EXPECT_EQ(wp_pruned.slack, wp_exact.slack);
    const auto ce_exact = exact.critical_endpoint(wp_exact.point);
    const auto ce_pruned = pruned.critical_endpoint(wp_pruned.point);
    EXPECT_EQ(ce_pruned.endpoint, ce_exact.endpoint);
    EXPECT_EQ(ce_pruned.slack, ce_exact.slack);

    const auto stats = pruned.prune_stats();
    EXPECT_EQ(stats.points, pruned.size());
    EXPECT_EQ(stats.evaluated + stats.pruned + stats.reused, stats.points);
    for (size_t p = 0; p < pruned.size(); ++p) {
      // Every bound is a TRUE lower bound on the exact worst slack —
      // the safety invariant pruning rests on.
      EXPECT_LE(pruned.worst_slack_bound(p), exact.worst_slack(p))
          << "seed " << seed << " point " << p;
      if (!pruned.pruned(p)) {
        EXPECT_EQ(pruned.worst_slack(p), exact.worst_slack(p))
            << "seed " << seed << " point " << p;
      } else {
        // A pruned point must be strictly beaten by the worst point.
        EXPECT_GT(pruned.worst_slack_bound(p), wp_exact.slack);
      }
    }
    if (stats.evaluated > 0) {
      EXPECT_GE(stats.min_bound_gap, 0.0);
    }
  }
}

TEST(StaDelta, PrunedPointAccessorsThrowNamingFieldAndAlternatives) {
  const int width = 4;
  const auto net = nl::make_chain_tree(width);
  st::StaEngine clean(net, tu::vcl013());
  tu::constrain_chain_tree(clean, width);
  clean.run();

  // One genuinely critical scenario — a strong bump on the critical
  // chain (a3 arrives last, so chain 3 carries the worst path) — plus
  // enough harmless ones (bumps far past the transition, too weak to
  // perturb any crossing: their push-out bound is ~zero) that the
  // sorted tail overflows the first pruning wave.
  st::SweepSpec spec;
  spec.scenarios.push_back(tu::chain_bump_scenario(clean, 3, 0.0, 0.6));
  const auto& t = clean.timing("inv0_2/A", st::RiseFall::kFall);
  for (int i = 0; i < 11; ++i) {
    spec.scenarios.push_back(st::make_aggressor_scenario(
        "c0_1", t.arrival, t.slew, tu::vcl013().nom_voltage,
        wv::Polarity::kFalling, 2e-9 + 5e-12 * i, 1e-7));
  }
  spec.threads = 1;
  spec.prune = st::PruneMode::kSafe;

  st::StaEngine sta(net, tu::vcl013());
  tu::constrain_chain_tree(sta, width);
  const auto r = sta.sweep(spec);
  ASSERT_EQ(r.prune_mode(), st::PruneMode::kSafe);
  const auto stats = r.prune_stats();
  // Wave 1 (8 points at 1 thread) evaluates the strong scenario plus
  // the first harmless ones; the rest are provably unbeatable.
  EXPECT_EQ(stats.evaluated, 8u);
  EXPECT_EQ(stats.pruned, 4u);
  EXPECT_GE(stats.mean_bound_gap, 0.0);

  // The strong scenario is never pruned and carries the worst point.
  EXPECT_FALSE(r.pruned(0));
  EXPECT_EQ(r.worst_point().point, 0u);

  size_t pruned_point = r.size();
  for (size_t p = 0; p < r.size(); ++p) {
    if (r.pruned(p)) pruned_point = p;
  }
  ASSERT_LT(pruned_point, r.size());
  // Pruned accessor errors name the disabling SweepSpec field and the
  // accessors that DO work — same shape as the endpoint-only errors.
  auto expect_prune_error = [](auto&& fn) {
    try {
      fn();
      FAIL() << "expected util::Error";
    } catch (const wu::Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("SweepSpec::prune"), std::string::npos) << msg;
      EXPECT_NE(msg.find("worst_slack_bound"), std::string::npos) << msg;
    }
  };
  expect_prune_error([&] { (void)r.worst_slack(pruned_point); });
  expect_prune_error([&] { (void)r.state(pruned_point); });
  expect_prune_error([&] { (void)r.critical_endpoint(pruned_point); });
  expect_prune_error([&] { (void)r.endpoint_arrival(pruned_point, 0,
                                                    st::RiseFall::kFall); });
  // The bound itself is always available...
  EXPECT_TRUE(std::isfinite(r.worst_slack_bound(pruned_point)));
  // ...but only when pruning actually ran.
  spec.prune = st::PruneMode::kOff;
  const auto off = sta.sweep(spec);
  try {
    (void)off.worst_slack_bound(0);
    FAIL() << "expected util::Error";
  } catch (const wu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("PruneMode::kSafe"),
              std::string::npos);
  }
}

TEST(StaDelta, ConeWithoutEndpointsIsReusedExactlyFromBaseline) {
  // u2 drives a dangling net: annotating it perturbs nothing any
  // endpoint can see, so under pruning the point is recorded exactly
  // from the baseline without propagation.
  nl::Netlist net;
  net.add_port("a", nl::PortDirection::kInput);
  net.add_port("y", nl::PortDirection::kOutput);
  net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "y"}}});
  net.add_instance({"u2", "INVX1", {{"A", "a"}, {"Y", "dead"}}});

  st::StaEngine sta(net, tu::vcl013());
  sta.set_input("a", 0.05e-9, 80e-12);
  sta.set_output_load("y", 5e-15);
  sta.set_required("y", 1e-9);
  sta.run();
  const double base_ws = sta.worst_slack();

  st::SweepSpec spec;
  spec.scenarios.push_back(st::make_aggressor_scenario(
      "dead", 0.1e-9, 80e-12, tu::vcl013().nom_voltage,
      wv::Polarity::kFalling, 0.0, 0.4));
  spec.prune = st::PruneMode::kSafe;
  spec.endpoint_only = true;  // reuse applies to summary-only results
  const auto r = sta.sweep(spec);
  ASSERT_EQ(r.size(), 1u);
  const auto stats = r.prune_stats();
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.evaluated, 0u);
  EXPECT_EQ(stats.pruned, 0u);
  EXPECT_EQ(r.worst_slack(0), base_ws);  // exact, bitwise
  EXPECT_FALSE(r.pruned(0));
  EXPECT_EQ(r.worst_point().slack, base_ws);
  EXPECT_THROW((void)r.state(0), wu::Error);  // endpoint-only result

  // A full-state pruned sweep must NOT reuse: the point is either
  // materialized or pruned, so worst_point() always has a full state.
  spec.endpoint_only = false;
  const auto full_pruned = sta.sweep(spec);
  EXPECT_EQ(full_pruned.prune_stats().reused, 0u);
  const auto wp = full_pruned.worst_point();
  EXPECT_EQ(wp.slack, base_ws);
  EXPECT_NO_THROW((void)full_pruned.critical_path(wp.point));

  // With pruning off the point IS fully materialized (cone is empty, so
  // the state equals a full clean propagation bitwise).
  spec.prune = st::PruneMode::kOff;
  const auto full = sta.sweep(spec);
  EXPECT_TRUE(tu::states_bitwise_equal(
      tu::serial_point(sta, st::Corner{}, nullptr), full.state(0), &sta));
}

TEST(StaDelta, EndpointOnlySweepsLeaveNoResidueBetweenPoints) {
  for (const uint64_t seed : {3ull, 19ull}) {
    auto f = tu::random_engine(seed, 6, 6, 7);
    const auto scenarios = residue_scenarios(f);
    ASSERT_FALSE(scenarios.empty()) << "seed " << seed;
    ASSERT_GT(f.sta->noisy_net_count(), 1u);

    st::SweepSpec spec;
    spec.corners = two_corners();
    spec.scenarios = scenarios;
    spec.threads = 1;
    const auto full = f.sta->sweep(spec);  // full-state reference
    ASSERT_TRUE(tu::sweep_matches_serial(*f.sta, spec, full))
        << "seed " << seed;
    // The speed-up bumps really speed some endpoint up.
    bool faster = false;
    for (size_t p = 0; p < full.size(); ++p) {
      if (full.scenario_name(p % full.num_scenarios()).rfind("speedup", 0) !=
          0) {
        continue;
      }
      const auto base = tu::serial_point(*f.sta, full.corner(p /
                                         full.num_scenarios()), nullptr);
      for (size_t e = 0; e < full.num_endpoints(); ++e) {
        const auto pin = f.sta->pin(full.endpoint_name(e));
        faster = faster ||
                 full.endpoint_arrival(p, e, st::RiseFall::kFall) <
                     f.sta->timing_in(base, pin, st::RiseFall::kFall).arrival;
      }
    }
    EXPECT_TRUE(faster) << "seed " << seed << ": no speed-up bump lands";

    spec.endpoint_only = true;
    for (const auto prune : {st::PruneMode::kOff, st::PruneMode::kSafe}) {
      spec.prune = prune;
      for (const int threads : {1, 2, 4}) {
        spec.threads = threads;
        const auto first = f.sta->sweep(spec);
        const auto second = f.sta->sweep(spec);  // same engine, again
        for (const auto* r : {&first, &second}) {
          EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, *r))
              << "seed " << seed << " prune " << st::to_string(prune)
              << " threads " << threads;
          EXPECT_TRUE(summaries_bitwise_equal(*r, full))
              << "seed " << seed << " prune " << st::to_string(prune)
              << " threads " << threads;
        }
        EXPECT_TRUE(summaries_bitwise_equal(first, second));
      }
    }
    f.sta->clear_noisy_nets();
  }
}

TEST(StaDelta, FailingFitLeavesTheEngineReusable) {
  auto f = tu::random_engine(23);
  const auto scenarios = tu::random_scenarios(f, 24);
  st::SweepSpec spec;
  spec.corners = two_corners();
  spec.scenarios = scenarios;
  spec.endpoint_only = true;
  for (const int threads : {1, 2}) {
    spec.threads = threads;
    ThrowOnKthFit thrower(7);
    spec.method = &thrower;
    try {
      (void)f.sta->sweep(spec);
      FAIL() << "expected the injected util::Error";
    } catch (const wu::Error& e) {
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
    EXPECT_GE(thrower.calls(), 7);

    spec.method = nullptr;
    const auto after = f.sta->sweep(spec);
    auto fresh = tu::random_engine(23);
    const auto want = fresh.sta->sweep(spec);
    EXPECT_TRUE(summaries_bitwise_equal(after, want)) << "threads " << threads;
    EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, after));
  }
}

TEST(StaDelta, OutputPortVerticesAreNeverEdgeSources) {
  // A vertex's forward closure is the vertex alone exactly when it has
  // no out-edge.  Endpoint-only sweeps skip the required-time pass
  // because this holds for every output port (see endpoint_ports()).
  const auto check = [](const nl::Netlist& net, const lb::Library& lib,
                        const std::string& what) {
    st::StaEngine sta(net, lib);
    ASSERT_FALSE(sta.endpoint_ports().empty()) << what;
    for (const int32_t p : sta.endpoint_ports()) {
      const auto& name = net.ports()[static_cast<size_t>(p)].name;
      st::StaEngine::EditSeeds seeds;
      seeds.vertices = {sta.pin(name).index};
      const auto plan = sta.delta_plan(seeds);
      EXPECT_EQ(plan.forward, seeds.vertices)
          << what << ": output port " << name << " drives an edge";
    }
  };
  check(nl::make_random_dag(29, 6, 6, 7), tu::vcl013(), "random DAG");
  check(nl::make_chain_tree(5), tu::vcl013(), "chain tree");
  nl::StitchOptions opt;
  opt.copies = 3;
  opt.topology = nl::StitchTopology::kChain;
  check(nl::stitch_blocks_flat(nl::make_random_dag(31, 4, 4, 5), opt),
        tu::vcl013(), "stitched chain");
  const std::string golden = std::string(WAVELETIC_TEST_DIR) + "/golden";
  const auto lib = lb::parse_liberty_file(golden + "/golden.lib");
  check(nl::parse_verilog_file(golden + "/golden.v"), lib, "golden.v");
}

TEST(StaDelta, EndpointOnlySummariesReadOnlyTheCone) {
  // An endpoint-only point is summarized from its cone's endpoints plus
  // the worst corner-baseline entries outside the cone.  Identical
  // parallel chains tie every output bitwise in the baseline, so the
  // scenarios below cover: a speed-up inside the baseline's critical
  // endpoint's cone (the winner must come from outside the cone), exact
  // ties across the cone boundary, a two-chain cone, and a cone without
  // endpoints (reused under pruning).  All outputs, half of them and
  // none are constrained in turn, on vcl013 and on a rise/fall-symmetric
  // inverter whose endpoints tie rise against fall; at 2 corners, prune
  // off and safe, and 1/2/4 threads, every summary must equal a
  // full-state sweep's.
  constexpr int kChains = 6;
  for (const auto& [library, constrained] :
       std::vector<std::pair<const lb::Library*, int>>{
           {&tu::vcl013(), kChains},
           {&tu::vcl013(), kChains / 2},
           {&tu::vcl013(), 0},
           {&symmetric_inverter_library(), kChains},
           {&symmetric_inverter_library(), 0}}) {
    SCOPED_TRACE("constrained outputs: " + std::to_string(constrained) +
                 (library == &tu::vcl013() ? "" : ", symmetric inverter"));
    auto f = tu::parallel_chains(kChains, 3, constrained, *library);
    const auto& sta = *f.sta;
    const auto base = tu::serial_point(sta, st::Corner{}, nullptr);
    st::SweepSpec spec;
    spec.corners = two_corners();
    for (int i = 0; i < kChains; ++i) {
      const std::string id = std::to_string(i);
      for (const auto pol : {wv::Polarity::kFalling, wv::Polarity::kRising}) {
        const auto rf = pol == wv::Polarity::kFalling ? st::RiseFall::kFall
                                                      : st::RiseFall::kRise;
        const auto& t = sta.timing_in(base, "g" + id + "_2/A", rf);
        ASSERT_TRUE(t.valid);
        // Aligned slow-down, and a dip just before the 50% crossing
        // that pulls it earlier.
        for (const double strength : {0.35, -0.35}) {
          spec.scenarios.push_back(st::make_aggressor_scenario(
              "c" + id + "_1", t.arrival, t.slew, tu::vcl013().nom_voltage,
              pol, strength < 0.0 ? -0.4 * t.slew : 0.0, strength));
        }
      }
    }
    st::NoiseScenario two_chains;
    two_chains.name = "two-chains";
    for (const size_t s : {size_t{2}, size_t{14}}) {
      const auto& e = spec.scenarios[s].entries[0];
      two_chains.annotate(e.net, e.annotation.waveform, e.annotation.polarity);
    }
    spec.scenarios.push_back(std::move(two_chains));
    // Both transitions of y<i> sped up: c<i>_1's falling transition
    // becomes y<i>'s fall, c<i>_2's becomes its rise.  On the symmetric
    // inverter y0 and y1 then hold the 2k = 4 worst baseline entries of
    // a 2-endpoint cone, so the winner is the (2k + 1)-th.
    const auto faster = [&](st::NoiseScenario& sc, int i) {
      for (const int k : {1, 2}) {
        const std::string net =
            "c" + std::to_string(i) + "_" + std::to_string(k);
        const auto& t = sta.timing_in(
            base, "g" + std::to_string(i) + "_" + std::to_string(k + 1) + "/A",
            st::RiseFall::kFall);
        auto one = st::make_aggressor_scenario(
            net, t.arrival, t.slew, tu::vcl013().nom_voltage,
            wv::Polarity::kFalling, -0.4 * t.slew, -0.35);
        sc.annotate(net, one.entries[0].annotation.waveform,
                    wv::Polarity::kFalling);
      }
    };
    st::NoiseScenario y0_faster;
    y0_faster.name = "y0-faster";
    faster(y0_faster, 0);
    st::NoiseScenario y01_faster = y0_faster;
    y01_faster.name = "y0-y1-faster";
    faster(y01_faster, 1);
    spec.scenarios.push_back(std::move(y0_faster));
    spec.scenarios.push_back(std::move(y01_faster));
    spec.scenarios.push_back(st::make_aggressor_scenario(
        "dead", 0.1e-9, 80e-12, tu::vcl013().nom_voltage,
        wv::Polarity::kFalling, 0.0, 0.4));
    spec.threads = 1;
    const auto full = f.sta->sweep(spec);
    ASSERT_TRUE(tu::sweep_matches_serial(sta, spec, full));

    // The fixture exercises what it claims, judged on the full states.
    const auto metric_bits = [](const st::PinTiming& t) {
      return bits(std::isfinite(t.required) ? t.slack() : -t.arrival);
    };
    size_t outside_winners = 0;
    size_t boundary_ties = 0;
    for (size_t c = 0; c < full.num_corners(); ++c) {
      const auto base_we = sta.worst_endpoint_in(
          tu::serial_point(sta, full.corner(c), nullptr));
      for (size_t s = 0; s < full.num_scenarios(); ++s) {
        const auto cone = sta.delta_plan(spec.scenarios[s]).endpoints;
        const auto in_cone = [&](int32_t e) {
          return std::binary_search(cone.begin(), cone.end(), e);
        };
        const size_t p = full.point(c, s);
        const auto ce = full.critical_endpoint(p);
        ASSERT_GE(ce.endpoint, 0);
        if (in_cone(base_we.endpoint) && !in_cone(ce.endpoint)) {
          ++outside_winners;
        }
        const auto& state = full.state(p);
        const auto pin_of = [&](size_t e) {
          return sta.pin(full.endpoint_name(e));
        };
        const auto& winner =
            sta.timing_in(state, pin_of(static_cast<size_t>(ce.endpoint)),
                          ce.rf);
        for (size_t e = 0; e < full.num_endpoints(); ++e) {
          if (in_cone(static_cast<int32_t>(e)) == in_cone(ce.endpoint)) {
            continue;
          }
          const auto& t = sta.timing_in(state, pin_of(e), ce.rf);
          if (t.valid &&
              std::isfinite(t.required) == std::isfinite(winner.required) &&
              metric_bits(t) == metric_bits(winner)) {
            ++boundary_ties;
            break;
          }
        }
      }
    }
    EXPECT_GT(outside_winners, 0u);
    EXPECT_GT(boundary_ties, 0u);

    spec.endpoint_only = true;
    for (const auto prune : {st::PruneMode::kOff, st::PruneMode::kSafe}) {
      for (const int threads : {1, 2, 4}) {
        spec.prune = prune;
        spec.threads = threads;
        const auto summary = f.sta->sweep(spec);
        EXPECT_TRUE(summaries_bitwise_equal(summary, full))
            << "prune " << st::to_string(prune) << ", " << threads
            << " threads";
        const auto wp = summary.worst_point();
        EXPECT_EQ(wp.point, full.worst_point().point);
        EXPECT_EQ(bits(wp.slack), bits(full.worst_point().slack));
        if (prune == st::PruneMode::kSafe) {
          EXPECT_EQ(summary.prune_stats().reused, 2u);  // "dead", 2 corners
        }
      }
    }
  }
}
