/// \file test_sta_scengen.cpp
/// The streaming scenario generator: cross-product cardinality and
/// lexicographic determinism of the lazy iterator, window-filter
/// correctness against hand-computed overlaps, correlation-predicate
/// rejection (pluggable + built-in structural rule), bitwise identity
/// of the generated sweep against eager enumeration through sweep(),
/// prune-seed exactness, the million-point bounded-memory funnel, the
/// coupled-bump store and its exact keys, one fit per
/// input within a generated sweep, coupled-line bump sampling against
/// Waveform::at, and rejection of malformed space knobs.

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/sgdp.hpp"
#include "interconnect/coupled.hpp"
#include "sta/scengen.hpp"
#include "sta_test_util.hpp"
#include "wave/ramp.hpp"

namespace waveletic {
namespace {

using sta::GeneratedSweepSpec;
using sta::PruneMode;
using sta::ScenarioGenerator;
using sta::ScenarioPair;
using sta::ScenarioSpace;
using sta::StructuralCorrelationRule;
using statest::vcl013;

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

/// A hand-built 2×3×4 space whose every candidate is window-feasible
/// (alignments stay well inside both windows).
ScenarioSpace tiny_space() {
  ScenarioSpace space;
  for (int p = 0; p < 2; ++p) {
    ScenarioPair pair;
    pair.victim_net = p;
    pair.aggressor_net = p + 2;
    pair.victim_name = "v" + std::to_string(p);
    pair.aggressor_name = "g" + std::to_string(p);
    pair.victim_arrival = 1e-9;
    pair.victim_slew = 100e-12;
    pair.aggressor_window_lo = 0.0;
    pair.aggressor_window_hi = 2e-9;
    space.pairs.push_back(pair);
  }
  space.alignments = {-20e-12, 0.0, 20e-12};
  space.strengths = {0.1, 0.2, 0.3, 0.4};
  return space;
}

TEST(ScenGen, CrossProductCardinalityAndLexicographicOrder) {
  const ScenarioSpace space = tiny_space();
  ASSERT_EQ(space.size(), 2u * 3u * 4u);

  ScenarioGenerator gen(space);
  std::vector<uint64_t> seen;
  while (const auto c = gen.next()) {
    // Flat index and decoded coordinates agree both ways.
    EXPECT_EQ(c->index, seen.empty() ? 0 : seen.back() + 1);
    const auto coords = space.decode(c->index);
    EXPECT_EQ(coords.pair, c->pair);
    EXPECT_EQ(coords.alignment, c->alignment);
    EXPECT_EQ(coords.strength, c->strength);
    EXPECT_EQ(space.encode(coords), c->index);
    seen.push_back(c->index);
  }
  // Every candidate, exactly once, in lexicographic order 0..N-1.
  ASSERT_EQ(seen.size(), space.size());
  EXPECT_EQ(gen.stats().generated, space.size());
  EXPECT_EQ(gen.stats().window_killed, 0u);
  EXPECT_EQ(gen.stats().correlation_killed, 0u);

  // A second generator over the same space replays the identical
  // sequence (pull order is deterministic).
  ScenarioGenerator replay(space);
  for (const uint64_t expected : seen) {
    const auto c = replay.next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->index, expected);
  }
  EXPECT_FALSE(replay.next().has_value());
}

TEST(ScenGen, WindowFilterMatchesHandComputedOverlaps) {
  // One pair with round-number windows:
  //   victim: arrival 1.0 ns, slew 100 ps -> transition window
  //           [0.9, 1.1] ns; bump sigma 50 ps -> support ±150 ps.
  //   aggressor switching window: [0.5, 0.95] ns.
  ScenarioSpace space;
  ScenarioPair pair;
  pair.victim_net = 0;
  pair.aggressor_net = 1;
  pair.victim_name = "v";
  pair.aggressor_name = "g";
  pair.victim_arrival = 1.0e-9;
  pair.victim_slew = 100e-12;
  pair.aggressor_window_lo = 0.5e-9;
  pair.aggressor_window_hi = 0.95e-9;
  space.pairs.push_back(pair);
  space.strengths = {0.2, 0.4};
  // Hand-computed per alignment (bump support vs the two windows):
  //   +0 ps   : support [0.85, 1.15] — overlaps both        -> feasible
  //   +300 ps : support [1.15, 1.45] — misses victim hi 1.1 -> killed
  //   -270 ps : support [0.58, 0.88] — misses victim lo 0.9 -> killed
  //   -200 ps : support [0.65, 0.95] — touches both         -> feasible
  //   +90 ps  : support [0.94, 1.24] — touches aggressor hi -> feasible
  //   +160 ps : support [1.01, 1.31] — victim ok, but past
  //             aggressor hi 0.95                           -> killed
  space.alignments = {0.0, 300e-12, -270e-12, -200e-12, 90e-12, 160e-12};
  const bool expected[] = {true, false, false, true, true, false};

  ScenarioGenerator gen(space);
  for (uint32_t a = 0; a < space.alignments.size(); ++a) {
    EXPECT_EQ(gen.window_feasible(0, a), expected[a])
        << "alignment " << space.alignments[a];
  }
  // Drained candidates are exactly the feasible alignments × all
  // strengths, and the kill counter advanced by whole strength blocks.
  std::vector<uint64_t> indices;
  while (const auto c = gen.next()) indices.push_back(c->index);
  EXPECT_EQ(indices, (std::vector<uint64_t>{0, 1, 6, 7, 8, 9}));
  EXPECT_EQ(gen.stats().generated, space.size());
  EXPECT_EQ(gen.stats().window_killed, 3u * space.strengths.size());
  EXPECT_EQ(gen.stats().correlation_killed, 0u);
}

/// A rule that rejects everything — the pluggable-predicate contract.
class RejectAllRule final : public sta::CorrelationRule {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "reject-all";
  }
  [[nodiscard]] bool can_switch_together(int32_t, int32_t) const override {
    return false;
  }
};

TEST(ScenGen, CorrelationPredicateKillsPairs) {
  const ScenarioSpace space = tiny_space();
  const RejectAllRule reject;
  ScenarioGenerator gen(space, &reject);
  EXPECT_FALSE(gen.next().has_value());
  // Window passes first (stage order), so every candidate dies in the
  // correlation stage.
  EXPECT_EQ(gen.stats().generated, space.size());
  EXPECT_EQ(gen.stats().window_killed, 0u);
  EXPECT_EQ(gen.stats().correlation_killed, space.size());
}

TEST(ScenGen, StructuralRuleRejectsCausallyOrderedAndSameNet) {
  const auto nl = netlist::make_chain_tree(2);
  const auto drives = sta::make_drives_predicate(vcl013());
  const StructuralCorrelationRule rule(nl, drives);
  const auto net = [&](const char* name) { return nl.net_ordinal(name); };

  // Independent chains: feasible both ways.
  EXPECT_TRUE(rule.can_switch_together(net("c0_1"), net("c1_1")));
  EXPECT_TRUE(rule.can_switch_together(net("c1_2"), net("c0_2")));
  // A net cannot aggress itself.
  EXPECT_FALSE(rule.can_switch_together(net("c0_1"), net("c0_1")));
  // Causal ordering, both directions: c0_2 is in c0_1's fanout cone.
  EXPECT_FALSE(rule.can_switch_together(net("c0_1"), net("c0_2")));
  EXPECT_FALSE(rule.can_switch_together(net("c0_2"), net("c0_1")));
  // The folded output is downstream of everything.
  EXPECT_FALSE(rule.can_switch_together(net("y"), net("c1_1")));
}

TEST(ScenGen, StructuralRuleRejectsSameDriverOutputs) {
  // A hand-built two-output cell: n1 and n2 are complementary outputs
  // of one instance, so they cannot be independent aggressors of each
  // other.  The rule only needs netlist + drives, no library.
  netlist::Netlist nl;
  netlist::Instance dual;
  dual.name = "u0";
  dual.cell = "DUALOUT";
  dual.pins = {{"A", "n0"}, {"Y1", "n1"}, {"Y2", "n2"}};
  nl.add_instance(dual);
  const auto drives = [](const netlist::Instance&, const std::string& pin) {
    return pin[0] == 'Y';
  };
  const StructuralCorrelationRule rule(nl, drives);
  const auto net = [&](const char* name) { return nl.net_ordinal(name); };
  EXPECT_EQ(nl.driver_of(net("n1"), drives), nl.driver_of(net("n2"), drives));
  EXPECT_NE(nl.driver_of(net("n1"), drives), nullptr);
  EXPECT_EQ(nl.driver_of(net("n0"), drives), nullptr);  // input net
  EXPECT_FALSE(rule.can_switch_together(net("n1"), net("n2")));
  EXPECT_FALSE(rule.can_switch_together(net("n2"), net("n1")));
  // Input vs output is causal, not same-driver — still rejected.
  EXPECT_FALSE(rule.can_switch_together(net("n0"), net("n1")));
}

TEST(ScenGen, SpaceBuilderExtractsBaselineWindows) {
  auto f = statest::random_engine(17);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  const auto space = sta::make_scenario_space(
      *f.sta, *f.netlist, candidates, drives, {0.0}, {0.25});
  ASSERT_FALSE(space.pairs.empty());
  EXPECT_EQ(space.vdd, vcl013().nom_voltage);
  for (const auto& pair : space.pairs) {
    EXPECT_GT(pair.victim_slew, 0.0);
    EXPECT_LE(pair.aggressor_window_lo, pair.aggressor_window_hi);
    EXPECT_GT(pair.coupling_scale, 0.0);
    // The victim anchor is a real falling sink transition of the net.
    bool matched = false;
    for (const auto& ref : f.netlist->pins_on_net(pair.victim_name)) {
      if (drives(*ref.instance, ref.pin)) continue;
      const auto id = f.sta->find_pin(ref.instance->name + "/" + ref.pin);
      if (!id.valid()) continue;
      const auto& t = f.sta->timing(id, sta::RiseFall::kFall);
      if (t.valid && bits(t.arrival) == bits(pair.victim_arrival) &&
          bits(t.slew) == bits(pair.victim_slew)) {
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << "victim " << pair.victim_name;
  }

  // A victim with no instance sink (the output port net) yields no pair.
  const interconnect::CouplingCandidate bad{
      f.netlist->net_ordinal(f.netlist->ports().back().name),
      f.netlist->net_ordinal(space.pairs.front().victim_name), 100e-15};
  const auto none = sta::make_scenario_space(
      *f.sta, *f.netlist, std::span(&bad, 1), drives, {0.0}, {0.25});
  EXPECT_TRUE(none.pairs.empty());
}

/// Shared scaffolding of the generated-vs-eager comparisons: builds the
/// engine, space and rule, runs the generated sweep, and eagerly
/// enumerates the same surviving candidates through sweep().
struct GeneratedVsEager {
  statest::EngineFixture fixture;
  sta::DrivesPredicate drives;
  std::unique_ptr<StructuralCorrelationRule> rule;
  ScenarioSpace space;

  explicit GeneratedVsEager(uint64_t seed, size_t max_candidates,
                            std::vector<double> alignments,
                            std::vector<double> strengths, int inputs = 6,
                            int layers = 5, int layer_width = 7)
      : fixture(statest::random_engine(seed, inputs, layers, layer_width)),
        drives(sta::make_drives_predicate(vcl013())) {
    fixture.sta->run();
    rule = std::make_unique<StructuralCorrelationRule>(*fixture.netlist,
                                                       drives);
    auto candidates =
        interconnect::infer_coupling_candidates(*fixture.netlist);
    if (candidates.size() > max_candidates) {
      candidates.resize(max_candidates);
    }
    space = sta::make_scenario_space(*fixture.sta, *fixture.netlist,
                                     candidates, drives,
                                     std::move(alignments),
                                     std::move(strengths));
  }

  /// Eagerly enumerates every feasible candidate into one SweepSpec.
  sta::SweepSpec eager_spec(std::vector<sta::Corner> corners,
                            std::vector<uint64_t>* survivors) const {
    sta::SweepSpec spec;
    spec.corners = std::move(corners);
    spec.endpoint_only = true;
    spec.threads = 4;
    ScenarioGenerator gen(space, rule.get());
    while (const auto c = gen.next()) {
      spec.scenarios.push_back(gen.materialize(*c));
      survivors->push_back(c->index);
    }
    return spec;
  }
};

TEST(ScenGen, GeneratedSweepBitwiseEqualsEagerEnumeration) {
  GeneratedVsEager h(11, 60, {-40e-12, -10e-12, 0.0, 25e-12, 60e-12},
                     {0.15, 0.3, 0.45});
  const std::vector<sta::Corner> corners = {
      sta::Corner{}, sta::Corner{"slow", 1.05, 1.02, 1.1}};

  GeneratedSweepSpec gspec;
  gspec.space = h.space;
  gspec.correlation = h.rule.get();
  gspec.corners = corners;
  gspec.threads = 4;
  gspec.gen_chunk = 16;  // several chunks
  gspec.prune = PruneMode::kOff;
  const auto gr = h.fixture.sta->sweep(gspec);

  std::vector<uint64_t> survivors;
  auto espec = h.eager_spec(corners, &survivors);
  ASSERT_FALSE(survivors.empty());
  const auto er = h.fixture.sta->sweep(espec);

  // With pruning off every survivor is evaluated on both paths; each
  // (candidate, corner) slack must agree bitwise.
  ASSERT_EQ(gr.points().size(), er.size());
  EXPECT_EQ(gr.gen_stats().evaluated + gr.gen_stats().reused,
            static_cast<uint64_t>(er.size()));
  for (const auto& rec : gr.points()) {
    const auto it =
        std::lower_bound(survivors.begin(), survivors.end(), rec.candidate);
    ASSERT_TRUE(it != survivors.end() && *it == rec.candidate);
    const auto scenario =
        static_cast<size_t>(std::distance(survivors.begin(), it));
    const size_t p = er.point(rec.corner, scenario);
    EXPECT_EQ(bits(rec.worst_slack), bits(er.worst_slack(p)));
  }
  // And the argmin (value, point AND tie-break) is the eager one.
  const auto ewp = er.worst_point();
  EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack));
  EXPECT_EQ(gr.worst_point().candidate, survivors[ewp.scenario]);
  EXPECT_EQ(gr.worst_point().corner, ewp.corner);
  EXPECT_EQ(gr.worst_point().scenario_name, er.scenario_name(ewp.scenario));
}

TEST(ScenGen, GeneratedSweepWithPruningStaysExact) {
  GeneratedVsEager h(23, 80, {-30e-12, 0.0, 15e-12, 45e-12},
                     {0.1, 0.25, 0.4});
  const std::vector<sta::Corner> corners = {sta::Corner{}};

  GeneratedSweepSpec gspec;
  gspec.space = h.space;
  gspec.correlation = h.rule.get();
  gspec.corners = corners;
  gspec.threads = 4;
  gspec.gen_chunk = 24;
  gspec.prune = PruneMode::kSafe;
  const auto gr = h.fixture.sta->sweep(gspec);

  std::vector<uint64_t> survivors;
  auto espec = h.eager_spec(corners, &survivors);
  espec.prune = PruneMode::kSafe;
  ASSERT_FALSE(survivors.empty());
  const auto er = h.fixture.sta->sweep(espec);

  const auto ewp = er.worst_point();
  EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack));
  EXPECT_EQ(gr.worst_point().candidate, survivors[ewp.scenario]);
  EXPECT_EQ(gr.worst_point().corner, ewp.corner);

  // Funnel bookkeeping: every generated point is accounted to exactly
  // one stage, and cross-chunk seeding never over-prunes the argmin.
  const auto& g = gr.gen_stats();
  EXPECT_EQ(g.generated, gr.num_corners() * h.space.size());
  EXPECT_EQ(g.generated, g.window_killed + g.correlation_killed +
                             g.prune_killed + g.reused + g.evaluated);
  EXPECT_EQ(g.evaluated + g.reused + g.prune_killed,
            gr.num_corners() * survivors.size());
}

TEST(ScenGen, PruneSeedSlackKeepsWorstPointExact) {
  auto f = statest::random_engine(3);
  const auto scenarios = statest::random_scenarios(f, 24);

  sta::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.endpoint_only = true;
  spec.prune = PruneMode::kSafe;
  spec.threads = 4;
  const auto base = f.sta->sweep(spec);
  const auto base_wp = base.worst_point();

  // Seeding with the attained worst slack may prune more, but the
  // argmin (strict `bound > worst_seen` admission) is untouched.
  sta::SweepSpec seeded = spec;
  seeded.prune_seed_slack = base_wp.slack;
  const auto again = f.sta->sweep(seeded);
  const auto again_wp = again.worst_point();
  EXPECT_EQ(bits(again_wp.slack), bits(base_wp.slack));
  EXPECT_EQ(again_wp.point, base_wp.point);
  EXPECT_GE(again.prune_stats().pruned, base.prune_stats().pruned);
}

TEST(ScenGen, MillionPointFunnelStreamsInBoundedMemory) {
  GeneratedVsEager h(5, 4096, {}, {}, 12, 8, 12);
  // Grids sized to exactly 1,000,000 candidates: 125 pairs × 400
  // alignments × 20 strengths.  The alignment axis spans ±20 ns while
  // victim windows are a few hundred ps wide, so the window filter
  // kills the overwhelming majority before any waveform exists.
  ASSERT_GE(h.space.pairs.size(), 125u);
  h.space.pairs.resize(125);
  for (int a = 0; a < 400; ++a) {
    h.space.alignments.push_back(-20e-9 + 1e-10 * a);
  }
  for (int s = 0; s < 20; ++s) {
    h.space.strengths.push_back(0.05 + 0.02 * s);
  }
  ASSERT_EQ(h.space.size(), 1000000u);

  GeneratedSweepSpec gspec;
  gspec.space = h.space;
  gspec.correlation = h.rule.get();
  gspec.gen_chunk = 2048;
  gspec.prune = PruneMode::kSafe;
  gspec.keep_point_records = false;
  const auto gr = h.fixture.sta->sweep(gspec);

  const auto& g = gr.gen_stats();
  EXPECT_EQ(g.generated, 1000000u);
  EXPECT_EQ(g.generated, g.window_killed + g.correlation_killed +
                             g.prune_killed + g.reused + g.evaluated);
  // Bounded memory: never more than one chunk of scenarios resident.
  EXPECT_LE(g.peak_resident_scenarios, gspec.gen_chunk);
  EXPECT_GE(g.chunks, 1u);
  EXPECT_GT(g.window_killed, g.generated / 2);  // the filter earns its keep
  EXPECT_TRUE(gr.points().empty());             // records disabled

  // Acceptance: the worst point is bitwise the one eager enumeration
  // of the surviving candidates through sweep() finds.
  std::vector<uint64_t> survivors;
  auto espec = h.eager_spec({}, &survivors);
  espec.prune = PruneMode::kSafe;
  ASSERT_FALSE(survivors.empty());
  EXPECT_EQ(gr.num_corners() * survivors.size(),
            g.prune_killed + g.reused + g.evaluated);
  const auto er = h.fixture.sta->sweep(espec);
  const auto ewp = er.worst_point();
  EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack));
  EXPECT_EQ(gr.worst_point().candidate, survivors[ewp.scenario]);
  EXPECT_EQ(gr.worst_point().scenario_name, er.scenario_name(ewp.scenario));
}

/// The records of two generated sweeps agree bit for bit.
void expect_same_points(const sta::GeneratedSweepResult& a,
                        const sta::GeneratedSweepResult& b) {
  EXPECT_EQ(bits(a.worst_slack()), bits(b.worst_slack()));
  EXPECT_EQ(a.worst_point().candidate, b.worst_point().candidate);
  EXPECT_EQ(a.worst_point().scenario_name, b.worst_point().scenario_name);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].candidate, b.points()[i].candidate);
    EXPECT_EQ(a.points()[i].corner, b.points()[i].corner);
    EXPECT_EQ(bits(a.points()[i].worst_slack),
              bits(b.points()[i].worst_slack));
  }
}

TEST(ScenGen, CoupledBumpCachePersistsAcrossSweepsBitwiseIdentical) {
  GeneratedVsEager h(37, 40, {-20e-12, 0.0, 30e-12}, {0.2, 0.35});
  h.space.bump_shape = sta::BumpShape::kCoupledLine;

  GeneratedSweepSpec gspec;
  gspec.space = h.space;
  gspec.correlation = h.rule.get();
  gspec.threads = 2;
  gspec.gen_chunk = 16;

  // First sweep on a fresh external cache: every synthesized bump shape
  // is a miss; within-sweep reuse may already produce hits.
  sta::StaEngine& engine = *h.fixture.sta;
  sta::CoupledBumpCache cache;
  gspec.bump_cache = &cache;
  const auto r1 = engine.sweep(gspec);
  ASSERT_GT(r1.gen_stats().evaluated, 0u);
  EXPECT_GT(r1.gen_stats().bump_cache_misses, 0u);
  EXPECT_EQ(cache.stats().misses, r1.gen_stats().bump_cache_misses);
  const size_t warm = cache.size();
  EXPECT_GT(warm, 0u);

  // Second sweep over the SAME cache: every shape is already resident —
  // zero misses, hits only, and the results stay bitwise identical.
  const auto r2 = engine.sweep(gspec);
  EXPECT_EQ(r2.gen_stats().bump_cache_misses, 0u);
  EXPECT_GT(r2.gen_stats().bump_cache_hits, 0u);
  EXPECT_EQ(cache.size(), warm);
  expect_same_points(r1, r2);

  // A sweep with NO external cache owns one for the call: it simulates
  // every shape again and lands on the same bits — the cache is a pure
  // memoization.
  gspec.bump_cache = nullptr;
  const auto r3 = engine.sweep(gspec);
  EXPECT_EQ(r3.gen_stats().bump_cache_misses,
            r1.gen_stats().bump_cache_misses);
  expect_same_points(r1, r3);

  // The corner passes of one call share its store: a corner that
  // derates only wire delay keeps every victim slew, so its re-windowed
  // pass needs the shapes the nominal pass already simulated.
  const std::vector<sta::Corner> corners = {
      sta::Corner{}, sta::Corner{"wire", 1.0, 1.0, 1.3}};
  gspec.corners = corners;
  gspec.per_corner_windows = true;
  const auto both = engine.sweep(gspec);
  uint64_t misses_alone = 0;
  for (const auto& corner : corners) {
    gspec.corners = {corner};
    misses_alone += engine.sweep(gspec).gen_stats().bump_cache_misses;
  }
  EXPECT_GT(both.gen_stats().bump_cache_misses, 0u);
  EXPECT_LT(both.gen_stats().bump_cache_misses, misses_alone);

  // Funnel identity never counts cache traffic.
  const auto& g = r2.gen_stats();
  EXPECT_EQ(g.generated, g.window_killed + g.correlation_killed +
                             g.set_killed + g.prune_killed + g.reused +
                             g.evaluated);
}

// The bump store compares the whole testbench, not its hash: two
// testbenches differing in one field are two entries, and the same
// testbench again is a hit.
TEST(ScenGen, CoupledBumpStoreKeysOnTheExactTestbench) {
  ScenarioSpace a = tiny_space();
  a.bump_shape = sta::BumpShape::kCoupledLine;
  a.pairs.resize(1);
  a.alignments = {0.0};
  a.strengths = {0.2};
  ScenarioSpace b = a;
  b.coupled_pair.hold_resistance *= 2.0;
  interconnect::CoupledBumpOptions opts = a.coupled_bump;
  opts.transition = a.pairs[0].victim_slew;
  const auto key_a = sta::coupled_bump_key(a.coupled_pair, opts);
  const auto key_b = sta::coupled_bump_key(b.coupled_pair, opts);
  EXPECT_FALSE(key_a == key_b);
  EXPECT_FALSE(key_a == key_a.scaled_by(1.0));
  EXPECT_TRUE(key_a.scaled_by(0.2) == key_a.scaled_by(0.2));

  sta::CoupledBumpCache cache;
  const auto first = [&](const ScenarioSpace& space) {
    ScenarioGenerator gen(space, nullptr, &cache);
    const auto c = gen.next();
    EXPECT_TRUE(c.has_value());
    return gen.materialize(*c);
  };
  const auto sa = first(a);
  EXPECT_EQ(cache.size(), 2u);  // unit shape + scaled shape
  const auto sb = first(b);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto& wa = sa.entries.front().annotation.waveform;
  const auto& wb = sb.entries.front().annotation.waveform;
  bool differ = false;
  for (size_t n = 0; n < wa.size(); ++n) {
    differ = differ || bits(wa.value(n)) != bits(wb.value(n));
  }
  EXPECT_TRUE(differ);

  const auto again = first(a);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().hits, 1u);  // the scaled shape, found whole
  EXPECT_EQ(again.entries.front().annotation.key,
            sa.entries.front().annotation.key);
}

/// SGDP behind a recorder: every fit's whole input — noisy, clean-in
/// and clean-out waveform bits and both polarities, so the arc, load,
/// arrival and slew too — is recorded, and a second fit of the same
/// input counted.
class CountingMethod final : public core::EquivalentWaveformMethod {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "counting";
  }
  [[nodiscard]] core::Fit fit(const core::MethodInput& in) const override {
    std::vector<uint64_t> input;
    for (const wave::WaveView w :
         {in.noisy_wave(), in.noiseless_in_wave(), in.noiseless_out_wave()}) {
      input.push_back(w.size());
      for (const double t : w.time) input.push_back(bits(t));
      for (const double v : w.value) input.push_back(bits(v));
    }
    input.push_back(static_cast<uint64_t>(in.in_polarity));
    input.push_back(static_cast<uint64_t>(in.out_polarity));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++fits_;
      if (!seen_.insert(std::move(input)).second) ++repeats_;
    }
    return inner_.fit(in);
  }
  [[nodiscard]] bool needs_noiseless() const noexcept override {
    return inner_.needs_noiseless();
  }
  [[nodiscard]] std::unique_ptr<core::EquivalentWaveformMethod> clone()
      const override {
    return std::make_unique<CountingMethod>();
  }
  [[nodiscard]] size_t fits() const { return fits_; }
  [[nodiscard]] size_t repeats() const { return repeats_; }

 private:
  core::SgdpMethod inner_;
  mutable std::mutex mutex_;
  mutable std::set<std::vector<uint64_t>> seen_;
  mutable size_t fits_ = 0;
  mutable size_t repeats_ = 0;
};

// A compound event's victim waveform is bitwise a singleton's from an
// earlier chunk; one generated sweep fits it once.  Serial, so no two
// workers can race to fit the same input.
TEST(ScenGen, GeneratedSweepFitsEachInputOnce) {
  GeneratedVsEager h(37, 40, {-20e-12, 0.0, 30e-12}, {0.2, 0.35});
  h.space.bump_shape = sta::BumpShape::kCoupledLine;
  h.space.max_aggressors = 2;
  const CountingMethod counting;

  GeneratedSweepSpec gspec;
  gspec.space = h.space;
  gspec.correlation = h.rule.get();
  gspec.threads = 1;
  gspec.gen_chunk = 7;
  gspec.prune = PruneMode::kOff;
  gspec.method = &counting;
  const auto gr = h.fixture.sta->sweep(gspec);
  ASSERT_GT(gr.gen_stats().chunks, 2u);
  ASSERT_GT(gr.gen_stats().evaluated, 0u);
  EXPECT_GT(counting.fits(), 0u);
  EXPECT_EQ(counting.repeats(), 0u) << "of " << counting.fits() << " fits";
}

// A coupled-line bump is sampled on the victim ramp's shifted grid by
// one merge scan; every sample must equal the point-by-point
// Waveform::at reference bit for bit, including the grid times that
// fall outside the bump's span and clamp flat.
TEST(ScenGen, CoupledBumpMaterializeMatchesPointwiseAt) {
  ScenarioSpace space = tiny_space();
  space.bump_shape = sta::BumpShape::kCoupledLine;
  space.alignments = {-150e-12, 0.0, 35e-12};
  space.pairs[1].coupling_scale = 0.6;
  ScenarioGenerator gen(space);
  size_t checked = 0;
  size_t clamped = 0;
  while (const auto c = gen.next()) {
    const auto members = space.event_members(c->pair);
    ASSERT_EQ(members.size(), 1u);
    const auto& pair = space.pairs[members[0]];
    interconnect::CoupledLinePair bench = space.coupled_pair;
    bench.cm_total *= pair.coupling_scale;
    interconnect::CoupledBumpOptions opts = space.coupled_bump;
    opts.transition = pair.victim_slew;
    const wave::Waveform unit = interconnect::coupled_bump_shape(bench, opts);
    const double amp =
        space.strengths[c->strength] * pair.coupling_scale;  // falling: +
    std::vector<double> scaled(unit.values().begin(), unit.values().end());
    for (auto& x : scaled) x *= amp;
    const wave::Waveform bump(
        std::vector<double>(unit.times().begin(), unit.times().end()),
        std::move(scaled));
    const auto clean = wave::Ramp::from_arrival_slew(
                           pair.victim_arrival, pair.victim_slew, space.vdd)
                           .denormalized(space.polarity,
                                         space.waveform_samples);
    const double center =
        pair.victim_arrival + space.alignments[c->alignment];

    const auto s = gen.materialize(*c);
    const auto* got = s.find(pair.victim_name);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->waveform.size(), clean.size());
    for (size_t n = 0; n < clean.size(); ++n) {
      const double x = clean.time(n) - center;
      if (x <= bump.t_begin() || x >= bump.t_end()) ++clamped;
      ASSERT_EQ(bits(got->waveform.value(n)),
                bits(clean.value(n) + bump.at(x)))
          << s.name << " sample " << n;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 2u * 3u * 4u);
  EXPECT_GT(clamped, 0u);
}

TEST(ScenGen, EmptyFunnelThrowsOnWorstPoint) {
  GeneratedSweepSpec gspec;
  gspec.space = tiny_space();
  const RejectAllRule reject;
  gspec.correlation = &reject;

  auto f = statest::random_engine(29);
  const auto gr = f.sta->sweep(gspec);
  EXPECT_EQ(gr.gen_stats().correlation_killed, gr.gen_stats().generated);
  EXPECT_THROW((void)gr.worst_slack(), util::Error);
  EXPECT_THROW((void)gr.worst_point(), util::Error);
}

/// Expects `f` to throw util::Error whose message contains `needle`
/// (the offending field and value).
template <class F>
void expect_rejected(F&& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "accepted; expected an error naming '" << needle << "'";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ScenGen, GeneratorRejectsNonFiniteOrNegativeWindowSlop) {
  // A NaN slop makes every window comparison false, so without the
  // check no candidate would ever be window-killed.
  ScenarioSpace space = tiny_space();
  space.window_slop = kNaN;
  expect_rejected([&] { ScenarioGenerator gen(space); }, "window_slop nan");
  space.window_slop = std::numeric_limits<double>::infinity();
  expect_rejected([&] { ScenarioGenerator gen(space); }, "window_slop inf");
  space.window_slop = -1e-12;
  expect_rejected([&] { ScenarioGenerator gen(space); }, "window_slop -1e-12");
}

TEST(ScenGen, GeneratorRejectsNonFiniteAlignment) {
  ScenarioSpace space = tiny_space();
  space.alignments[1] = kNaN;
  expect_rejected([&] { ScenarioGenerator gen(space); },
                  "alignment nan at index 1");
}

TEST(ScenGen, GeneratorRejectsNonFiniteStrength) {
  ScenarioSpace space = tiny_space();
  space.strengths[2] = -std::numeric_limits<double>::infinity();
  expect_rejected([&] { ScenarioGenerator gen(space); },
                  "strength -inf at index 2");
}

TEST(ScenGen, GeneratorRejectsTooFewWaveformSamples) {
  ScenarioSpace space = tiny_space();
  space.waveform_samples = 1;
  expect_rejected([&] { ScenarioGenerator gen(space); },
                  "waveform_samples 1 is below 2");
}

TEST(ScenGen, SpaceBuilderRejectsMalformedOptions) {
  auto f = statest::random_engine(17);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  const auto build = [&](const sta::ScenarioSpaceOptions& options) {
    (void)sta::make_scenario_space(*f.sta, *f.netlist, candidates, drives,
                                   {0.0}, {0.25}, options);
  };
  sta::ScenarioSpaceOptions options;
  options.window_slop = kNaN;
  expect_rejected([&] { build(options); }, "window_slop nan");
  options.window_slop = -5e-12;
  expect_rejected([&] { build(options); }, "window_slop -5e-12");
  options.window_slop = 0.0;
  options.waveform_samples = 0;
  expect_rejected([&] { build(options); }, "waveform_samples 0 is below 2");
}

}  // namespace
}  // namespace waveletic
