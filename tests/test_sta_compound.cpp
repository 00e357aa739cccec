/// \file test_sta_compound.cpp
/// Randomized property layer over the compound-aggressor scenario
/// funnel: event enumeration vs explicit subset listing over random
/// space shapes, decode/encode roundtrips, bitwise identity of the
/// k = 1 space against a reference reimplementation of the legacy
/// single-aggressor funnel, superposed compound scenarios against
/// hand-built NoiseScenarios (Gaussian and coupled-line shapes), the
/// set-level correlation stage against a manual replay of the pairwise
/// lift, the streamed-vs-eager compound oracle across chunk sizes and
/// thread counts, per-corner re-windowing against its manual
/// composition, and the million-point bounded-memory guarantee.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "interconnect/coupled.hpp"
#include "sta/scengen.hpp"
#include "sta_test_util.hpp"
#include "util/rng.hpp"
#include "wave/ramp.hpp"

namespace waveletic {
namespace {

using sta::CorrelationRule;
using sta::GeneratedSweepSpec;
using sta::GenStats;
using sta::NoiseScenario;
using sta::PruneMode;
using sta::ScenarioGenerator;
using sta::ScenarioPair;
using sta::ScenarioSpace;
using sta::StructuralCorrelationRule;
using statest::vcl013;

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Reference binomial for the property checks (small n only).
uint64_t choose_ref(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t r = 1;
  for (uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// A space of `n` pairs whose every candidate is window-feasible.
ScenarioSpace wide_space(int n, size_t alignments, size_t strengths,
                         int max_aggressors) {
  ScenarioSpace space;
  for (int p = 0; p < n; ++p) {
    ScenarioPair pair;
    pair.victim_net = p;
    pair.aggressor_net = n + p;
    pair.victim_name = "v" + std::to_string(p);
    pair.aggressor_name = "g" + std::to_string(p);
    pair.victim_arrival = 1e-9;
    pair.victim_slew = 100e-12;
    pair.aggressor_window_lo = 0.0;
    pair.aggressor_window_hi = 2e-9;
    space.pairs.push_back(pair);
  }
  for (size_t a = 0; a < alignments; ++a) {
    space.alignments.push_back(-20e-12 + 10e-12 * static_cast<double>(a));
  }
  for (size_t s = 0; s < strengths; ++s) {
    space.strengths.push_back(0.1 + 0.05 * static_cast<double>(s));
  }
  space.max_aggressors = max_aggressors;
  return space;
}

/// Deterministic pseudo-random pairwise rule: rejects roughly 1/8 of
/// the net pairs, keyed by (salt, victim, aggressor).
class HashPairRule : public CorrelationRule {
 public:
  explicit HashPairRule(uint64_t salt) : salt_(salt) {}
  [[nodiscard]] const char* name() const noexcept override { return "hash"; }
  [[nodiscard]] bool can_switch_together(int32_t victim_net,
                                         int32_t aggressor_net)
      const override {
    uint64_t x = salt_ ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(victim_net))
                  << 32) ^
                 static_cast<uint32_t>(aggressor_net);
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    return (x & 7) != 0;
  }

 private:
  uint64_t salt_;
};

/// HashPairRule plus a genuinely set-level constraint: at most
/// `max_set` simultaneous aggressors.
class SetBudgetRule final : public HashPairRule {
 public:
  SetBudgetRule(uint64_t salt, size_t max_set)
      : HashPairRule(salt), max_set_(max_set) {}
  [[nodiscard]] bool can_switch_set(
      std::span<const int32_t> victim_nets,
      std::span<const int32_t> /*aggressor_nets*/) const override {
    return victim_nets.size() <= max_set_;
  }

 private:
  size_t max_set_;
};

TEST(Compound, EventEnumerationMatchesExplicitSubsetsOnRandomShapes) {
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 1 + static_cast<int>(rng.next() % 10);
    const int k_max = 1 + static_cast<int>(rng.next() % 4);
    const auto space = wide_space(n, 1 + rng.next() % 4, 1 + rng.next() % 3,
                                  k_max);
    // Explicitly list every k-subset, singletons first, each k-block in
    // lexicographic combination order — the documented event order.
    std::vector<std::vector<uint32_t>> expected;
    const int k_limit = std::min(k_max, n);
    for (int k = 1; k <= k_limit; ++k) {
      std::vector<uint32_t> subset(static_cast<size_t>(k));
      const auto emit = [&](auto&& self, int slot, uint32_t from) -> void {
        if (slot == k) {
          expected.push_back(subset);
          return;
        }
        for (uint32_t m = from; m < static_cast<uint32_t>(n); ++m) {
          subset[static_cast<size_t>(slot)] = m;
          self(self, slot + 1, m + 1);
        }
      };
      emit(emit, 0, 0);
    }
    uint64_t count = 0;
    for (int k = 1; k <= k_limit; ++k) {
      count += choose_ref(static_cast<uint64_t>(n), static_cast<uint64_t>(k));
    }
    ASSERT_EQ(expected.size(), count);
    ASSERT_EQ(space.num_events(), count) << "n=" << n << " k=" << k_max;
    for (uint64_t e = 0; e < count; ++e) {
      EXPECT_EQ(space.event_members(e), expected[static_cast<size_t>(e)])
          << "n=" << n << " k=" << k_max << " event=" << e;
    }
    EXPECT_THROW((void)space.event_members(count), util::Error);
  }
}

TEST(Compound, DecodeEncodeRoundtripOnRandomShapes) {
  util::Rng rng(0xDEC0DE);
  for (int trial = 0; trial < 24; ++trial) {
    const auto space =
        wide_space(1 + static_cast<int>(rng.next() % 9),
                   1 + rng.next() % 5, 1 + rng.next() % 4,
                   1 + static_cast<int>(rng.next() % 4));
    const uint64_t total = space.size();
    ASSERT_EQ(total, space.num_events() * space.alignments.size() *
                         space.strengths.size());
    for (int probe = 0; probe < 32; ++probe) {
      const uint64_t i = probe == 0 ? 0
                         : probe == 1 ? total - 1
                                      : rng.next() % total;
      const auto c = space.decode(i);
      EXPECT_LT(c.pair, space.num_events());
      EXPECT_LT(c.alignment, space.alignments.size());
      EXPECT_LT(c.strength, space.strengths.size());
      EXPECT_EQ(space.encode(c), i);
    }
    EXPECT_THROW((void)space.decode(total), util::Error);
  }
}

TEST(Compound, SingletonSpaceBitwiseMatchesLegacyReferenceFunnel) {
  // The k = 1 space must reproduce the historical single-aggressor
  // generator bit for bit: same survivor stream, same funnel counters,
  // same materialized waveforms, same worst point.  The reference here
  // is an independent reimplementation of the legacy funnel loop.
  auto f = statest::random_engine(41);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const StructuralCorrelationRule rule(*f.netlist, drives);
  auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  if (candidates.size() > 40) candidates.resize(40);
  const auto space = sta::make_scenario_space(
      *f.sta, *f.netlist, candidates, drives,
      {-30e-12, 0.0, 20e-12, 50e-12}, {0.1, 0.25, 0.4});
  ASSERT_FALSE(space.pairs.empty());
  ASSERT_EQ(space.max_aggressors, 1);  // the compound default stays legacy
  ASSERT_EQ(space.num_events(), space.pairs.size());

  // Reference funnel: lexicographic (pair, alignment, strength) with
  // whole-strength-block kills, window stage before correlation stage.
  ScenarioGenerator probe(space);  // window oracle only; never drained
  GenStats expected;
  std::vector<uint64_t> exp_survivors;
  const uint64_t n_s = space.strengths.size();
  for (uint32_t p = 0; p < space.pairs.size(); ++p) {
    for (uint32_t a = 0; a < space.alignments.size(); ++a) {
      expected.generated += n_s;
      if (!probe.window_feasible(p, a)) {
        expected.window_killed += n_s;
        continue;
      }
      if (!rule.can_switch_together(space.pairs[p].victim_net,
                                    space.pairs[p].aggressor_net)) {
        expected.correlation_killed += n_s;
        continue;
      }
      for (uint32_t s = 0; s < n_s; ++s) {
        exp_survivors.push_back(space.encode({p, a, s}));
      }
    }
  }
  ASSERT_FALSE(exp_survivors.empty());

  ScenarioGenerator gen(space, &rule);
  std::vector<NoiseScenario> scenarios;
  std::vector<uint64_t> got_survivors;
  while (const auto c = gen.next()) {
    got_survivors.push_back(c->index);
    scenarios.push_back(gen.materialize(*c));
  }
  EXPECT_EQ(got_survivors, exp_survivors);
  EXPECT_EQ(gen.stats().generated, expected.generated);
  EXPECT_EQ(gen.stats().window_killed, expected.window_killed);
  EXPECT_EQ(gen.stats().correlation_killed, expected.correlation_killed);
  EXPECT_EQ(gen.stats().set_killed, 0u);

  // Each survivor materializes exactly the legacy waveform (and name).
  for (size_t i = 0; i < got_survivors.size(); ++i) {
    const auto c = space.decode(got_survivors[i]);
    const auto& pair = space.pairs[c.pair];
    const auto legacy = sta::make_aggressor_scenario(
        pair.victim_name, pair.victim_arrival, pair.victim_slew, space.vdd,
        space.polarity, space.alignments[c.alignment],
        space.strengths[c.strength] * pair.coupling_scale,
        space.waveform_samples);
    ASSERT_EQ(scenarios[i].name, legacy.name);
    ASSERT_EQ(scenarios[i].entries.size(), legacy.entries.size());
    const auto& got = scenarios[i].entries[0].annotation;
    const auto& want = legacy.entries[0].annotation;
    ASSERT_EQ(got.waveform.size(), want.waveform.size());
    for (size_t n = 0; n < want.waveform.size(); ++n) {
      EXPECT_EQ(bits(got.waveform.time(n)), bits(want.waveform.time(n)));
      EXPECT_EQ(bits(got.waveform.value(n)), bits(want.waveform.value(n)));
    }
    EXPECT_EQ(got.key, want.key);
  }

  // And the streamed sweep agrees with eagerly sweeping the legacy
  // scenarios: same worst slack, point and tie-break.
  GeneratedSweepSpec gspec;
  gspec.space = space;
  gspec.correlation = &rule;
  gspec.threads = 2;
  gspec.gen_chunk = 16;
  gspec.prune = PruneMode::kOff;
  const auto gr = f.sta->sweep(gspec);
  sta::SweepSpec espec;
  espec.scenarios = scenarios;
  espec.endpoint_only = true;
  espec.threads = 2;
  const auto er = f.sta->sweep(espec);
  const auto ewp = er.worst_point();
  EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack));
  EXPECT_EQ(gr.worst_point().candidate, exp_survivors[ewp.scenario]);
  EXPECT_EQ(gr.worst_point().scenario_name, er.scenario_name(ewp.scenario));
}

TEST(Compound, SuperposedScenarioEqualsHandBuiltGaussian) {
  // Three pairs, two of which share a victim net — the compound
  // scenario must group them into one entry per distinct victim, in
  // ascending-member first-occurrence order, superposing both bumps on
  // the shared victim's clean ramp.
  ScenarioSpace space = wide_space(3, 2, 2, 3);
  space.pairs[2].victim_net = space.pairs[0].victim_net;
  space.pairs[2].victim_name = space.pairs[0].victim_name;
  space.pairs[2].victim_arrival = space.pairs[0].victim_arrival + 7e-12;
  space.pairs[1].coupling_scale = 1.4;
  space.pairs[2].coupling_scale = 0.8;

  // Event {0, 1, 2} is the last event: 3 singletons + 3 pairs + 1.
  ASSERT_EQ(space.num_events(), 7u);
  const ScenarioSpace::Coordinates coords{6, 1, 0};
  ScenarioGenerator gen(space);
  const ScenarioGenerator::Candidate cand{space.encode(coords), coords.pair,
                                          coords.alignment, coords.strength};
  const NoiseScenario got = gen.materialize(cand);

  const double alignment = space.alignments[1];
  const double strength = space.strengths[0];
  const double sign = 1.0;  // falling victim
  NoiseScenario want;
  {
    // Victim group of members {0, 2} (anchor: member 0), then {1}.
    for (const auto& members : {std::vector<uint32_t>{0, 2},
                                std::vector<uint32_t>{1}}) {
      const auto& anchor = space.pairs[members[0]];
      const auto clean =
          wave::Ramp::from_arrival_slew(anchor.victim_arrival,
                                        anchor.victim_slew, space.vdd)
              .denormalized(space.polarity, space.waveform_samples);
      std::vector<double> t(clean.times().begin(), clean.times().end());
      std::vector<double> v(clean.values().begin(), clean.values().end());
      for (const uint32_t m : members) {
        const auto& pair = space.pairs[m];
        const double center = pair.victim_arrival + alignment;
        const double sigma = 0.5 * pair.victim_slew;
        const double amp = strength * pair.coupling_scale;
        for (size_t n = 0; n < t.size(); ++n) {
          v[n] += sign * amp *
                  std::exp(-std::pow((t[n] - center) / sigma, 2.0));
        }
      }
      want.annotate(anchor.victim_name,
                    wave::Waveform(std::move(t), std::move(v)),
                    space.polarity);
    }
  }
  ASSERT_EQ(got.entries.size(), 2u);
  for (size_t e = 0; e < 2; ++e) {
    EXPECT_EQ(got.entries[e].net, want.entries[e].net);
    const auto& gw = got.entries[e].annotation.waveform;
    const auto& ww = want.entries[e].annotation.waveform;
    ASSERT_EQ(gw.size(), ww.size());
    for (size_t n = 0; n < ww.size(); ++n) {
      EXPECT_EQ(bits(gw.time(n)), bits(ww.time(n)));
      EXPECT_EQ(bits(gw.value(n)), bits(ww.value(n)));
    }
    EXPECT_EQ(got.entries[e].annotation.key, want.entries[e].annotation.key);
  }
  // Name: '+'-joined member descriptors.
  std::string name;
  for (const uint32_t m : {0u, 1u, 2u}) {
    const auto& pair = space.pairs[m];
    std::ostringstream part;
    part << pair.victim_name << "@align=" << alignment * 1e12
         << "ps,strength=" << strength * pair.coupling_scale << "V";
    name += (m != 0 ? "+" : "") + part.str();
  }
  EXPECT_EQ(got.name, name);
}

TEST(Compound, SuperposedScenarioEqualsHandBuiltCoupledLine) {
  ScenarioSpace space = wide_space(2, 1, 2, 2);
  space.pairs[1].coupling_scale = 1.3;
  space.pairs[1].victim_slew = 80e-12;
  space.bump_shape = sta::BumpShape::kCoupledLine;
  ASSERT_STREQ(sta::to_string(space.bump_shape), "coupled_line");
  ASSERT_STREQ(sta::to_string(sta::BumpShape::kGaussian), "gaussian");

  // Event {0, 1} = index 2 (after the two singletons).
  const ScenarioSpace::Coordinates coords{2, 0, 1};
  ScenarioGenerator gen(space);
  const ScenarioGenerator::Candidate cand{space.encode(coords), coords.pair,
                                          coords.alignment, coords.strength};
  const NoiseScenario got = gen.materialize(cand);
  ASSERT_EQ(got.entries.size(), 2u);

  const double alignment = space.alignments[0];
  const double strength = space.strengths[1];
  for (uint32_t m = 0; m < 2; ++m) {
    const auto& pair = space.pairs[m];
    // The generator's testbench: the space's template with the coupling
    // cap scaled per pair and the ramp transition set to the victim
    // slew; unit shape scaled by sign × strength × coupling_scale.
    interconnect::CoupledLinePair bench = space.coupled_pair;
    bench.cm_total *= pair.coupling_scale;
    interconnect::CoupledBumpOptions opts = space.coupled_bump;
    opts.transition = pair.victim_slew;
    const auto unit = interconnect::coupled_bump_shape(bench, opts);
    // Scale-then-sample, mirroring the generator's cached scaled bump
    // (sampling the scaled waveform rounds differently from scaling
    // the sampled value).
    const double amp = strength * pair.coupling_scale;  // falling: sign +1
    std::vector<double> bt(unit.times().begin(), unit.times().end());
    std::vector<double> bv(unit.values().begin(), unit.values().end());
    for (auto& x : bv) x *= amp;
    const wave::Waveform scaled(std::move(bt), std::move(bv));
    const auto clean =
        wave::Ramp::from_arrival_slew(pair.victim_arrival, pair.victim_slew,
                                      space.vdd)
            .denormalized(space.polarity, space.waveform_samples);
    const double center = pair.victim_arrival + alignment;
    const auto& gw = got.entries[m].annotation.waveform;
    ASSERT_EQ(gw.size(), clean.size());
    for (size_t n = 0; n < clean.size(); ++n) {
      const double bump = scaled.at(clean.time(n) - center);
      EXPECT_EQ(bits(gw.value(n)), bits(clean.value(n) + bump))
          << "member " << m << " sample " << n;
    }
  }
}

TEST(Compound, SetStageOnlyFiresAfterPairwiseLiftPasses) {
  // Property: without a set-level rule, set_killed stays zero; with
  // one, exactly the events whose every member and member pair survive
  // the pairwise lift — and that the set rule rejects — land in
  // set_killed.  Verified against a manual replay of the lift.
  util::Rng rng(0x5E7F11E5);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 2 + static_cast<int>(rng.next() % 6);
    ScenarioSpace space = wide_space(n, 1 + rng.next() % 3,
                                     1 + rng.next() % 3,
                                     2 + static_cast<int>(rng.next() % 2));
    // Random net aliasing so the structural member checks fire too.
    for (auto& pair : space.pairs) {
      pair.victim_net = static_cast<int32_t>(rng.next() % (n + 2));
      pair.aggressor_net = static_cast<int32_t>(rng.next() % (n + 2));
    }
    const uint64_t salt = rng.next();
    const HashPairRule pairwise(salt);
    const SetBudgetRule budget(salt, 1);  // kills every compound set

    // Manual replay of the funnel verdict per event.
    const auto lift_passes = [&](const std::vector<uint32_t>& members) {
      for (const uint32_t m : members) {
        if (!pairwise.can_switch_together(space.pairs[m].victim_net,
                                          space.pairs[m].aggressor_net)) {
          return false;
        }
      }
      for (size_t i = 0; i + 1 < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const auto& a = space.pairs[members[i]];
          const auto& b = space.pairs[members[j]];
          if (a.aggressor_net == b.aggressor_net ||
              a.aggressor_net == b.victim_net ||
              b.aggressor_net == a.victim_net) {
            return false;
          }
          if (!pairwise.can_switch_together(a.victim_net, b.aggressor_net) ||
              !pairwise.can_switch_together(b.victim_net, a.aggressor_net) ||
              !pairwise.can_switch_together(a.aggressor_net,
                                            b.aggressor_net)) {
            return false;
          }
        }
      }
      return true;
    };
    const uint64_t cell =
        space.alignments.size() * space.strengths.size();
    GenStats expected;  // per-rule expected counters, pairwise rule
    uint64_t expected_set_killed_with_budget = 0;
    for (uint64_t e = 0; e < space.num_events(); ++e) {
      const auto members = space.event_members(e);
      expected.generated += cell;
      if (!lift_passes(members)) {
        expected.correlation_killed += cell;
      } else if (members.size() > 1) {
        expected_set_killed_with_budget += cell;
      }
    }

    // Pairwise rule only: the set stage never fires.
    ScenarioGenerator plain(space, &pairwise);
    uint64_t plain_survivors = 0;
    while (plain.next()) ++plain_survivors;
    EXPECT_EQ(plain.stats().set_killed, 0u);
    EXPECT_EQ(plain.stats().correlation_killed,
              expected.correlation_killed);
    EXPECT_EQ(plain.stats().generated, expected.generated);
    EXPECT_EQ(plain_survivors,
              expected.generated - expected.correlation_killed);

    // Budget rule: compound lift survivors move to set_killed, nothing
    // else changes — the set stage never steals from the lift.
    ScenarioGenerator budgeted(space, &budget);
    uint64_t budget_survivors = 0;
    while (budgeted.next()) ++budget_survivors;
    EXPECT_EQ(budgeted.stats().correlation_killed,
              expected.correlation_killed);
    EXPECT_EQ(budgeted.stats().set_killed,
              expected_set_killed_with_budget);
    EXPECT_EQ(budget_survivors, plain_survivors -
                                    expected_set_killed_with_budget);
  }
}

TEST(Compound, StreamedVsEagerBitwiseAcrossChunksAndThreads) {
  // The oracle: a ≤ 5k-candidate compound space, streamed through the
  // generated sweep with every (gen_chunk, threads) combination, must
  // reproduce the eager enumeration of the full surviving cross
  // product bitwise — worst slack, worst point and tie-breaks.
  auto f = statest::random_engine(31);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const StructuralCorrelationRule rule(*f.netlist, drives);
  auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  if (candidates.size() > 18) candidates.resize(18);
  ScenarioSpace space = sta::make_scenario_space(
      *f.sta, *f.netlist, candidates, drives, {-25e-12, 0.0, 30e-12, 55e-12},
      {0.12, 0.28, 0.4});
  ASSERT_GE(space.pairs.size(), 6u);
  space.max_aggressors = 2;
  ASSERT_LE(space.size(), 5000u);

  const std::vector<sta::Corner> corners = {
      sta::Corner{}, sta::Corner{"slow", 1.05, 1.02, 1.1}};

  // Eager twin: drain the generator once, sweep all survivors at once.
  std::vector<uint64_t> survivors;
  sta::SweepSpec espec;
  espec.corners = corners;
  espec.endpoint_only = true;
  espec.threads = 4;
  {
    ScenarioGenerator gen(space, &rule);
    while (const auto c = gen.next()) {
      espec.scenarios.push_back(gen.materialize(*c));
      survivors.push_back(c->index);
    }
  }
  ASSERT_FALSE(survivors.empty());
  // The compound region contributes real survivors, not just k = 1.
  ASSERT_GT(survivors.back(),
            space.pairs.size() * space.alignments.size() *
                space.strengths.size());
  const auto er = f.sta->sweep(espec);
  const auto ewp = er.worst_point();

  for (const size_t gen_chunk : {size_t{7}, size_t{64}, size_t{1024}}) {
    for (const int threads : {1, 2, 4}) {
      GeneratedSweepSpec gspec;
      gspec.space = space;
      gspec.correlation = &rule;
      gspec.corners = corners;
      gspec.threads = threads;
      gspec.gen_chunk = gen_chunk;
      gspec.prune = PruneMode::kOff;
      const auto gr = f.sta->sweep(gspec);
      EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack))
          << "chunk=" << gen_chunk << " threads=" << threads;
      EXPECT_EQ(gr.worst_point().candidate, survivors[ewp.scenario]);
      EXPECT_EQ(gr.worst_point().corner, ewp.corner);
      EXPECT_EQ(gr.worst_point().scenario_name,
                er.scenario_name(ewp.scenario));
      EXPECT_LE(gr.gen_stats().peak_resident_scenarios, gen_chunk);
      // Every surviving (candidate, corner) slack agrees bitwise.
      ASSERT_EQ(gr.points().size(), er.size());
      for (const auto& rec : gr.points()) {
        const auto it = std::lower_bound(survivors.begin(), survivors.end(),
                                         rec.candidate);
        ASSERT_TRUE(it != survivors.end() && *it == rec.candidate);
        const auto s =
            static_cast<size_t>(std::distance(survivors.begin(), it));
        EXPECT_EQ(bits(rec.worst_slack),
                  bits(er.worst_slack(er.point(rec.corner, s))));
      }
      // Funnel identity, now with the set stage in the sum.
      const auto& g = gr.gen_stats();
      EXPECT_TRUE(g.check());
      EXPECT_EQ(g.generated, corners.size() * space.size());
    }
  }

  // Pruning on stays exact too (worst point only; prune kills records).
  GeneratedSweepSpec pruned;
  pruned.space = space;
  pruned.correlation = &rule;
  pruned.corners = corners;
  pruned.threads = 4;
  pruned.gen_chunk = 64;
  pruned.prune = PruneMode::kSafe;
  const auto pr = f.sta->sweep(pruned);
  EXPECT_EQ(bits(pr.worst_slack()), bits(ewp.slack));
  EXPECT_EQ(pr.worst_point().candidate, survivors[ewp.scenario]);
  EXPECT_TRUE(pr.gen_stats().check());
}

TEST(Compound, PerCornerWindowsMatchManualComposition) {
  auto f = statest::random_engine(53);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const StructuralCorrelationRule rule(*f.netlist, drives);
  auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  if (candidates.size() > 24) candidates.resize(24);
  ScenarioSpace space = sta::make_scenario_space(
      *f.sta, *f.netlist, candidates, drives, {-20e-12, 0.0, 40e-12},
      {0.15, 0.3});
  ASSERT_FALSE(space.pairs.empty());
  space.max_aggressors = 2;

  // Identity corner: re-windowing reproduces the engine-baseline
  // windows bitwise (x · 1.0 == x).
  const auto identity =
      sta::rewindow_scenario_space(*f.sta, sta::Corner{}, space);
  ASSERT_EQ(identity.pairs.size(), space.pairs.size());
  for (size_t p = 0; p < space.pairs.size(); ++p) {
    EXPECT_EQ(bits(identity.pairs[p].victim_arrival),
              bits(space.pairs[p].victim_arrival));
    EXPECT_EQ(bits(identity.pairs[p].victim_slew),
              bits(space.pairs[p].victim_slew));
    EXPECT_EQ(bits(identity.pairs[p].aggressor_window_lo),
              bits(space.pairs[p].aggressor_window_lo));
    EXPECT_EQ(bits(identity.pairs[p].aggressor_window_hi),
              bits(space.pairs[p].aggressor_window_hi));
  }
  // Hand-built pairs (no stored pins) keep their windows verbatim.
  {
    ScenarioSpace hand = wide_space(2, 2, 2, 1);
    const auto kept =
        sta::rewindow_scenario_space(*f.sta, sta::Corner{}, hand);
    for (size_t p = 0; p < hand.pairs.size(); ++p) {
      EXPECT_EQ(bits(kept.pairs[p].aggressor_window_lo),
                bits(hand.pairs[p].aggressor_window_lo));
      EXPECT_EQ(bits(kept.pairs[p].aggressor_window_hi),
                bits(hand.pairs[p].aggressor_window_hi));
    }
  }

  // A derated corner moves the windows; the per-corner sweep must equal
  // the manual composition: per corner, re-window + single-corner
  // stream, then fold funnels and take the corner-major argmin.
  const std::vector<sta::Corner> corners = {
      sta::Corner{}, sta::Corner{"slow", 1.08, 1.04, 1.15}};
  GeneratedSweepSpec gspec;
  gspec.space = space;
  gspec.correlation = &rule;
  gspec.corners = corners;
  gspec.threads = 2;
  gspec.gen_chunk = 32;
  gspec.prune = PruneMode::kOff;
  gspec.per_corner_windows = true;
  const auto gr = f.sta->sweep(gspec);

  GenStats manual;
  std::optional<sta::GeneratedSweepResult::WorstPoint> manual_worst;
  for (size_t c = 0; c < corners.size(); ++c) {
    GeneratedSweepSpec one;
    one.space = sta::rewindow_scenario_space(*f.sta, corners[c], space);
    one.correlation = &rule;
    one.corners = {corners[c]};
    one.threads = 2;
    one.gen_chunk = 32;
    one.prune = PruneMode::kOff;
    const auto r1 = f.sta->sweep(one);
    const auto& g1 = r1.gen_stats();
    manual.generated += g1.generated;
    manual.window_killed += g1.window_killed;
    manual.correlation_killed += g1.correlation_killed;
    manual.set_killed += g1.set_killed;
    manual.evaluated += g1.evaluated;
    manual.reused += g1.reused;
    auto wp = r1.worst_point();
    wp.corner = c;
    const bool better =
        !manual_worst.has_value() || wp.slack < manual_worst->slack ||
        (wp.slack == manual_worst->slack &&
         wp.candidate < manual_worst->candidate);
    if (better) manual_worst = wp;
  }
  const auto& g = gr.gen_stats();
  EXPECT_TRUE(g.check());
  EXPECT_EQ(g.generated, manual.generated);
  EXPECT_EQ(g.window_killed, manual.window_killed);
  EXPECT_EQ(g.correlation_killed, manual.correlation_killed);
  EXPECT_EQ(g.set_killed, manual.set_killed);
  EXPECT_EQ(g.evaluated, manual.evaluated);
  EXPECT_EQ(g.reused, manual.reused);
  ASSERT_TRUE(manual_worst.has_value());
  EXPECT_EQ(bits(gr.worst_slack()), bits(manual_worst->slack));
  EXPECT_EQ(gr.worst_point().candidate, manual_worst->candidate);
  EXPECT_EQ(gr.worst_point().corner, manual_worst->corner);
  EXPECT_EQ(gr.worst_point().scenario_name, manual_worst->scenario_name);
}

TEST(Compound, MillionPointCompoundSpaceStreamsInBoundedMemory) {
  auto f = statest::random_engine(7, 12, 8, 12);
  f.sta->run();
  const auto drives = sta::make_drives_predicate(vcl013());
  const StructuralCorrelationRule rule(*f.netlist, drives);
  auto candidates = interconnect::infer_coupling_candidates(*f.netlist);
  ASSERT_GE(candidates.size(), 46u);
  candidates.resize(46);
  ScenarioSpace space = sta::make_scenario_space(
      *f.sta, *f.netlist, candidates, drives, {}, {});
  ASSERT_GE(space.pairs.size(), 46u);
  space.pairs.resize(46);
  space.max_aggressors = 2;
  // 46 + C(46,2) = 1081 events × 31 alignments × 30 strengths.
  for (int a = 0; a < 31; ++a) {
    space.alignments.push_back(-15e-9 + 1e-9 * a);
  }
  for (int s = 0; s < 30; ++s) {
    space.strengths.push_back(0.05 + 0.01 * s);
  }
  ASSERT_EQ(space.num_events(), 1081u);
  ASSERT_EQ(space.size(), 1005330u);

  GeneratedSweepSpec gspec;
  gspec.space = space;
  gspec.correlation = &rule;
  gspec.gen_chunk = 1024;
  gspec.threads = 4;
  gspec.prune = PruneMode::kSafe;
  gspec.keep_point_records = false;
  const auto gr = f.sta->sweep(gspec);

  const auto& g = gr.gen_stats();
  EXPECT_EQ(g.generated, space.size());
  EXPECT_TRUE(g.check());
  EXPECT_LE(g.peak_resident_scenarios, gspec.gen_chunk);
  EXPECT_GE(g.chunks, 1u);
  // The pre-waveform filters carry the scale: most of the million
  // candidates die before any waveform exists.
  EXPECT_GT(g.window_killed + g.correlation_killed + g.set_killed,
            g.generated / 2);

  // Eager oracle over the survivors, across thread counts.
  std::vector<uint64_t> survivors;
  sta::SweepSpec espec;
  espec.endpoint_only = true;
  espec.prune = PruneMode::kSafe;
  {
    ScenarioGenerator gen(space, &rule);
    while (const auto c = gen.next()) {
      espec.scenarios.push_back(gen.materialize(*c));
      survivors.push_back(c->index);
    }
  }
  ASSERT_FALSE(survivors.empty());
  EXPECT_EQ(g.prune_killed + g.reused + g.evaluated, survivors.size());
  for (const int threads : {1, 2, 4}) {
    espec.threads = threads;
    const auto er = f.sta->sweep(espec);
    const auto ewp = er.worst_point();
    EXPECT_EQ(bits(gr.worst_slack()), bits(ewp.slack)) << threads;
    EXPECT_EQ(gr.worst_point().candidate, survivors[ewp.scenario]);
    EXPECT_EQ(gr.worst_point().scenario_name,
              er.scenario_name(ewp.scenario));
  }
}

TEST(Compound, GenStatsCheckCatchesFunnelDrift) {
  GenStats g;
  EXPECT_TRUE(g.check());  // all-zero funnel balances
  g.generated = 100;
  g.window_killed = 60;
  g.correlation_killed = 20;
  g.set_killed = 5;
  g.prune_killed = 7;
  g.reused = 3;
  g.evaluated = 5;
  EXPECT_TRUE(g.check());
  g.set_killed = 4;  // one candidate vanishes from the funnel
  EXPECT_FALSE(g.check());
  g.set_killed = 5;
  g.generated = 101;  // or appears out of nowhere
  EXPECT_FALSE(g.check());
}

TEST(Compound, NonPositiveVictimSlewGaussianNamesThePair) {
  // A zero slew gives the Gaussian bump zero width: materialize() must
  // reject it naming the pair instead of emitting NaN samples.
  ScenarioSpace space = wide_space(2, 1, 1, 1);
  space.pairs[1].victim_slew = 0.0;
  ScenarioGenerator gen(space);
  const ScenarioSpace::Coordinates coords{1, 0, 0};
  const ScenarioGenerator::Candidate cand{space.encode(coords), coords.pair,
                                          coords.alignment, coords.strength};
  try {
    (void)gen.materialize(cand);
    FAIL() << "zero victim slew accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("pair 1 (victim v1)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace waveletic
