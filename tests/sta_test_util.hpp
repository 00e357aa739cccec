#pragma once

/// \file sta_test_util.hpp
/// Shared STA test scaffolding: the once-per-process VCL013 library,
/// netlist constraint helpers, aggressor scenario builders, random
/// engine fixtures, the bitwise TimingState comparator with
/// first-divergence diagnostics, and the one sweep oracle
/// (sweep_matches_serial): every sweep path is checked point by point
/// against a serial StaEngine::evaluate() of that point.  The STA
/// suites build on this instead of copy-pasting their own builders.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "liberty/library.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "wave/ramp.hpp"

namespace waveletic::statest {

/// The VCL013 library, characterized once and shared by every suite in
/// the process (characterization is the slow part of these tests).
inline const liberty::Library& vcl013() {
  static const liberty::Library library =
      charlib::build_vcl013_library_fast();
  return library;
}

/// Standard constraints for make_chain_tree(width) netlists: staggered
/// input arrivals/slews, an output load and a required time on y.
inline void constrain_chain_tree(sta::StaEngine& sta, int width) {
  for (int i = 0; i < width; ++i) {
    sta.set_input("a" + std::to_string(i), 0.01e-9 * i,
                  (80 + 7 * i) * 1e-12);
  }
  sta.set_output_load("y", 6e-15);
  sta.set_required("y", 2e-9);
}

/// Generic constraints for any netlist (used by the random-DAG
/// fixtures): every input port gets staggered arrival/slew, every
/// output port gets a load and a required time.
inline void constrain_ports(sta::StaEngine& sta,
                            const netlist::Netlist& nl) {
  int i = 0;
  int o = 0;
  for (const auto& port : nl.ports()) {
    if (port.direction == netlist::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, 2.5e-9);
      ++o;
    }
  }
}

/// Aggressor-bump scenario on chain `chain` of a chain-tree netlist,
/// parameterized by alignment/strength (needs the clean run's victim
/// ramp).
inline sta::NoiseScenario chain_bump_scenario(const sta::StaEngine& clean,
                                              int chain, double alignment,
                                              double strength) {
  const std::string net = "c" + std::to_string(chain) + "_1";
  const auto& t = clean.timing("inv" + std::to_string(chain) + "_2/A",
                               sta::RiseFall::kFall);
  return sta::make_aggressor_scenario(net, t.arrival, t.slew,
                                      vcl013().nom_voltage,
                                      wave::Polarity::kFalling, alignment,
                                      strength);
}

/// A netlist + engine pair (the engine references the netlist, so both
/// live together).  Movable via unique_ptr members.
struct EngineFixture {
  std::unique_ptr<netlist::Netlist> netlist;
  std::unique_ptr<sta::StaEngine> sta;
};

/// Builds a constrained engine over a seed-deterministic random DAG —
/// the randomized-netlist entry point the determinism suites sweep.
inline EngineFixture random_engine(uint64_t seed, int inputs = 6,
                                   int layers = 5, int layer_width = 7) {
  EngineFixture f;
  f.netlist = std::make_unique<netlist::Netlist>(
      netlist::make_random_dag(seed, inputs, layers, layer_width));
  f.sta = std::make_unique<sta::StaEngine>(*f.netlist, vcl013());
  constrain_ports(*f.sta, *f.netlist);
  return f;
}

/// `chains` identical inverter chains a<i> → c<i>_1 → … → y<i> of
/// `length` INVX1 gates g<i>_1 … g<i>_<length> each, plus one gate on
/// a0 that drives the dangling net "dead".  Every chain is constrained
/// alike, so its output ties bitwise with every other output in the
/// baseline, and a net's fanout cone has the same size at any chain
/// count.  Outputs y0 … y<constrained − 1> get a required time; the
/// rest stay unconstrained.
inline EngineFixture parallel_chains(
    int chains, int length, int constrained,
    const liberty::Library& library = vcl013()) {
  EngineFixture f;
  f.netlist = std::make_unique<netlist::Netlist>();
  netlist::Netlist& n = *f.netlist;
  for (int i = 0; i < chains; ++i) {
    n.add_port("a" + std::to_string(i), netlist::PortDirection::kInput);
  }
  for (int i = 0; i < chains; ++i) {
    n.add_port("y" + std::to_string(i), netlist::PortDirection::kOutput);
  }
  for (int i = 0; i < chains; ++i) {
    const std::string id = std::to_string(i);
    for (int k = 1; k <= length; ++k) {
      const std::string in =
          k == 1 ? "a" + id : "c" + id + "_" + std::to_string(k - 1);
      const std::string out =
          k == length ? "y" + id : "c" + id + "_" + std::to_string(k);
      n.add_instance({"g" + id + "_" + std::to_string(k), "INVX1",
                      {{"A", in}, {"Y", out}}});
    }
  }
  n.add_instance({"gdead", "INVX1", {{"A", "a0"}, {"Y", "dead"}}});
  f.sta = std::make_unique<sta::StaEngine>(n, library);
  for (int i = 0; i < chains; ++i) {
    const std::string id = std::to_string(i);
    f.sta->set_input("a" + id, 0.05e-9, 80e-12);
    f.sta->set_output_load("y" + id, 5e-15);
    if (i < constrained) f.sta->set_required("y" + id, 1e-9);
  }
  return f;
}

/// Scenarios for a random-DAG fixture: aggressor bumps on the first
/// few gate output nets that actually have a falling victim transition
/// at their sinks (derived from a clean run of `fixture`).
inline std::vector<sta::NoiseScenario> random_scenarios(
    const EngineFixture& fixture, int count) {
  sta::StaEngine clean(*fixture.netlist, vcl013());
  constrain_ports(clean, *fixture.netlist);
  clean.run();
  std::vector<sta::NoiseScenario> out;
  int variant = 0;
  while (static_cast<int>(out.size()) < count) {
    for (const auto& inst : fixture.netlist->instances()) {
      if (static_cast<int>(out.size()) >= count) break;
      const auto& net = inst.pins.at("A");
      const auto& t = clean.timing(inst.name + "/A", sta::RiseFall::kFall);
      if (!t.valid || t.slew <= 0.0) continue;
      out.push_back(sta::make_aggressor_scenario(
          net, t.arrival, t.slew, vcl013().nom_voltage,
          wave::Polarity::kFalling, (variant % 5 - 2) * 12e-12,
          0.25 + 0.05 * (variant % 4)));
      ++variant;
    }
    ++variant;  // next lap perturbs alignment/strength
  }
  return out;
}

/// Bitwise comparison of two full timing states.  On divergence the
/// failure message pinpoints the FIRST diverging (vertex, transition,
/// field) — with the vertex name when an engine is supplied — plus the
/// exact bit patterns and the total divergent-field count.
inline ::testing::AssertionResult states_bitwise_equal(
    const sta::TimingState& a, const sta::TimingState& b,
    const sta::StaEngine* sta = nullptr) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "state sizes differ: " << a.size() << " vs " << b.size();
  }
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  std::string first;
  size_t divergent = 0;
  for (size_t v = 0; v < a.size(); ++v) {
    for (int rf = 0; rf < 2; ++rf) {
      const auto& ta = a[v].timing[rf];
      const auto& tb = b[v].timing[rf];
      struct Field {
        const char* name;
        double x, y;
      };
      const Field fields[] = {{"arrival", ta.arrival, tb.arrival},
                              {"slew", ta.slew, tb.slew},
                              {"required", ta.required, tb.required}};
      const bool valid_diff = ta.valid != tb.valid;
      if (valid_diff) ++divergent;
      for (const auto& f : fields) {
        if (bits(f.x) != bits(f.y)) ++divergent;
      }
      if (first.empty() &&
          (valid_diff || bits(ta.arrival) != bits(tb.arrival) ||
           bits(ta.slew) != bits(tb.slew) ||
           bits(ta.required) != bits(tb.required))) {
        std::ostringstream os;
        os << "first divergence at vertex " << v;
        if (sta != nullptr && v < sta->vertex_count()) {
          os << " [" << sta->vertex_name(v) << "]";
        }
        os << " (" << sta::to_string(static_cast<sta::RiseFall>(rf)) << ")";
        if (valid_diff) {
          os << " valid: " << ta.valid << " vs " << tb.valid;
        }
        for (const auto& f : fields) {
          if (bits(f.x) != bits(f.y)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          " %s: %.17g (0x%016" PRIx64
                          ") vs %.17g (0x%016" PRIx64 ")",
                          f.name, f.x, bits(f.x), f.y, bits(f.y));
            os << buf;
            break;  // first diverging field only
          }
        }
        first = os.str();
      }
    }
  }
  if (divergent == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << first << "; " << divergent << " divergent field(s) total over "
         << a.size() << " vertices";
}

/// Serial evaluate() of one (corner, scenario) point over a prepared
/// engine — no pool, no Γeff cache: the reference every sweep point
/// must reproduce bitwise.  `scenario` null evaluates the clean point
/// (engine-level annotations only); `method` null uses the engine's.
inline sta::TimingState serial_point(
    const sta::StaEngine& sta, const sta::Corner& corner,
    const sta::NoiseScenario* scenario,
    const core::EquivalentWaveformMethod* method = nullptr) {
  const auto table = sta.compile_edge_annotations(scenario);
  sta::StaEngine::EvalContext ctx;
  ctx.edge_noise = table.data();
  ctx.corner = &corner;
  ctx.corner_key = corner.key();
  ctx.method = method != nullptr ? method : &sta.noise_method();
  sta::TimingState state;
  sta.evaluate(state, ctx);
  return state;
}

/// The sweep oracle: checks every evaluated point of `result` — the
/// sweep of `spec` on `sta` — against serial_point() of that point's
/// (corner, scenario), bitwise.  Full-state results compare whole
/// TimingStates; every result compares the endpoint-level answers
/// (worst slack, critical endpoint, endpoint arrivals).  Pruned points
/// are skipped: no timing was computed for them.
inline ::testing::AssertionResult sweep_matches_serial(
    const sta::StaEngine& sta, const sta::SweepSpec& spec,
    const sta::SweepResult& result) {
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (size_t c = 0; c < result.num_corners(); ++c) {
    for (size_t s = 0; s < result.num_scenarios(); ++s) {
      const size_t p = result.point(c, s);
      if (result.pruned(p)) continue;
      const sta::NoiseScenario* scenario =
          spec.scenarios.empty() ? nullptr : &spec.scenarios[s];
      const auto ref = serial_point(sta, result.corner(c), scenario,
                                    spec.method);
      auto fail = [&] {
        return ::testing::AssertionFailure()
               << "point " << p << " (corner " << c << ", scenario "
               << result.scenario_name(s) << "): ";
      };
      if (!result.endpoint_only()) {
        const auto same = states_bitwise_equal(ref, result.state(p), &sta);
        if (!same) return fail() << same.message();
      }
      if (bits(result.worst_slack(p)) != bits(sta.worst_slack_in(ref))) {
        return fail() << "worst slack " << result.worst_slack(p) << " vs "
                      << sta.worst_slack_in(ref);
      }
      const auto ce = result.critical_endpoint(p);
      const auto we = sta.worst_endpoint_in(ref);
      if (ce.endpoint != we.endpoint || ce.rf != we.rf ||
          bits(ce.slack) != bits(we.slack)) {
        return fail() << "critical endpoint " << ce.endpoint << " vs "
                      << we.endpoint;
      }
      for (size_t e = 0; e < result.num_endpoints(); ++e) {
        const auto pin = sta.pin(result.endpoint_name(e));
        for (const auto rf : {sta::RiseFall::kRise, sta::RiseFall::kFall}) {
          const double got = result.endpoint_arrival(p, e, rf);
          const double want = sta.timing_in(ref, pin, rf).arrival;
          if (bits(got) != bits(want)) {
            return fail() << "arrival at " << result.endpoint_name(e) << " ("
                          << sta::to_string(rf) << ") " << got << " vs "
                          << want;
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace waveletic::statest
