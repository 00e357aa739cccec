// Cone-limited incremental scenario propagation + slack-bound pruning
// demo: the FRAME-style screen-before-exact-analysis flow.
//
//   1. characterize the cell library and build a random layered DAG
//      (many output cones, varied fanout),
//   2. build a large scenario axis: aggressor bumps on many victim
//      nets, from perfectly aligned (critical) to far-offset
//      (harmless),
//   3. time it three ways — a looped full engine run per scenario (the
//      simple baseline), one sweep (corner baseline + per-scenario cone
//      deltas), and the sweep under PruneMode::kSafe,
//   4. verify all three agree on the exact worst slack, and print the
//      per-scenario bound vs. exact slack table plus PruneStats.
//
//   $ ./pruned_sweep

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"

namespace cl = waveletic::charlib;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wv = waveletic::wave;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void constrain(st::StaEngine& sta, const nl::Netlist& netlist) {
  int i = 0;
  int o = 0;
  for (const auto& port : netlist.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, 2.5e-9);
      ++o;
    }
  }
}

}  // namespace

int main() {
  std::printf("characterizing library...\n");
  const auto lib = cl::build_vcl013_library_fast();
  const auto netlist = nl::make_random_dag(99, 10, 7, 12);

  st::StaEngine clean(netlist, lib);
  constrain(clean, netlist);
  clean.run();

  // Scenario axis: one bump per victim gate-input net, sweeping the
  // aggressor alignment from dead-on to ~1 ns late.  Far alignments
  // barely perturb the crossing, so their push-out bound is tiny — the
  // pruner's prey.
  st::SweepSpec spec;
  int v = 0;
  for (const auto& inst : netlist.instances()) {
    const auto& t = clean.timing(inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    const double align = (v % 8) * 140e-12;  // 0 .. ~1 ns late
    spec.scenarios.push_back(st::make_aggressor_scenario(
        inst.pins.at("A"), t.arrival, t.slew, lib.nom_voltage,
        wv::Polarity::kFalling, align, 0.45));
    ++v;
  }
  spec.threads = 0;

  st::StaEngine sta(netlist, lib);
  constrain(sta, netlist);

  const auto report = [&](const char* label, double dt) {
    std::printf("%-28s %7.1f ms  (%5.0f scenarios/sec)\n", label, dt * 1e3,
                static_cast<double>(spec.scenarios.size()) / dt);
  };
  auto timed_sweep = [&](const char* label) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = sta.sweep(spec);
    report(label, seconds_since(t0));
    return result;
  };

  std::printf("\n-- %zu scenarios over %zu vertices --\n",
              spec.scenarios.size(), sta.vertex_count());
  // The simple baseline: re-annotate one engine and run() it per
  // scenario — a full serial propagation each time.
  double looped_worst = 0.0;
  {
    st::StaEngine looped(netlist, lib);
    constrain(looped, netlist);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t s = 0; s < spec.scenarios.size(); ++s) {
      looped.clear_noisy_nets();
      for (const auto& e : spec.scenarios[s].entries) {
        looped.annotate_noisy_net(e.net, e.annotation.waveform,
                                  e.annotation.polarity);
      }
      looped.run();
      looped_worst = s == 0 ? looped.worst_slack()
                            : std::min(looped_worst, looped.worst_slack());
    }
    report("looped full runs:", seconds_since(t0));
  }
  const auto delta = timed_sweep("baseline + delta:");
  spec.prune = st::PruneMode::kSafe;
  const auto pruned = timed_sweep("delta + prune=safe:");

  const auto wd = delta.worst_point();
  const auto wp = pruned.worst_point();
  std::printf("\nworst slack identical across all three: %s "
              "(scenario %zu, slack %.1f ps)\n",
              (wd.point == wp.point && wd.slack == looped_worst &&
               wp.slack == looped_worst)
                  ? "yes"
                  : "NO — BUG",
              wp.scenario, wp.slack * 1e12);

  const auto ps = pruned.prune_stats();
  std::printf("\nPruneStats: %zu points -> %zu evaluated, %zu pruned, "
              "%zu reused\n",
              ps.points, ps.evaluated, ps.pruned, ps.reused);
  std::printf("dirty cone: %.1f%% of vertices (mean over scenarios)\n",
              ps.dirty_vertex_fraction * 100.0);
  std::printf("bound tightness: mean gap %.1f ps, min gap %.1f ps\n",
              ps.mean_bound_gap * 1e12, ps.min_bound_gap * 1e12);

  // The netlist-level view of the same locality argument: the nets the
  // first victim's bump can reach at all (liberty supplies the pin
  // directions the library-agnostic netlist cannot know).
  const auto& victim_net = spec.scenarios[0].entries[0].net;
  const std::vector<int> seeds = {netlist.net_ordinal(victim_net)};
  const auto cone_nets = netlist.transitive_fanout_nets(
      seeds, [&](const nl::Instance& inst, const std::string& pin) {
        return lib.find_cell(inst.cell)->find_pin(pin)->direction ==
               waveletic::liberty::PinDirection::kOutput;
      });
  std::printf("net-level fanout cone of '%s': %zu of %zu nets\n",
              victim_net.c_str(), cone_nets.size(), netlist.nets().size());

  std::printf("\n%-44s %12s %12s\n", "scenario", "bound [ps]", "exact [ps]");
  for (size_t p = 0; p < pruned.size() && p < 16; ++p) {
    const char* name =
        pruned.scenario_name(p % pruned.num_scenarios()).c_str();
    const double bound = pruned.worst_slack_bound(p) * 1e12;
    if (pruned.pruned(p)) {
      std::printf("%-44s %12.1f     (pruned)\n", name, bound);
    } else {
      std::printf("%-44s %12.1f %12.1f\n", name, bound,
                  pruned.worst_slack(p) * 1e12);
    }
  }
  if (pruned.size() > 16) {
    std::printf("... %zu more points\n", pruned.size() - 16);
  }
  return 0;
}
