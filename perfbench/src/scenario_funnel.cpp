/// scenario_funnel — a compound (k <= 2) generated sweep with coupled-
/// line bumps and prune=safe on a small deep design.  Nearly every
/// candidate dies in the index-level window/correlation filters before
/// any waveform exists; survivors walk dense cones in lane blocks.  Each
/// op is one sweep(GeneratedSweepSpec) over the same candidate space,
/// so every op must find the same worst point.
///
/// The design and its coupling-pair subset are fixed: on a design this
/// small the number of window survivors, and so the op cost, swings by
/// 2x from one generated design to the next.  The seed instead jitters
/// the alignment and strength grids, which changes every bump waveform
/// and slack but leaves the funnel's shape alone.

#include <algorithm>
#include <memory>
#include <vector>

#include "charlib/characterize.hpp"
#include "harness.hpp"
#include "interconnect/coupled.hpp"
#include "netlist/generators.hpp"
#include "sta/scengen.hpp"
#include "sta_common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace cl = waveletic::charlib;
namespace ic = waveletic::interconnect;
namespace lib = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;

struct Sizes {
  int inputs, layers, width;
  size_t pairs, alignments, strengths, setups;
};

constexpr Sizes kFull{12, 8, 12, 32, 61, 4, 9};
constexpr Sizes kTiny{6, 4, 6, 12, 9, 2, 1};
constexpr double kRequired = 2.5e-9;
/// Generator seed of the fixed design and pair subset.
constexpr uint64_t kDesignSeed = 1;

struct Setup {
  Setup(lib::Library l, nl::Netlist n)
      : library(std::move(l)), netlist(std::move(n)),
        drives(st::make_drives_predicate(library)),
        correlation(netlist, drives) {}
  lib::Library library;
  nl::Netlist netlist;
  st::DrivesPredicate drives;
  st::StructuralCorrelationRule correlation;
  std::unique_ptr<st::StaEngine> sta;
  st::TimingState baseline;  ///< clean nominal state (layer probes)
  st::GeneratedSweepSpec spec;
};

std::unique_ptr<Setup> set_up(const RunOptions& opt, const Sizes& sz,
                              Tracer& tr) {
  lib::Library library;
  {
    Scope s(tr, "charlib.build");
    library = cl::build_vcl013_library_fast();
  }
  nl::Netlist netlist;
  {
    Scope s(tr, "netlist.build");
    netlist =
        nl::make_random_dag(kDesignSeed, sz.inputs, sz.layers, sz.width);
  }
  auto d = std::make_unique<Setup>(std::move(library), std::move(netlist));
  {
    Scope s(tr, "sta.graph.build");
    d->sta = std::make_unique<st::StaEngine>(d->netlist, d->library);
  }
  auto& sta = *d->sta;
  sta.set_threads(1);
  constrain(sta, d->netlist, kRequired);
  sta.run();
  {
    Scope s(tr, "sta.evaluate");
    const auto table = sta.compile_edge_annotations();
    sta.evaluate(d->baseline, clean_context(sta, table, st::Corner{}));
  }

  // Coupling pairs from ordinal adjacency, a fixed subset of them, an
  // alignment grid far wider than any timing window and a strength grid,
  // both grids shifted by a seeded jitter.
  st::ScenarioSpace space;
  {
    Scope s(tr, "sta.scengen.space");
    space = st::make_scenario_space(
        sta, d->netlist, ic::infer_coupling_candidates(d->netlist), d->drives,
        {}, {});
  }
  waveletic::util::Rng rng(kDesignSeed * 0x9E3779B97F4A7C15ull + 53);
  std::vector<size_t> keep(space.pairs.size());
  for (size_t i = 0; i < keep.size(); ++i) keep[i] = i;
  for (size_t i = keep.size(); i > 1; --i) {
    std::swap(keep[i - 1], keep[rng.below(i)]);
  }
  keep.resize(std::min(keep.size(), sz.pairs));
  std::sort(keep.begin(), keep.end());
  std::vector<st::ScenarioPair> pairs;
  for (const size_t i : keep) pairs.push_back(space.pairs[i]);
  space.pairs = std::move(pairs);
  waveletic::util::Rng jitter(opt.seed * 0x9E3779B97F4A7C15ull + 59);
  const double shift = jitter.uniform(-2e-12, 2e-12);
  const double gain = jitter.uniform(0.98, 1.02);
  const int half = static_cast<int>(sz.alignments / 2);
  for (int a = -half; a <= half; ++a) {
    space.alignments.push_back(a * 50e-12 + shift);
  }
  for (size_t k = 1; k <= sz.strengths; ++k) {
    space.strengths.push_back(0.05 * gain * static_cast<double>(k));
  }
  space.max_aggressors = 2;
  space.bump_shape = st::BumpShape::kCoupledLine;

  auto& spec = d->spec;
  spec.space = std::move(space);
  spec.correlation = &d->correlation;
  spec.threads = 1;
  spec.prune = st::PruneMode::kSafe;
  spec.keep_point_records = false;
  return d;
}

/// Layer probes of one traced op, outside its timed span: the generator
/// drained and materialized by hand, then each gen_chunk of survivors
/// planned and grouped into lane blocks as the streaming sweep would.
struct Probes {
  std::vector<double> cone, backward, blocks, occupancy;
  std::vector<double> plan_us_per_scenario;
};

void probe(const Setup& d, Tracer& tr, Probes& p) {
  const auto& sta = *d.sta;
  st::ScenarioGenerator gen(d.spec.space, &d.correlation);
  std::vector<st::ScenarioGenerator::Candidate> survivors;
  {
    Scope s(tr, "sta.scengen.drain");
    while (const auto c = gen.next()) survivors.push_back(*c);
  }
  std::vector<st::NoiseScenario> scenarios;
  scenarios.reserve(survivors.size());
  {
    Scope s(tr, "sta.scengen.materialize");
    for (const auto& c : survivors) scenarios.push_back(gen.materialize(c));
  }
  const size_t chunk = 512;  // GeneratedSweepSpec::gen_chunk default
  const st::Corner nominal;
  size_t blocks = 0;
  for (size_t base = 0; base < scenarios.size(); base += chunk) {
    const size_t n = std::min(chunk, scenarios.size() - base);
    std::vector<st::StaEngine::DeltaPlan> plans;
    plans.reserve(n);
    const auto t0 = Clock::now();
    {
      Scope s(tr, "sta.plan");
      for (size_t i = 0; i < n; ++i) {
        plans.push_back(sta.delta_plan(scenarios[base + i]));
      }
    }
    p.plan_us_per_scenario.push_back(since(t0) * 1e6 / static_cast<double>(n));
    std::vector<std::vector<const st::NoiseAnnotation*>> tables;
    for (size_t i = 0; i < n; ++i) {
      tables.push_back(sta.compile_edge_annotations(&scenarios[base + i]));
      p.cone.push_back(static_cast<double>(plans[i].forward.size()));
      p.backward.push_back(static_cast<double>(plans[i].backward.size()));
    }
    std::vector<st::StaEngine::EvalContext> contexts;
    std::vector<const st::TimingState*> bases;
    std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs;
    for (size_t i = 0; i < n; ++i) {
      contexts.push_back(clean_context(sta, tables[i], nominal));
      bases.push_back(&d.baseline);
      plan_ptrs.push_back(&plans[i]);
    }
    Scope s(tr, "sta.lanes");
    blocks += sta.group_lane_blocks(contexts, bases, plan_ptrs, 4).size();
  }
  p.blocks.push_back(static_cast<double>(blocks));
  p.occupancy.push_back(blocks == 0 ? 0.0
                                    : static_cast<double>(scenarios.size()) /
                                          static_cast<double>(blocks * 4));
}

bool same_worst(const st::GeneratedSweepResult::WorstPoint& a,
                const st::GeneratedSweepResult::WorstPoint& b) {
  return a.candidate == b.candidate && a.corner == b.corner &&
         a.scenario_name == b.scenario_name && same_bits(a.slack, b.slack);
}

}  // namespace

RunResult run_scenario_funnel(const RunOptions& opt, Tracer& tr) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  RunResult result;

  SetupLoop<Setup> loop(opt, sz.setups, tr,
                        [&] { return set_up(opt, sz, tr); });
  std::vector<double> op_s;
  double candidates = 0.0;
  st::GeneratedSweepResult first;
  Probes probes;
  for (int64_t op = 0; loop.keep_running(op_s.size()); ++op) {
    loop.maybe_set_up();
    Setup& d = loop.state();
    const bool traced = tr.start_op(op);
    const int span = tr.begin("sta.sweep");
    const auto t0 = Clock::now();
    auto r = d.sta->sweep(d.spec);
    const double dt = since(t0);
    tr.end(span);
    op_s.push_back(dt);
    (traced ? result.traced_op_s : result.untraced_op_s).push_back(dt);
    candidates += static_cast<double>(r.gen_stats().generated);
    ++result.attempted;
    if (op == 0) first = r;
    if (!r.gen_stats().check() ||
        !same_worst(r.worst_point(), first.worst_point())) {
      ++result.failed;
    }
    if (traced) probe(d, tr, probes);
  }
  loop.report(result);
  report_ops(result, op_s, candidates);

  if (tr.enabled()) {
    auto& m = result.per_layer;
    const auto& g = first.gen_stats();
    const auto& ps = first.prune_stats();
    const auto ms = [&](const char* span) {
      return quantile(tr.durations(span), 0.5) * 1e3;
    };
    m.set("netlist.build_ms", ms("netlist.build"), "ms");
    m.set("sta.graph.build_ms", ms("sta.graph.build"), "ms");
    m.set("sta.graph.vertices",
          static_cast<double>(loop.state().sta->vertex_count()),
          "count");
    m.set("sta.evaluate_ms", ms("sta.evaluate"), "ms");
    m.set("sta.plan.us_per_scenario", quantile(probes.plan_us_per_scenario, 0.5),
          "us");
    m.set("sta.plan.cone_vertices_mean", mean(probes.cone), "count");
    m.set("sta.plan.backward_vertices_mean", mean(probes.backward), "count");
    m.set("sta.sweep.ms_per_op", mean(tr.durations("sta.sweep")) * 1e3, "ms");
    m.set("sta.sweep.evaluated", static_cast<double>(ps.evaluated), "count");
    m.set("sta.sweep.pruned", static_cast<double>(ps.pruned), "count");
    m.set("sta.sweep.reused", static_cast<double>(ps.reused), "count");
    m.set("sta.sweep.dirty_vertex_fraction", ps.dirty_vertex_fraction, "ratio");
    m.set("sta.prune.min_bound_gap_ps", ps.min_bound_gap * 1e12, "ps");
    m.set("sta.prune.mean_bound_gap_ps", ps.mean_bound_gap * 1e12, "ps");
    m.set("sta.lanes.blocks", mean(probes.blocks), "count");
    m.set("sta.lanes.occupancy", mean(probes.occupancy), "ratio");
    m.set("sta.scengen.drain_ms", ms("sta.scengen.drain"), "ms");
    m.set("sta.scengen.materialize_ms", ms("sta.scengen.materialize"), "ms");
    const auto count = [&](const char* name, uint64_t v) {
      m.set(std::string("sta.scengen.") + name, static_cast<double>(v),
            "count");
    };
    count("generated", g.generated);
    count("window_killed", g.window_killed);
    count("correlation_killed", g.correlation_killed);
    count("set_killed", g.set_killed);
    count("prune_killed", g.prune_killed);
    count("evaluated", g.evaluated);
    count("reused", g.reused);
    count("bump_cache_hits", g.bump_cache_hits);
    count("bump_cache_misses", g.bump_cache_misses);
    m.set("sta.scengen.pre_waveform_kill_ratio",
          static_cast<double>(g.window_killed + g.correlation_killed +
                              g.set_killed) /
              static_cast<double>(std::max<uint64_t>(g.generated, 1)),
          "ratio");
  }
  return result;
}

}  // namespace perfbench
