/// flat_signoff — crosstalk sign-off sweeps over a flat ~23k-vertex
/// design.  Set-up builds the graph (today's dominant cost); each op is
/// one endpoint-only sweep() over a fresh chunk of explicit 1–2-victim
/// aggressor scenarios with sparse fanout cones, against the corner
/// baseline computed in set-up.  Every op draws new scenarios, so the
/// op-latency quantiles are taken over many distinct chunks rather than
/// a handful of repeated ones.

#include <memory>
#include <vector>

#include "charlib/characterize.hpp"
#include "harness.hpp"
#include "netlist/generators.hpp"
#include "sta/sweep.hpp"
#include "sta_common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace cl = waveletic::charlib;
namespace lib = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wv = waveletic::wave;

struct Sizes {
  int inputs, layers, width;
  size_t scenarios_per_op, setups;
  double required;
};

constexpr Sizes kFull{32, 100, 80, 32, 3, 5e-9};
constexpr Sizes kTiny{8, 12, 16, 8, 1, 2e-9};

/// Everything set-up builds.  Heap-allocated and never moved: the
/// engine keeps pointers to the netlist and library.
struct Design {
  Design(lib::Library l, nl::Netlist n)
      : library(std::move(l)), netlist(std::move(n)) {}
  lib::Library library;
  nl::Netlist netlist;
  std::unique_ptr<st::StaEngine> sta;
  std::vector<st::TimingState> baselines;  ///< one: the nominal corner
  std::vector<Victim> victims;
  std::vector<st::PinId> endpoints;  ///< endpoint-ordinal → pin
};

std::unique_ptr<Design> set_up(const RunOptions& opt, const Sizes& sz,
                               Tracer& tr) {
  lib::Library library;
  {
    Scope s(tr, "charlib.build");
    library = cl::build_vcl013_library_fast();
  }
  nl::Netlist netlist;
  {
    Scope s(tr, "netlist.build");
    netlist = nl::make_random_dag(opt.seed, sz.inputs, sz.layers, sz.width);
  }
  auto d = std::make_unique<Design>(std::move(library), std::move(netlist));
  {
    Scope s(tr, "sta.graph.build");
    d->sta = std::make_unique<st::StaEngine>(d->netlist, d->library);
  }
  auto& sta = *d->sta;
  sta.set_threads(1);
  constrain(sta, d->netlist, sz.required);
  {
    Scope s(tr, "sta.prepare");
    sta.prepare();
  }
  {
    Scope s(tr, "sta.evaluate");
    const auto table = sta.compile_edge_annotations();
    d->baselines.resize(1);
    sta.evaluate(d->baselines[0], clean_context(sta, table, st::Corner{}));
  }
  for (const int32_t p : sta.endpoint_ports()) {
    d->endpoints.push_back(
        sta.pin(d->netlist.ports()[static_cast<size_t>(p)].name));
  }

  d->victims = late_victims(sta, d->baselines[0], d->netlist, 0.4);
  return d;
}

/// The sweep of one op: `n` aggressor scenarios, each on 1–2 late-layer
/// victims, alignment from dead-on to far-late, strength 0.15–0.45 V.
st::SweepSpec next_spec(const Design& d, size_t n, waveletic::util::Rng& rng) {
  st::SweepSpec spec;
  spec.threads = 1;
  spec.endpoint_only = true;
  spec.corner_baselines = &d.baselines;
  for (size_t i = 0; i < n; ++i) {
    st::NoiseScenario sc;
    const uint64_t nets = 1 + rng.below(2);
    for (uint64_t k = 0; k < nets; ++k) {
      const auto& v = d.victims[rng.below(d.victims.size())];
      auto one = st::make_aggressor_scenario(
          v.net, v.arrival, v.slew, d.library.nom_voltage,
          wv::Polarity::kFalling, rng.uniform(-60e-12, 360e-12),
          rng.uniform(0.15, 0.45));
      if (sc.name.empty()) sc.name = one.name;
      sc.annotate(v.net, std::move(one.entries[0].annotation.waveform),
                  wv::Polarity::kFalling);
    }
    spec.scenarios.push_back(std::move(sc));
  }
  return spec;
}

/// Serial evaluate() of the sweep's worst point under its scenario
/// overlay must reproduce the sweep's endpoint summary bit for bit.
bool worst_point_matches(const Design& d, const st::SweepSpec& spec,
                         const st::SweepResult& r) {
  const auto& sta = *d.sta;
  const auto wp = r.worst_point();
  const auto table =
      sta.compile_edge_annotations(&spec.scenarios[wp.scenario]);
  st::TimingState s;
  sta.evaluate(s, clean_context(sta, table, st::Corner{}));
  const auto we = sta.worst_endpoint_in(s);
  const auto ce = r.critical_endpoint(wp.point);
  bool ok = same_bits(sta.worst_slack_in(s), wp.slack) &&
            we.endpoint == ce.endpoint && we.rf == ce.rf &&
            same_bits(we.slack, ce.slack);
  for (size_t e = 0; ok && e < d.endpoints.size(); ++e) {
    for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
      ok = ok && same_bits(r.endpoint_arrival(wp.point, e, rf),
                           sta.timing_in(s, d.endpoints[e], rf).arrival);
    }
  }
  return ok;
}

/// Layer probes of one traced op, outside its timed span.
struct Probes {
  std::vector<double> cone, backward, blocks, occupancy, evaluated, pruned,
      reused, dirty, fits, hits, bytes_per_point;
};

void probe(const Design& d, const st::SweepSpec& spec,
           const st::SweepResult& r, Tracer& tr, Probes& p) {
  const auto& sta = *d.sta;
  std::vector<st::StaEngine::DeltaPlan> plans;
  plans.reserve(spec.scenarios.size());
  {
    Scope s(tr, "sta.plan");
    for (const auto& sc : spec.scenarios) plans.push_back(sta.delta_plan(sc));
  }
  std::vector<std::vector<const st::NoiseAnnotation*>> tables;
  std::vector<st::StaEngine::EvalContext> contexts;
  std::vector<const st::TimingState*> bases;
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs;
  const st::Corner nominal;
  for (size_t i = 0; i < plans.size(); ++i) {
    tables.push_back(sta.compile_edge_annotations(&spec.scenarios[i]));
    p.cone.push_back(static_cast<double>(plans[i].forward.size()));
    p.backward.push_back(static_cast<double>(plans[i].backward.size()));
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    contexts.push_back(clean_context(sta, tables[i], nominal));
    bases.push_back(&d.baselines[0]);
    plan_ptrs.push_back(&plans[i]);
  }
  size_t blocks = 0;
  {
    Scope s(tr, "sta.lanes");
    blocks = sta.group_lane_blocks(contexts, bases, plan_ptrs, 4).size();
  }
  p.blocks.push_back(static_cast<double>(blocks));
  p.occupancy.push_back(static_cast<double>(plans.size()) /
                        static_cast<double>(blocks * 4));
  const auto& ps = r.prune_stats();
  p.evaluated.push_back(static_cast<double>(ps.evaluated));
  p.pruned.push_back(static_cast<double>(ps.pruned));
  p.reused.push_back(static_cast<double>(ps.reused));
  p.dirty.push_back(ps.dirty_vertex_fraction);
  const auto cs = r.cache_stats();
  p.fits.push_back(static_cast<double>(cs.misses));
  p.hits.push_back(static_cast<double>(cs.hits));
  p.bytes_per_point.push_back(static_cast<double>(r.result_bytes_per_point()));
}

}  // namespace

RunResult run_flat_signoff(const RunOptions& opt, Tracer& tr) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  RunResult result;

  SetupLoop<Design> loop(opt, sz.setups, tr,
                         [&] { return set_up(opt, sz, tr); });
  std::vector<double> op_s;
  double points = 0.0;
  Probes probes;
  waveletic::util::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  for (int64_t op = 0; loop.keep_running(op_s.size()); ++op) {
    loop.maybe_set_up();
    const Design& d = loop.state();
    const bool traced = tr.start_op(op);
    const auto spec = next_spec(d, sz.scenarios_per_op, rng);
    const int span = tr.begin("sta.sweep");
    const auto t0 = Clock::now();
    const auto r = d.sta->sweep(spec);
    const double dt = since(t0);
    tr.end(span);
    op_s.push_back(dt);
    (traced ? result.traced_op_s : result.untraced_op_s).push_back(dt);
    points += static_cast<double>(r.size());
    ++result.attempted;
    if (!worst_point_matches(d, spec, r)) ++result.failed;
    if (traced) probe(d, spec, r, tr, probes);
  }
  loop.report(result);
  report_ops(result, op_s, points);

  if (tr.enabled()) {
    auto& m = result.per_layer;
    const auto ms = [&](const char* span) {
      return quantile(tr.durations(span), 0.5) * 1e3;
    };
    m.set("netlist.build_ms", ms("netlist.build"), "ms");
    m.set("sta.graph.build_ms", ms("sta.graph.build"), "ms");
    m.set("sta.graph.vertices",
          static_cast<double>(loop.state().sta->vertex_count()),
          "count");
    m.set("sta.prepare_ms", ms("sta.prepare"), "ms");
    m.set("sta.evaluate_ms", ms("sta.evaluate"), "ms");
    m.set("sta.plan.us_per_scenario",
          mean(tr.durations("sta.plan")) * 1e6 /
              static_cast<double>(sz.scenarios_per_op),
          "us");
    m.set("sta.plan.cone_vertices_mean", mean(probes.cone), "count");
    m.set("sta.plan.backward_vertices_mean", mean(probes.backward), "count");
    m.set("sta.sweep.ms_per_op", mean(tr.durations("sta.sweep")) * 1e3, "ms");
    m.set("sta.sweep.evaluated", mean(probes.evaluated), "count");
    m.set("sta.sweep.pruned", mean(probes.pruned), "count");
    m.set("sta.sweep.reused", mean(probes.reused), "count");
    m.set("sta.sweep.dirty_vertex_fraction", mean(probes.dirty), "ratio");
    m.set("sta.sweep.result_bytes_per_point", mean(probes.bytes_per_point),
          "bytes");
    m.set("sta.lanes.blocks", mean(probes.blocks), "count");
    m.set("sta.lanes.occupancy", mean(probes.occupancy), "ratio");
    const double fits = mean(probes.fits);
    const double hits = mean(probes.hits);
    m.set("sta.gamma.fits", fits, "count");
    m.set("sta.gamma.hits", hits, "count");
    m.set("sta.gamma.hit_ratio", fits + hits > 0 ? hits / (fits + hits) : 0.0,
          "ratio");
  }
  return result;
}

}  // namespace perfbench
