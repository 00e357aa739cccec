/// eco_service — an incremental StaService under a closed ECO loop.
/// Each op is one apply() of a one-edit batch (parasitics, output load
/// or required time; every 32nd op retypes an inverter INVX1 <-> INVX4,
/// which rebuilds the graph), followed by a few read queries of one
/// noise scenario on the freshly published snapshot.

#include <cmath>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "charlib/characterize.hpp"
#include "harness.hpp"
#include "netlist/generators.hpp"
#include "sta/service.hpp"
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
  size_t setups, reads_per_write;
};

constexpr Sizes kFull{24, 50, 80, 3, 4};
constexpr Sizes kTiny{8, 10, 16, 1, 2};
constexpr double kRequired = 4e-9;
constexpr int64_t kRetypeEvery = 32;

struct Setup {
  Setup(lib::Library l, nl::Netlist n)
      : library(std::move(l)), netlist(std::move(n)) {}
  lib::Library library;
  nl::Netlist netlist;  ///< the unedited design (replay starts here)
  std::unique_ptr<st::StaService> service;
  std::vector<st::NoiseScenario> reads;  ///< read-query scenarios
};

std::vector<st::Corner> corners() {
  st::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.12;
  slow.cell_slew_scale = 1.08;
  slow.wire_delay_scale = 1.25;
  return {st::Corner{}, slow};
}

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
    netlist = nl::make_random_dag(opt.seed, sz.inputs, sz.layers, sz.width);
  }
  auto d = std::make_unique<Setup>(std::move(library), std::move(netlist));
  st::ServiceConfig cfg;
  cfg.corners = corners();
  cfg.threads = 1;
  {
    Scope s(tr, "sta.service.construct");
    d->service = std::make_unique<st::StaService>(d->netlist, d->library, cfg);
  }
  {
    Scope s(tr, "sta.service.apply");
    d->service->apply(constraint_batch(d->netlist, kRequired));
  }
  const auto snap = d->service->snapshot();
  const auto victims =
      late_victims(snap->engine(), snap->baseline(0), snap->netlist(), 0.4);
  waveletic::util::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 29);
  for (int i = 0; i < 64; ++i) {
    const auto& v = victims[rng.below(victims.size())];
    d->reads.push_back(st::make_aggressor_scenario(
        v.net, v.arrival, v.slew, d->library.nom_voltage,
        wv::Polarity::kFalling, rng.uniform(-60e-12, 240e-12),
        rng.uniform(0.2, 0.45)));
  }
  return d;
}

/// Draws the edit of op `op`: mostly single-net parasitics on late-layer
/// nets (small dirty cones), some output-load and required retargets,
/// and an INVX1 <-> INVX4 retype every kRetypeEvery ops.
class EditScript {
 public:
  EditScript(const nl::Netlist& netlist, uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 43) {
    const auto& instances = netlist.instances();
    const size_t late = std::min<size_t>(instances.size(), 2000);
    for (size_t i = instances.size() - late; i < instances.size(); ++i) {
      late_nets_.push_back(instances[i].pins.at("Y"));
    }
    for (const auto& inst : instances) {
      if (inst.cell == "INVX1" || inst.cell == "INVX4") {
        cell_of_[inst.name] = inst.cell;
        inverters_.push_back(inst.name);
      }
    }
    for (const auto& port : netlist.ports()) {
      if (port.direction == nl::PortDirection::kOutput) {
        outputs_.push_back(port.name);
      }
    }
  }

  st::EditBatch next(int64_t op) {
    st::EditBatch b;
    if (op % kRetypeEvery == kRetypeEvery - 1 && !inverters_.empty()) {
      const auto& inst = inverters_[rng_.below(inverters_.size())];
      auto& cell = cell_of_[inst];
      cell = cell == "INVX1" ? "INVX4" : "INVX1";
      return b.retype_cell(inst, cell);
    }
    const uint64_t kind = rng_.below(10);
    if (kind < 6) {
      return b.set_net_parasitics(late_nets_[rng_.below(late_nets_.size())],
                                  (1.0 + static_cast<double>(rng_.below(5))) *
                                      1e-15,
                                  static_cast<double>(rng_.below(3)) * 2e-12);
    }
    const auto& port = outputs_[rng_.below(outputs_.size())];
    if (kind < 8) {
      return b.set_output_load(
          port, (3.0 + static_cast<double>(rng_.below(4))) * 1e-15);
    }
    return b.set_required(
        port, kRequired + (static_cast<double>(rng_.below(5)) - 2.0) * 1e-10);
  }

 private:
  waveletic::util::Rng rng_;
  std::vector<std::string> late_nets_;
  std::vector<std::string> inverters_;
  std::map<std::string, std::string> cell_of_;
  std::vector<std::string> outputs_;
};

/// The final snapshot must equal a from-scratch engine that replays the
/// whole edit history on the original design, bit for bit, at every
/// corner.
bool replay_matches(const Setup& d, const std::vector<st::Edit>& history) {
  nl::Netlist netlist = d.netlist;
  for (const auto& e : history) {
    if (const auto* r = std::get_if<st::RetypeCell>(&e)) {
      netlist.retype_instance(r->instance, r->new_cell);
    }
  }
  st::StaEngine sta(netlist, d.library);
  constrain(sta, netlist, kRequired);
  for (const auto& e : history) {
    if (const auto* p = std::get_if<st::SetNetParasitics>(&e)) {
      sta.set_net_parasitics(p->net, p->cap, p->delay);
    } else if (const auto* l = std::get_if<st::SetOutputLoad>(&e)) {
      sta.set_output_load(l->port, l->cap);
    } else if (const auto* q = std::get_if<st::SetRequired>(&e)) {
      sta.set_required(q->port, q->required);
    }
  }
  sta.prepare();
  const auto table = sta.compile_edge_annotations();
  const auto snap = d.service->snapshot();
  for (size_t c = 0; c < snap->corners().size(); ++c) {
    st::TimingState s;
    sta.evaluate(s, clean_context(sta, table, snap->corners()[c]));
    if (!bitwise_equal(s, snap->baseline(c))) return false;
  }
  return true;
}

}  // namespace

RunResult run_eco_service(const RunOptions& opt, Tracer& tr) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  RunResult result;

  // The service carries the edit history, so every set-up runs before
  // the first op.
  SetupLoop<Setup> loop(opt, sz.setups, tr,
                        [&] { return set_up(opt, sz, tr); });
  for (size_t k = 1; k < sz.setups; ++k) loop.set_up();
  loop.report(result);
  Setup* const d = &loop.state();

  EditScript script(d->netlist, opt.seed);
  std::vector<st::Edit> history;
  std::vector<double> op_s, config_s, structural_s, read_s, validate_s,
      rebuild_s;
  uint64_t version = d->service->snapshot()->version();
  waveletic::util::Rng read_rng(opt.seed * 0x9E3779B97F4A7C15ull + 71);
  // Whole retype cycles only, so every run has the same write mix.
  for (int64_t op = 0;
       loop.keep_running(op_s.size()) || op % kRetypeEvery != 0; ++op) {
    const bool traced = tr.start_op(op);
    const auto batch = script.next(op);
    if (traced) {
      const auto snap = d->service->snapshot();
      const auto t0 = Clock::now();
      {
        Scope s(tr, "sta.edits.validate");
        st::validate_edits(batch, snap->netlist(), d->library);
      }
      validate_s.push_back(since(t0));
    }
    const int span = tr.begin("sta.service.apply");
    const auto t0 = Clock::now();
    const auto report = d->service->apply(batch);
    const double dt = since(t0);
    tr.end(span);
    op_s.push_back(dt);
    (report.structural ? structural_s : config_s).push_back(dt);
    (traced ? result.traced_op_s : result.untraced_op_s).push_back(dt);
    history.insert(history.end(), batch.edits().begin(), batch.edits().end());
    ++result.attempted;
    bool ok = report.version == ++version;

    for (size_t q = 0; q < sz.reads_per_write; ++q) {
      const auto& sc = d->reads[read_rng.below(d->reads.size())];
      const int rspan = tr.begin("sta.service.query");
      const auto r0 = Clock::now();
      const auto timing = d->service->query(sc, q % 2);
      read_s.push_back(since(r0));
      tr.end(rspan);
      ok = ok && timing.snapshot()->version() == version &&
           std::isfinite(timing.worst_slack());
    }
    if (!ok) ++result.failed;

    if (traced && report.structural) {
      const auto snap = d->service->snapshot();
      const auto r0 = Clock::now();
      {
        Scope s(tr, "sta.graph.rebuild");
        const st::StaEngine rebuilt(snap->netlist(), d->library);
      }
      rebuild_s.push_back(since(r0));
    }
  }
  report_ops(result, op_s, static_cast<double>(history.size()));
  result.notes.push_back("reads timed: " + std::to_string(read_s.size()));
  if (!replay_matches(*d, history)) {
    result.failed = result.attempted;
    result.notes.push_back("final snapshot differs from the replayed history");
  }

  if (tr.enabled()) {
    auto& m = result.per_layer;
    const auto stats = d->service->stats();
    m.set("netlist.build_ms", quantile(tr.durations("netlist.build"), 0.5) * 1e3,
          "ms");
    m.set("sta.service.construct_ms",
          quantile(tr.durations("sta.service.construct"), 0.5) * 1e3, "ms");
    m.set("sta.graph.rebuild_ms", quantile(rebuild_s, 0.5) * 1e3, "ms");
    m.set("sta.edits.validate_us", quantile(validate_s, 0.5) * 1e6, "us");
    m.set("sta.service.apply_config_ms_p50", quantile(config_s, 0.5) * 1e3,
          "ms");
    m.set("sta.service.apply_structural_ms_p50",
          quantile(structural_s, 0.5) * 1e3, "ms");
    m.set("sta.service.dirty_cone_fraction_mean",
          stats.mean_dirty_cone_fraction, "ratio");
    m.set("sta.service.structural_rebuilds",
          static_cast<double>(stats.structural_rebuilds), "count");
    m.set("sta.service.query_ms_p50", quantile(read_s, 0.5) * 1e3, "ms");
    m.set("sta.service.query_ms_p90", quantile(read_s, 0.9) * 1e3, "ms");
  }
  return result;
}

}  // namespace perfbench
