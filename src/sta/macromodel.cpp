#include "sta/macromodel.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "charlib/characterize.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "util/thread_pool.hpp"

namespace waveletic::sta {

namespace {

/// Sum of liberty input-pin capacitances connected to `net_name`.
double net_input_cap(const netlist::Netlist& nl, const liberty::Library& lib,
                     const std::string& net_name) {
  double cap = 0.0;
  for (const auto& ref : nl.pins_on_net(net_name)) {
    const liberty::Cell* cell = lib.find_cell(ref.instance->cell);
    if (!cell) continue;
    const liberty::Pin* pin = cell->find_pin(ref.pin);
    if (pin && pin->direction == liberty::PinDirection::kInput) {
      cap += pin->capacitance;
    }
  }
  return cap;
}

/// Throws std::invalid_argument with the streamed message unless `ok`.
template <typename... Args>
void require_arg(bool ok, const Args&... args) {
  if (ok) return;
  std::ostringstream os;
  os << "extract_block_model: ";
  (os << ... << args);
  throw std::invalid_argument(os.str());
}

/// Rejects an extraction grid axis that is empty or not finite,
/// positive and strictly increasing, naming the offending value.
void check_axis(const char* name, const std::vector<double>& axis) {
  require_arg(!axis.empty(), "empty ", name, " axis");
  for (size_t i = 0; i < axis.size(); ++i) {
    const double v = axis[i];
    require_arg(std::isfinite(v), name, " axis value ", v, " at index ", i,
                " is not finite");
    require_arg(v > 0.0, name, " axis value ", v, " at index ", i,
                " is not positive");
    if (i > 0) {
      require_arg(v > axis[i - 1], name, " axis value ", v, " at index ", i,
                  " does not exceed the previous value ", axis[i - 1]);
    }
  }
}

/// Latest-arriving valid sink timing on `net` for polarity `pol`, or
/// null when no sink has valid timing there (e.g. the net is dead in
/// the reference run).
const PinTiming* latest_sink_timing(const StaEngine& eng,
                                    const netlist::Netlist& nl,
                                    const liberty::Library& lib,
                                    const std::string& net, RiseFall rf) {
  const PinTiming* best = nullptr;
  for (const auto& ref : nl.pins_on_net(net)) {
    const liberty::Cell* cell = lib.find_cell(ref.instance->cell);
    if (!cell) continue;
    const liberty::Pin* pin = cell->find_pin(ref.pin);
    if (!pin || pin->direction != liberty::PinDirection::kInput) continue;
    const PinId id = eng.find_pin(ref.instance->name + "/" + ref.pin);
    if (!id.valid()) continue;
    const PinTiming& t = eng.timing(id, rf);
    if (!t.valid || t.slew <= 0.0) continue;
    if (!best || t.arrival > best->arrival) best = &t;
  }
  return best;
}

}  // namespace

liberty::Cell BlockModel::to_cell() const {
  liberty::Cell cell;
  cell.name = name;
  size_t n_out = 0;
  for (const auto& p : ports) {
    liberty::Pin pin;
    pin.name = p.name;
    if (p.is_input) {
      pin.direction = liberty::PinDirection::kInput;
      pin.capacitance = p.capacitance;
    } else {
      pin.direction = liberty::PinDirection::kOutput;
      for (const auto& a : arcs) {
        if (a.to_port == p.name) pin.arcs.push_back(a.arc);
      }
      ++n_out;
    }
    cell.pins.push_back(std::move(pin));
  }
  if (n_out == 0) {
    throw std::logic_error("BlockModel::to_cell: block '" + name +
                           "' has no output port");
  }
  return cell;
}

double BlockModel::transfer(const std::string& net,
                            const std::string& to_port) const noexcept {
  for (const auto& t : transfers) {
    if (t.net == net && t.to_port == to_port) return t.sensitivity;
  }
  return 0.0;
}

BlockModel extract_block_model(const netlist::Netlist& block,
                               const liberty::Library& lib,
                               const BlockModelOptions& options) {
  const charlib::CharGrid default_grid;
  BlockModel model;
  model.name = options.name;
  model.slews = options.slews.empty() ? default_grid.slews : options.slews;
  model.loads = options.loads.empty() ? default_grid.loads_x1 : options.loads;
  check_axis("slew", model.slews);
  check_axis("load", model.loads);
  const double fraction = options.noise_amplitude_fraction;
  require_arg(fraction > 0.0 && fraction <= 1.0, "noise_amplitude_fraction ",
              fraction, " is outside (0, 1]");
  require_arg(options.waveform_samples >= 2, "waveform_samples ",
              options.waveform_samples, " is below 2");
  for (const auto& n : options.noise_nets) {
    require_arg(block.net_ordinal(n) >= 0, "unknown noise net '", n, "'");
  }

  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  for (const auto& p : block.ports()) {
    if (p.direction == netlist::PortDirection::kInput) {
      inputs.push_back(p.name);
      model.ports.push_back({p.name, true, net_input_cap(block, lib, p.name)});
    }
  }
  for (const auto& p : block.ports()) {
    if (p.direction == netlist::PortDirection::kOutput) {
      outputs.push_back(p.name);
      model.ports.push_back({p.name, false, 0.0});
    }
  }
  require_arg(!inputs.empty() && !outputs.empty(),
              "block needs at least one input and one output port");

  StaEngine proto(block, lib);

  const size_t n_in = inputs.size();
  const size_t n_slew = model.slews.size();
  const size_t n_load = model.loads.size();
  const size_t n_grid = n_slew * n_load;
  const size_t n_out = outputs.size();

  // -- noise-transfer reference point -----------------------------------
  // One serial run (all inputs at the mid-grid slew, all outputs at the
  // mid-grid load) gives the base arrivals and each probe's victim.
  const double ref_slew = model.slews[n_slew / 2];
  const double ref_load = model.loads[n_load / 2];
  const double vdd = lib.nom_voltage;
  const double amplitude = options.noise_amplitude_fraction * vdd;
  const RiseFall victim_rf = options.noise_polarity == wave::Polarity::kRising
                                 ? RiseFall::kRise
                                 : RiseFall::kFall;

  auto ref = proto.fork();
  for (const auto& in : inputs) ref->set_input(in, 0.0, ref_slew);
  for (const auto& out : outputs) ref->set_output_load(out, ref_load);
  ref->run();

  // One probe per characterized net that is live in the reference run.
  std::vector<std::string> probe_nets = inputs;
  probe_nets.insert(probe_nets.end(), options.noise_nets.begin(),
                    options.noise_nets.end());
  std::vector<NoiseScenario> probes;
  for (const auto& net : probe_nets) {
    double victim_arrival = 0.0;
    double victim_slew = ref_slew;
    const bool is_input_port = block.find_port(net) != nullptr &&
                               block.find_port(net)->direction ==
                                   netlist::PortDirection::kInput;
    if (!is_input_port) {
      const PinTiming* sink =
          latest_sink_timing(*ref, block, lib, net, victim_rf);
      if (!sink) continue;  // dead net in the reference run — no transfer
      victim_arrival = sink->arrival;
      victim_slew = sink->slew;
    }
    probes.push_back(make_aggressor_scenario(
        net, victim_arrival, victim_slew, vdd, options.noise_polarity,
        /*alignment=*/0.0, amplitude, options.waveform_samples));
  }

  // -- characterization jobs --------------------------------------------
  // Job j < n_in × n_load drives input j / n_load across the slew grid
  // at load j % n_load; the rest run one noise probe each.  Every job
  // is a serial fork writing only its own samples, so the model is
  // bitwise identical at any thread count.
  //
  // Per (input, output): delay/slew samples per transition, row-major
  // (slew-major, load-minor) like NldmTable.
  struct ArcSamples {
    std::vector<double> delay[2], slew[2];
    explicit ArcSamples(size_t n) {
      for (int rf = 0; rf < 2; ++rf) {
        delay[rf].assign(n, 0.0);
        slew[rf].assign(n, 0.0);
      }
    }
  };
  std::vector<ArcSamples> samples(n_in * n_out, ArcSamples(n_grid));
  const size_t n_grid_jobs = n_in * n_load;
  // unreachable[job × n_out + o]: output o was invalid at some slew of
  // grid job `job` (structural reachability is constant over the grid).
  std::vector<char> unreachable(n_grid_jobs * n_out, 0);
  std::vector<std::vector<NoiseTransfer>> probe_transfers(probes.size());

  const auto grid_job = [&](size_t job) {
    const size_t i = job / n_load;
    const size_t l = job % n_load;
    auto eng = proto.fork();
    for (const auto& out : outputs) eng->set_output_load(out, model.loads[l]);
    for (size_t s = 0; s < n_slew; ++s) {
      eng->set_input(inputs[i], 0.0, model.slews[s]);
      eng->run();
      const size_t at = s * n_load + l;
      for (size_t o = 0; o < n_out; ++o) {
        ArcSamples& arc = samples[i * n_out + o];
        for (int rf = 0; rf < 2; ++rf) {
          const PinTiming& t =
              eng->timing(outputs[o], static_cast<RiseFall>(rf));
          if (!t.valid) {
            unreachable[job * n_out + o] = 1;
            continue;
          }
          arc.delay[rf][at] = t.arrival;
          arc.slew[rf][at] = t.slew;
        }
      }
    }
  };
  const auto probe_job = [&](size_t p) {
    auto eng = ref->fork();
    for (const auto& entry : probes[p].entries) {
      eng->annotate_noisy_net(entry.net, entry.annotation.waveform,
                              entry.annotation.polarity);
    }
    eng->run();
    for (size_t o = 0; o < n_out; ++o) {
      double sens = 0.0;
      bool any = false;
      for (const RiseFall rf : {RiseFall::kRise, RiseFall::kFall}) {
        const PinTiming& base = ref->timing(outputs[o], rf);
        const PinTiming& t = eng->timing(outputs[o], rf);
        if (!base.valid || !t.valid) continue;
        any = true;
        sens = std::max(sens, (t.arrival - base.arrival) / amplitude);
      }
      if (any) {
        probe_transfers[p].push_back(
            {probes[p].entries.front().net, outputs[o], sens});
      }
    }
  };
  util::ThreadPool pool(options.threads);
  pool.parallel_for_dynamic(n_grid_jobs + probes.size(), [&](size_t, size_t j) {
    if (j < n_grid_jobs) return grid_job(j);
    probe_job(j - n_grid_jobs);
  });

  for (size_t i = 0; i < n_in; ++i) {
    for (size_t o = 0; o < n_out; ++o) {
      bool reachable = true;
      for (size_t l = 0; l < n_load; ++l) {
        reachable = reachable && !unreachable[(i * n_load + l) * n_out + o];
      }
      if (!reachable) continue;
      ArcSamples& s = samples[i * n_out + o];
      BlockPortArc arc;
      arc.from_port = inputs[i];
      arc.to_port = outputs[o];
      arc.arc.related_pin = inputs[i];
      arc.arc.sense = liberty::TimingSense::kNonUnate;
      arc.arc.cell_rise = {model.slews, model.loads, std::move(s.delay[0])};
      arc.arc.cell_fall = {model.slews, model.loads, std::move(s.delay[1])};
      arc.arc.rise_transition = {model.slews, model.loads,
                                 std::move(s.slew[0])};
      arc.arc.fall_transition = {model.slews, model.loads,
                                 std::move(s.slew[1])};
      model.arcs.push_back(std::move(arc));
    }
  }
  for (auto& transfers : probe_transfers) {
    model.transfers.insert(model.transfers.end(), transfers.begin(),
                           transfers.end());
  }

  // Mirror the input-port sensitivities onto their interface arcs.
  for (auto& arc : model.arcs) {
    arc.noise_transfer = model.transfer(arc.from_port, arc.to_port);
  }
  return model;
}

netlist::Netlist carve_block(const netlist::Netlist& design,
                             const liberty::Library& lib,
                             std::span<const std::string> instances,
                             const std::string& block_name) {
  std::set<std::string> inside(instances.begin(), instances.end());
  for (const auto& name : instances) {
    if (!design.find_instance(name)) {
      throw std::invalid_argument("carve_block: unknown instance '" + name +
                                  "'");
    }
  }

  struct NetUse {
    bool driven_inside = false, driven_outside = false;
    bool consumed_inside = false, consumed_outside = false;
  };
  std::map<std::string, NetUse> use;
  for (const auto& inst : design.instances()) {
    const bool in = inside.count(inst.name) != 0;
    const liberty::Cell* cell = lib.find_cell(inst.cell);
    if (!cell) {
      throw std::invalid_argument("carve_block: instance '" + inst.name +
                                  "' uses unknown cell '" + inst.cell + "'");
    }
    for (const auto& [pin_name, net] : inst.pins) {
      const liberty::Pin* pin = cell->find_pin(pin_name);
      const bool drives =
          pin && pin->direction == liberty::PinDirection::kOutput;
      NetUse& u = use[net];
      if (drives) {
        (in ? u.driven_inside : u.driven_outside) = true;
      } else {
        (in ? u.consumed_inside : u.consumed_outside) = true;
      }
    }
  }
  for (const auto& p : design.ports()) {
    NetUse& u = use[p.name];
    if (p.direction == netlist::PortDirection::kInput) {
      u.driven_outside = true;
    } else {
      u.consumed_outside = true;
    }
  }

  netlist::Netlist block;
  // Walk nets in design order so port ordinals are deterministic.
  for (const auto& net : design.nets()) {
    auto it = use.find(net);
    if (it == use.end()) continue;
    const NetUse& u = it->second;
    if (u.consumed_inside && !u.driven_inside) {
      block.add_port(net, netlist::PortDirection::kInput);
    } else if (u.driven_inside && u.consumed_outside) {
      block.add_port(net, netlist::PortDirection::kOutput);
    }
  }
  if (block.ports().empty()) {
    throw std::invalid_argument("carve_block: carve of '" + block_name +
                                "' exposes no ports");
  }
  for (const auto& inst : design.instances()) {
    if (inside.count(inst.name)) block.add_instance(inst);
  }
  block.validate();
  return block;
}

}  // namespace waveletic::sta
