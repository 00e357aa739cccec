#include "sta/macromodel.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "charlib/characterize.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"

namespace waveletic::sta {

namespace {

liberty::NldmTable make_table(const std::vector<double>& slews,
                              const std::vector<double>& loads,
                              std::vector<double> values) {
  return liberty::NldmTable(slews, loads, std::move(values));
}

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
  if (model.slews.empty() || model.loads.empty()) {
    throw std::invalid_argument("extract_block_model: empty grid axis");
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
  if (inputs.empty() || outputs.empty()) {
    throw std::invalid_argument(
        "extract_block_model: block needs at least one input and one "
        "output port");
  }

  StaEngine proto(block, lib);
  proto.set_threads(options.threads);

  const size_t n_slew = model.slews.size();
  const size_t n_load = model.loads.size();
  const size_t n_grid = n_slew * n_load;
  const size_t n_out = outputs.size();

  // Per (input, output): delay/slew samples per transition, row-major
  // (slew-major, load-minor) like NldmTable, plus an all-grid-points
  // validity flag (structural reachability is constant over the grid).
  struct ArcSamples {
    std::vector<double> delay[2], slew[2];
    bool reachable = true;
    ArcSamples(size_t n) {
      for (int rf = 0; rf < 2; ++rf) {
        delay[rf].assign(n, 0.0);
        slew[rf].assign(n, 0.0);
      }
    }
  };

  for (const auto& in : inputs) {
    std::vector<ArcSamples> samples(n_out, ArcSamples(n_grid));
    for (size_t l = 0; l < n_load; ++l) {
      auto eng = proto.fork();
      for (const auto& out : outputs) eng->set_output_load(out, model.loads[l]);
      for (size_t s = 0; s < n_slew; ++s) {
        eng->set_input(in, 0.0, model.slews[s]);
        eng->run();
        for (size_t o = 0; o < n_out; ++o) {
          const size_t at = s * n_load + l;
          for (int rf = 0; rf < 2; ++rf) {
            const PinTiming& t =
                eng->timing(outputs[o], static_cast<RiseFall>(rf));
            if (!t.valid) {
              samples[o].reachable = false;
              continue;
            }
            samples[o].delay[rf][at] = t.arrival;
            samples[o].slew[rf][at] = t.slew;
          }
        }
      }
    }
    for (size_t o = 0; o < n_out; ++o) {
      if (!samples[o].reachable) continue;
      BlockPortArc arc;
      arc.from_port = in;
      arc.to_port = outputs[o];
      arc.arc.related_pin = in;
      arc.arc.sense = liberty::TimingSense::kNonUnate;
      arc.arc.cell_rise = make_table(model.slews, model.loads,
                                     std::move(samples[o].delay[0]));
      arc.arc.cell_fall = make_table(model.slews, model.loads,
                                     std::move(samples[o].delay[1]));
      arc.arc.rise_transition = make_table(model.slews, model.loads,
                                           std::move(samples[o].slew[0]));
      arc.arc.fall_transition = make_table(model.slews, model.loads,
                                           std::move(samples[o].slew[1]));
      model.arcs.push_back(std::move(arc));
    }
  }

  // -- noise-transfer characterization at the reference grid point ------
  const double ref_slew = model.slews[model.slews.size() / 2];
  const double ref_load = model.loads[model.loads.size() / 2];
  const double vdd = lib.nom_voltage;
  const double amplitude = options.noise_amplitude_fraction * vdd;
  const RiseFall victim_rf = options.noise_polarity == wave::Polarity::kRising
                                 ? RiseFall::kRise
                                 : RiseFall::kFall;

  auto ref = proto.fork();
  for (const auto& in : inputs) ref->set_input(in, 0.0, ref_slew);
  for (const auto& out : outputs) ref->set_output_load(out, ref_load);
  ref->run();

  struct BaseArrival {
    double arrival[2] = {0.0, 0.0};
    bool valid[2] = {false, false};
  };
  std::vector<BaseArrival> base(n_out);
  for (size_t o = 0; o < n_out; ++o) {
    for (int rf = 0; rf < 2; ++rf) {
      const PinTiming& t = ref->timing(outputs[o], static_cast<RiseFall>(rf));
      base[o].valid[rf] = t.valid;
      base[o].arrival[rf] = t.arrival;
    }
  }

  std::vector<std::string> probe_nets = inputs;
  for (const auto& n : options.noise_nets) {
    if (block.net_ordinal(n) < 0) {
      throw std::invalid_argument("extract_block_model: unknown noise net '" +
                                  n + "'");
    }
    probe_nets.push_back(n);
  }

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
    const NoiseScenario probe = make_aggressor_scenario(
        net, victim_arrival, victim_slew, vdd, options.noise_polarity,
        /*alignment=*/0.0, amplitude, options.waveform_samples);
    for (const auto& entry : probe.entries) {
      ref->annotate_noisy_net(entry.net, entry.annotation.waveform,
                              entry.annotation.polarity);
    }
    ref->run();
    for (size_t o = 0; o < n_out; ++o) {
      double sens = 0.0;
      bool any = false;
      for (int rf = 0; rf < 2; ++rf) {
        if (!base[o].valid[rf]) continue;
        const PinTiming& t =
            ref->timing(outputs[o], static_cast<RiseFall>(rf));
        if (!t.valid) continue;
        any = true;
        sens = std::max(sens, (t.arrival - base[o].arrival[rf]) / amplitude);
      }
      if (!any) continue;
      model.transfers.push_back({net, outputs[o], sens});
    }
    ref->clear_noisy_nets();
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
