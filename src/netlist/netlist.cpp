#include "netlist/netlist.hpp"

#include "util/error.hpp"

namespace waveletic::netlist {

void Netlist::add_port(std::string port_name, PortDirection direction) {
  util::require(find_port(port_name) == nullptr, "duplicate port ",
                port_name);
  add_net(port_name);
  ports_.push_back({std::move(port_name), direction});
}

void Netlist::add_net(std::string net_name) {
  if (has_net(net_name)) return;
  net_index_.emplace(net_name, nets_.size());
  nets_.push_back(std::move(net_name));
}

void Netlist::add_instance(Instance inst) {
  util::require(find_instance(inst.name) == nullptr, "duplicate instance ",
                inst.name);
  for (const auto& [pin, net] : inst.pins) add_net(net);
  instances_.push_back(std::move(inst));
}

void Netlist::retype_instance(const std::string& instance_name,
                              std::string new_cell) {
  for (auto& inst : instances_) {
    if (inst.name == instance_name) {
      inst.cell = std::move(new_cell);
      return;
    }
  }
  throw util::Error::fmt("retype_instance: unknown instance '", instance_name,
                         "' in netlist '", name, "'");
}

void Netlist::reroute_pin(const std::string& instance_name,
                          const std::string& pin,
                          const std::string& new_net) {
  Instance* target = nullptr;
  for (auto& inst : instances_) {
    if (inst.name == instance_name) {
      target = &inst;
      break;
    }
  }
  util::require(target != nullptr, "reroute_pin: unknown instance '",
                instance_name, "' in netlist '", name, "'");
  const auto it = target->pins.find(pin);
  util::require(it != target->pins.end(), "reroute_pin: instance '",
                instance_name, "' has no pin '", pin, "'");
  if (it->second == new_net) return;
  add_net(new_net);  // no-op when present; appends otherwise
  it->second = new_net;
}

bool Netlist::has_net(const std::string& net_name) const noexcept {
  return net_index_.count(net_name) > 0;
}

int Netlist::net_ordinal(const std::string& net_name) const noexcept {
  const auto it = net_index_.find(net_name);
  return it == net_index_.end() ? -1 : static_cast<int>(it->second);
}

std::vector<int> Netlist::transitive_fanout_nets(
    std::span<const int> seeds,
    const std::function<bool(const Instance&, const std::string& pin)>&
        drives) const {
  // One pass over every instance pin builds the net → consuming
  // instances index and each instance's driven-net list; the closure is
  // then a plain BFS over net ordinals.
  std::vector<std::vector<int>> consumers(nets_.size());  // net → instances
  std::vector<std::vector<int>> driven(instances_.size());  // inst → nets
  for (size_t i = 0; i < instances_.size(); ++i) {
    for (const auto& [pin, net] : instances_[i].pins) {
      const int ord = net_ordinal(net);
      if (drives(instances_[i], pin)) {
        driven[i].push_back(ord);
      } else {
        consumers[static_cast<size_t>(ord)].push_back(static_cast<int>(i));
      }
    }
  }
  std::vector<char> reached(nets_.size(), 0);
  std::vector<int> stack;
  for (const int seed : seeds) {
    if (seed < 0 || static_cast<size_t>(seed) >= nets_.size()) continue;
    if (!reached[static_cast<size_t>(seed)]) {
      reached[static_cast<size_t>(seed)] = 1;
      stack.push_back(seed);
    }
  }
  while (!stack.empty()) {
    const int net = stack.back();
    stack.pop_back();
    for (const int inst : consumers[static_cast<size_t>(net)]) {
      for (const int out : driven[static_cast<size_t>(inst)]) {
        if (!reached[static_cast<size_t>(out)]) {
          reached[static_cast<size_t>(out)] = 1;
          stack.push_back(out);
        }
      }
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < nets_.size(); ++i) {
    if (reached[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

const Instance* Netlist::driver_of(
    int net_ordinal,
    const std::function<bool(const Instance&, const std::string& pin)>&
        drives) const {
  if (net_ordinal < 0 || static_cast<size_t>(net_ordinal) >= nets_.size()) {
    return nullptr;
  }
  const std::string& net = nets_[static_cast<size_t>(net_ordinal)];
  for (const auto& inst : instances_) {
    for (const auto& [pin, pin_net] : inst.pins) {
      if (pin_net == net && drives(inst, pin)) return &inst;
    }
  }
  return nullptr;
}

const Port* Netlist::find_port(const std::string& port_name) const noexcept {
  for (const auto& p : ports_) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

const Instance* Netlist::find_instance(
    const std::string& inst_name) const noexcept {
  for (const auto& inst : instances_) {
    if (inst.name == inst_name) return &inst;
  }
  return nullptr;
}

std::vector<Netlist::PinRef> Netlist::pins_on_net(
    const std::string& net_name) const {
  std::vector<PinRef> out;
  for (const auto& inst : instances_) {
    for (const auto& [pin, net] : inst.pins) {
      if (net == net_name) out.push_back({&inst, pin});
    }
  }
  return out;
}

void Netlist::validate() const {
  for (const auto& inst : instances_) {
    util::require(!inst.pins.empty(), "instance ", inst.name,
                  " has no connections");
    for (const auto& [pin, net] : inst.pins) {
      util::require(has_net(net), "instance ", inst.name, " pin ", pin,
                    " references unknown net ", net);
    }
  }
  for (const auto& port : ports_) {
    util::require(has_net(port.name), "port ", port.name, " has no net");
  }
}

}  // namespace waveletic::netlist
