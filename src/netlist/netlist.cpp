#include "netlist/netlist.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace waveletic::netlist {

void Netlist::add_port(std::string port_name, PortDirection direction) {
  util::require(find_port(port_name) == nullptr, "duplicate port ",
                port_name);
  add_net(port_name);
  port_index_.emplace(port_name, ports_.size());
  ports_.push_back({std::move(port_name), direction});
}

void Netlist::add_net(std::string net_name) { (void)intern_net(net_name); }

size_t Netlist::intern_net(const std::string& net_name) {
  const auto [it, inserted] = net_index_.try_emplace(net_name, nets_.size());
  if (inserted) {
    nets_.push_back(net_name);
    instances_on_net_.emplace_back();
  }
  return it->second;
}

void Netlist::add_instance(Instance inst) {
  util::require(find_instance(inst.name) == nullptr, "duplicate instance ",
                inst.name);
  // The new instance has the highest ordinal, so appending keeps every
  // per-net list ascending; a second pin on the same net finds itself
  // at the back already.
  const auto ordinal = static_cast<uint32_t>(instances_.size());
  for (const auto& [pin, net] : inst.pins) {
    auto& on_net = instances_on_net_[intern_net(net)];
    if (on_net.empty() || on_net.back() != ordinal) on_net.push_back(ordinal);
  }
  instance_index_.emplace(inst.name, ordinal);
  instances_.push_back(std::move(inst));
}

void Netlist::retype_instance(const std::string& instance_name,
                              std::string new_cell) {
  const auto it = instance_index_.find(instance_name);
  if (it == instance_index_.end()) {
    throw util::Error::fmt("retype_instance: unknown instance '",
                           instance_name, "' in netlist '", name, "'");
  }
  instances_[it->second].cell = std::move(new_cell);
}

void Netlist::reroute_pin(const std::string& instance_name,
                          const std::string& pin,
                          const std::string& new_net) {
  const auto found = instance_index_.find(instance_name);
  util::require(found != instance_index_.end(),
                "reroute_pin: unknown instance '", instance_name,
                "' in netlist '", name, "'");
  const auto ordinal = static_cast<uint32_t>(found->second);
  Instance& target = instances_[ordinal];
  const auto it = target.pins.find(pin);
  util::require(it != target.pins.end(), "reroute_pin: instance '",
                instance_name, "' has no pin '", pin, "'");
  if (it->second == new_net) return;
  const size_t new_ord = intern_net(new_net);  // appends when absent
  const std::string old_net = std::exchange(it->second, new_net);

  // The instance leaves the old net's list only when none of its other
  // pins is still there, and joins the new net's list at its sorted
  // position unless another of its pins is already on it.
  const bool still_on_old =
      std::any_of(target.pins.begin(), target.pins.end(),
                  [&](const auto& p) { return p.second == old_net; });
  if (!still_on_old) {
    auto& on_old = instances_on_net_[net_index_.at(old_net)];
    on_old.erase(std::lower_bound(on_old.begin(), on_old.end(), ordinal));
  }
  auto& on_new = instances_on_net_[new_ord];
  const auto pos = std::lower_bound(on_new.begin(), on_new.end(), ordinal);
  if (pos == on_new.end() || *pos != ordinal) on_new.insert(pos, ordinal);
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
  for (const uint32_t i : instances_on_net_[static_cast<size_t>(net_ordinal)]) {
    const Instance& inst = instances_[i];
    for (const auto& [pin, pin_net] : inst.pins) {
      if (pin_net == net && drives(inst, pin)) return &inst;
    }
  }
  return nullptr;
}

int Netlist::port_ordinal(const std::string& port_name) const noexcept {
  const auto it = port_index_.find(port_name);
  return it == port_index_.end() ? -1 : static_cast<int>(it->second);
}

const Port* Netlist::find_port(const std::string& port_name) const noexcept {
  const auto it = port_index_.find(port_name);
  return it == port_index_.end() ? nullptr : &ports_[it->second];
}

const Instance* Netlist::find_instance(
    const std::string& inst_name) const noexcept {
  const auto it = instance_index_.find(inst_name);
  return it == instance_index_.end() ? nullptr : &instances_[it->second];
}

std::vector<Netlist::PinRef> Netlist::pins_on_net(
    const std::string& net_name) const {
  std::vector<PinRef> out;
  const int ord = net_ordinal(net_name);
  if (ord < 0) return out;
  for (const uint32_t i : instances_on_net_[static_cast<size_t>(ord)]) {
    const Instance& inst = instances_[i];
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
