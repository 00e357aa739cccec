#include "spice/circuit.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace waveletic::spice {

const char* to_string(Integration m) noexcept {
  switch (m) {
    case Integration::kBackwardEuler:
      return "backward-euler";
    case Integration::kTrapezoidal:
      return "trapezoidal";
  }
  return "?";
}

namespace {
bool is_ground_name(std::string_view name) noexcept {
  return name == "0" || util::iequals(name, "gnd");
}
}  // namespace

Circuit::Circuit() {
  names_.push_back("0");
  index_.emplace("0", kGround);
}

NodeId Circuit::node(std::string_view name) {
  util::require(!name.empty(), "empty node name");
  if (is_ground_name(name)) return kGround;
  const std::string key = util::to_lower(name);
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(key, id);
  return id;
}

NodeId Circuit::find_node(std::string_view name) const {
  if (is_ground_name(name)) return kGround;
  const auto it = index_.find(util::to_lower(name));
  util::require(it != index_.end(), "unknown node: ", name);
  return it->second;
}

bool Circuit::has_node(std::string_view name) const noexcept {
  if (is_ground_name(name)) return true;
  return index_.count(util::to_lower(name)) > 0;
}

const std::string& Circuit::node_name(NodeId id) const {
  util::require(id >= 0 && static_cast<size_t>(id) < names_.size(),
                "node id out of range: ", id);
  return names_[static_cast<size_t>(id)];
}

Device* Circuit::find_device(std::string_view name) noexcept {
  for (const auto& dev : devices_) {
    if (util::iequals(dev->name(), name)) return dev.get();
  }
  return nullptr;
}

std::string Circuit::describe() const {
  std::ostringstream os;
  os << "circuit: " << node_count() << " nodes, " << devices_.size()
     << " devices\n";
  for (const auto& dev : devices_) {
    os << "  " << dev->name() << '\n';
  }
  return os.str();
}

}  // namespace waveletic::spice
