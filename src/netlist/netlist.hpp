#pragma once

/// \file netlist.hpp
/// Gate-level netlist: cell instances wired by nets, with primary
/// input/output ports.  This is the structure the mini-STA engine
/// levelizes; it is deliberately library-agnostic (cells are referenced
/// by name and resolved against a liberty::Library at analysis time).

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace waveletic::netlist {

struct Instance {
  std::string name;
  std::string cell;                         ///< library cell name
  std::map<std::string, std::string> pins;  ///< pin name -> net name
};

enum class PortDirection { kInput, kOutput };

struct Port {
  std::string name;  ///< also the net it connects to
  PortDirection direction = PortDirection::kInput;
};

class Netlist {
 public:
  std::string name = "top";

  void add_port(std::string port_name, PortDirection direction);
  void add_net(std::string net_name);
  /// Adds an instance; creates referenced nets that don't exist yet.
  void add_instance(Instance inst);

  // -- incremental edits (the ECO-service write path) ----------------------
  // Ordinal-stability contract: edits never remove or reorder nets,
  // ports, or instances — reroute_pin() may only APPEND a new net — so
  // every ordinal minted before an edit (net_ordinal(), NetId/PortId
  // handles, per-net table indices) stays valid afterwards.

  /// Replaces the library cell of an existing instance (resize/retype).
  /// Pin connections are untouched, so the pin-name set must be
  /// compatible with the new cell — checked at analysis time (and up
  /// front by sta::validate_edits()).  Throws util::Error for an
  /// unknown instance.
  void retype_instance(const std::string& instance_name,
                       std::string new_cell);
  /// Moves one pin of an instance onto `new_net`, creating the net if
  /// absent (appended after all existing nets, keeping every existing
  /// ordinal stable).  O(degree of the two nets).  Throws util::Error
  /// for an unknown instance or pin.
  void reroute_pin(const std::string& instance_name, const std::string& pin,
                   const std::string& new_net);

  [[nodiscard]] const std::vector<Port>& ports() const noexcept {
    return ports_;
  }
  [[nodiscard]] const std::vector<std::string>& nets() const noexcept {
    return nets_;
  }
  [[nodiscard]] const std::vector<Instance>& instances() const noexcept {
    return instances_;
  }

  [[nodiscard]] bool has_net(const std::string& net_name) const noexcept;
  /// Ordinal of `net_name` in nets() (stable for the netlist's
  /// lifetime), or -1 when absent.  O(1); this is what NetId handles
  /// index.
  [[nodiscard]] int net_ordinal(const std::string& net_name) const noexcept;
  /// Ordinal of `port_name` in ports(), or -1 when absent.  O(1).
  [[nodiscard]] int port_ordinal(const std::string& port_name) const noexcept;
  /// O(1).
  [[nodiscard]] const Port* find_port(
      const std::string& port_name) const noexcept;
  /// O(1).
  [[nodiscard]] const Instance* find_instance(
      const std::string& inst_name) const noexcept;

  /// Instance pins connected to `net_name`, in instance order and, within
  /// an instance, pin-map order.  O(degree of the net).
  struct PinRef {
    const Instance* instance;
    std::string pin;
  };
  [[nodiscard]] std::vector<PinRef> pins_on_net(
      const std::string& net_name) const;

  /// Structural checks used before timing analysis:
  ///  - every instance pin connects to a declared net,
  ///  - port names are unique and map to nets.
  /// Throws util::Error on violations.
  void validate() const;

  /// True when the net crosses the top-level interface (it is a port
  /// net) — an "interface net" for hierarchical composition.
  [[nodiscard]] bool is_interface_net(
      const std::string& net_name) const noexcept {
    return find_port(net_name) != nullptr;
  }

  /// Transitive fanout of the `seeds` net ordinals: every net reachable
  /// downstream through instances, seeds included, sorted ascending.
  /// The netlist is library-agnostic and cannot know pin directions, so
  /// `drives` decides which instance pins are outputs: an instance is
  /// reached when a non-driving pin of it touches a reached net, and
  /// its driving pins' nets then join the set.  This is the net-level
  /// fanout cone of the paper's central observation — a noise bump on a
  /// net perturbs timing only through these nets — and the netlist-
  /// layer counterpart of the vertex cone StaEngine::delta_plan()
  /// re-propagates.  O(total pins) per call; ignores seed ordinals that
  /// are out of range.
  [[nodiscard]] std::vector<int> transitive_fanout_nets(
      std::span<const int> seeds,
      const std::function<bool(const Instance&, const std::string& pin)>&
          drives) const;

  /// The instance driving the net (its first instance in instance order
  /// with a driving pin on it, by the same `drives` oracle as
  /// transitive_fanout_nets), or null when the net is driven by a port
  /// or undriven.  Two nets sharing a driver are complementary outputs
  /// of one cell — the correlation screen's same-driver rule.
  /// O(degree of the net) per call.
  [[nodiscard]] const Instance* driver_of(
      int net_ordinal,
      const std::function<bool(const Instance&, const std::string& pin)>&
          drives) const;

 private:
  /// Ordinal of `net_name`, appending the net first when absent.
  size_t intern_net(const std::string& net_name);

  std::vector<Port> ports_;
  std::vector<std::string> nets_;
  std::vector<Instance> instances_;
  // Name and connectivity indexes.  They hold ordinals, never
  // pointers, so a copied Netlist's indexes stay valid as they are.
  std::unordered_map<std::string, size_t> net_index_;
  std::unordered_map<std::string, size_t> port_index_;
  std::unordered_map<std::string, size_t> instance_index_;
  /// Per net ordinal: ascending ordinals of the instances with at least
  /// one pin on the net.
  std::vector<std::vector<uint32_t>> instances_on_net_;
};

}  // namespace waveletic::netlist
