// Netlist model and structural-Verilog parser tests.

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "util/error.hpp"

namespace nl = waveletic::netlist;
namespace wu = waveletic::util;

TEST(Netlist, PortsNetsInstances) {
  nl::Netlist net;
  net.add_port("a", nl::PortDirection::kInput);
  net.add_port("y", nl::PortDirection::kOutput);
  net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "y"}}});
  EXPECT_TRUE(net.has_net("a"));
  EXPECT_TRUE(net.has_net("y"));
  ASSERT_NE(net.find_port("a"), nullptr);
  EXPECT_EQ(net.find_port("a")->direction, nl::PortDirection::kInput);
  ASSERT_NE(net.find_instance("u1"), nullptr);
  EXPECT_EQ(net.find_instance("u1")->cell, "INVX1");
  EXPECT_NO_THROW(net.validate());
}

TEST(Netlist, InstanceCreatesNets) {
  nl::Netlist net;
  net.add_instance({"u1", "INVX1", {{"A", "n_in"}, {"Y", "n_out"}}});
  EXPECT_TRUE(net.has_net("n_in"));
  EXPECT_TRUE(net.has_net("n_out"));
}

TEST(Netlist, DuplicatesRejected) {
  nl::Netlist net;
  net.add_port("a", nl::PortDirection::kInput);
  EXPECT_THROW(net.add_port("a", nl::PortDirection::kOutput), wu::Error);
  net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "y"}}});
  EXPECT_THROW(net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "z"}}}),
               wu::Error);
}

TEST(Netlist, PinsOnNet) {
  nl::Netlist net;
  net.add_instance({"u1", "INVX1", {{"A", "a"}, {"Y", "n1"}}});
  net.add_instance({"u2", "INVX1", {{"A", "n1"}, {"Y", "y"}}});
  net.add_instance({"u3", "INVX1", {{"A", "n1"}, {"Y", "z"}}});
  const auto refs = net.pins_on_net("n1");
  EXPECT_EQ(refs.size(), 3u);  // u1/Y, u2/A, u3/A
}

TEST(Netlist, InterfaceNetsArePortNets) {
  const auto net = nl::make_chain_tree(4);
  EXPECT_TRUE(net.is_interface_net("a0"));   // input port
  EXPECT_TRUE(net.is_interface_net("y"));    // output port
  EXPECT_FALSE(net.is_interface_net("c0_1"));  // interior chain net
}

namespace {

/// Checks pins_on_net(), find_instance() and find_port() of `net`
/// against a brute-force linear scan of its instances and ports: same
/// content and same order, for every net.
::testing::AssertionResult indexes_match_scan(const nl::Netlist& net) {
  const auto& instances = net.instances();
  for (const auto& name : net.nets()) {
    std::vector<nl::Netlist::PinRef> want;
    for (const auto& inst : instances) {
      for (const auto& [pin, pin_net] : inst.pins) {
        if (pin_net == name) want.push_back({&inst, pin});
      }
    }
    const auto got = net.pins_on_net(name);
    if (got.size() != want.size()) {
      return ::testing::AssertionFailure()
             << "net " << name << ": pins_on_net has " << got.size()
             << " pins, the scan finds " << want.size();
    }
    for (size_t k = 0; k < got.size(); ++k) {
      if (got[k].instance != want[k].instance || got[k].pin != want[k].pin) {
        return ::testing::AssertionFailure()
               << "net " << name << " pin " << k << ": pins_on_net gives "
               << got[k].instance->name << "/" << got[k].pin
               << ", the scan gives " << want[k].instance->name << "/"
               << want[k].pin;
      }
    }
  }
  for (const auto& inst : instances) {
    if (net.find_instance(inst.name) != &inst) {
      return ::testing::AssertionFailure()
             << "find_instance(" << inst.name << ") misses its instance";
    }
  }
  const auto& ports = net.ports();
  for (size_t p = 0; p < ports.size(); ++p) {
    if (net.find_port(ports[p].name) != &ports[p] ||
        net.port_ordinal(ports[p].name) != static_cast<int>(p)) {
      return ::testing::AssertionFailure()
             << "find_port(" << ports[p].name << ") misses port " << p;
    }
  }
  if (net.find_instance("no_such_instance") != nullptr ||
      net.find_port("no_such_port") != nullptr ||
      !net.pins_on_net("no_such_net").empty()) {
    return ::testing::AssertionFailure() << "an unknown name resolved";
  }
  return ::testing::AssertionSuccess();
}

/// Every net's pins as (instance, pin) names: a deep copy that later
/// edits cannot change.
using PinNames = std::vector<std::vector<std::pair<std::string, std::string>>>;

PinNames pin_names_by_net(const nl::Netlist& net) {
  PinNames out;
  for (const auto& name : net.nets()) {
    auto& pins = out.emplace_back();
    for (const auto& ref : net.pins_on_net(name)) {
      pins.emplace_back(ref.instance->name, ref.pin);
    }
  }
  return out;
}

}  // namespace

TEST(Netlist, IndexesMatchLinearScanUnderEdits) {
  nl::Netlist net = nl::make_random_dag(7, 5, 6, 8);
  ASSERT_TRUE(indexes_match_scan(net));
  std::mt19937_64 rng(20261017);
  const auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  // A random (pin, net) connection of `inst`.
  const auto any_pin = [&below](const nl::Instance& inst) {
    return *std::next(inst.pins.begin(),
                      static_cast<std::ptrdiff_t>(below(inst.pins.size())));
  };

  constexpr int kSteps = 400;
  std::optional<nl::Netlist> copy;
  PinNames copy_pins;
  int fresh_nets = 0;
  for (int step = 0; step < kSteps; ++step) {
    const nl::Instance& inst = net.instances()[below(net.instances().size())];
    const std::string name = inst.name;
    if (below(4) == 0) {
      net.retype_instance(name, below(2) == 0 ? "INVX1" : "INVX4");
    } else {
      const std::string pin = any_pin(inst).first;
      std::string target;
      switch (below(3)) {
        case 0:  // a new net, appended
          target = "eco" + std::to_string(fresh_nets++);
          break;
        case 1:  // any existing net
          target = net.nets()[below(net.nets().size())];
          break;
        default:  // a net the instance already touches (maybe this pin's)
          target = any_pin(inst).second;
          break;
      }
      net.reroute_pin(name, pin, target);
    }
    ASSERT_TRUE(indexes_match_scan(net)) << "after edit " << step;
    if (step == kSteps / 2) {
      copy.emplace(net);
      copy_pins = pin_names_by_net(*copy);
      ASSERT_TRUE(indexes_match_scan(*copy));
    }
  }
  EXPECT_GT(fresh_nets, 0);

  // The copy kept its own indexes: the original's later edits did not
  // reach it, and it answers with pointers into its own instances.
  ASSERT_TRUE(copy.has_value());
  EXPECT_TRUE(indexes_match_scan(*copy));
  EXPECT_EQ(pin_names_by_net(*copy), copy_pins);
  const nl::Instance& first = copy->instances().front();
  copy->reroute_pin(first.name, first.pins.begin()->first, "copy_only");
  EXPECT_TRUE(indexes_match_scan(*copy));
  EXPECT_FALSE(net.has_net("copy_only"));
  EXPECT_TRUE(indexes_match_scan(net));

  // Duplicates still throw, and a rejected add leaves the indexes alone.
  for (nl::Netlist* n : {&net, &*copy}) {
    const std::string inst_name = n->instances().back().name;
    const std::string port_name = n->ports().front().name;
    EXPECT_THROW(n->add_instance({inst_name, "INVX1",
                                  {{"A", port_name}, {"Y", "dup_out"}}}),
                 wu::Error);
    EXPECT_THROW(n->add_port(port_name, nl::PortDirection::kOutput),
                 wu::Error);
    EXPECT_THROW(n->retype_instance("no_such_instance", "INVX1"), wu::Error);
    EXPECT_THROW(n->reroute_pin("no_such_instance", "A", "x"), wu::Error);
    EXPECT_THROW(n->reroute_pin(inst_name, "NO_SUCH_PIN", "x"), wu::Error);
    EXPECT_FALSE(n->has_net("dup_out"));
    EXPECT_FALSE(n->has_net("x"));
    EXPECT_TRUE(indexes_match_scan(*n));
  }
}

TEST(Verilog, ParsesRepresentativeModule) {
  const auto net = nl::parse_verilog(R"(
// a small mapped block
module top (a, b, y);
  input a, b;
  output y;
  wire n1; /* internal */
  INVX1 u1 (.A(a), .Y(n1));
  NAND2X1 u2 (.A(n1), .B(b), .Y(y));
endmodule
)");
  EXPECT_EQ(net.name, "top");
  EXPECT_EQ(net.ports().size(), 3u);
  EXPECT_EQ(net.instances().size(), 2u);
  ASSERT_NE(net.find_instance("u2"), nullptr);
  EXPECT_EQ(net.find_instance("u2")->pins.at("B"), "b");
  EXPECT_TRUE(net.has_net("n1"));
}

TEST(Verilog, MultiNameDeclarations) {
  const auto net = nl::parse_verilog(
      "module m (p, q, r);\n input p, q;\n output r;\n wire w1, w2;\n"
      " INVX1 u1 (.A(p), .Y(w1));\n INVX1 u2 (.A(w1), .Y(r));\n"
      "endmodule\n");
  EXPECT_TRUE(net.has_net("w2"));
  EXPECT_EQ(net.ports().size(), 3u);
}

TEST(Verilog, RejectsPositionalConnections) {
  EXPECT_THROW((void)nl::parse_verilog("module m (a);\n input a;\n"
                                       " INVX1 u1 (a, y);\nendmodule\n"),
               wu::Error);
}

TEST(Verilog, RejectsUnsupportedConstructs) {
  EXPECT_THROW((void)nl::parse_verilog("module m (a);\n input a;\n"
                                       " assign b = a;\nendmodule\n"),
               wu::Error);
  EXPECT_THROW((void)nl::parse_verilog("module m (a);\n input a;\n"),
               wu::Error);  // missing endmodule
  EXPECT_THROW((void)nl::parse_verilog("module m (a);\n"
                                       " INVX1 u (.A(a), .A(a));\n"
                                       "endmodule\n"),
               wu::Error);  // duplicate pin, and port a undeclared
}

TEST(Verilog, PortMissingDirectionThrows) {
  EXPECT_THROW((void)nl::parse_verilog("module m (a, b);\n input a;\n"
                                       "endmodule\n"),
               wu::Error);
}
