// Netlist model and structural-Verilog parser tests.

#include <gtest/gtest.h>

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
