// Handle-based STA API: PinId/NetId/PortId resolution, stale/foreign
// handle rejection, constraint-setter value validation, bitwise
// equivalence of the string and handle overloads, enriched unknown-name
// errors, and the compiled per-edge annotation table.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "netlist/verilog.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "util/error.hpp"
#include "wave/ramp.hpp"

namespace cl = waveletic::charlib;
namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

const lb::Library& lib() {
  static const lb::Library library = cl::build_vcl013_library_fast();
  return library;
}

nl::Netlist inv_chain3() {
  return nl::parse_verilog(R"(
module chain (a, y);
  input a;
  output y;
  wire n1, n2;
  INVX1 u1 (.A(a), .Y(n1));
  INVX1 u2 (.A(n1), .Y(n2));
  INVX4 u3 (.A(n2), .Y(y));
endmodule
)");
}

/// The message an Error-throwing callable produces (fails the test if
/// nothing is thrown).
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const wu::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::Error";
  return {};
}

}  // namespace

TEST(StaHandles, ResolveAndNameRoundTrip) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());

  const st::PinId p = sta.pin("u1/A");
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(sta.name(p), "u1/A");

  const st::NetId n = sta.net("n1");
  EXPECT_TRUE(n.valid());
  EXPECT_EQ(sta.name(n), "n1");

  const st::PortId a = sta.port("a");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(sta.name(a), "a");

  // Resolving twice yields the same handle.
  EXPECT_EQ(sta.pin("u1/A"), p);
  EXPECT_EQ(sta.net("n1"), n);
  EXPECT_EQ(sta.port("a"), a);
}

TEST(StaHandles, UnknownNamesThrowWithNearestSuggestions) {
  const auto net = inv_chain3();
  st::StaEngine sta(net, lib());
  sta.set_input("a", 0.0, 100e-12);
  sta.run();

  // timing(): offending name plus nearest known vertices.
  const auto pin_msg =
      error_message([&] { (void)sta.timing("u2/AA", st::RiseFall::kRise); });
  EXPECT_NE(pin_msg.find("u2/AA"), std::string::npos) << pin_msg;
  EXPECT_NE(pin_msg.find("nearest"), std::string::npos) << pin_msg;
  EXPECT_NE(pin_msg.find("u2/A"), std::string::npos) << pin_msg;

  const auto net_msg = error_message([&] { (void)sta.net("n11"); });
  EXPECT_NE(net_msg.find("n11"), std::string::npos) << net_msg;
  EXPECT_NE(net_msg.find("n1"), std::string::npos) << net_msg;

  // Unknown port errors list the available ports.
  const auto port_msg = error_message([&] { (void)sta.port("clk"); });
  EXPECT_NE(port_msg.find("clk"), std::string::npos) << port_msg;
  EXPECT_NE(port_msg.find("a"), std::string::npos) << port_msg;
  EXPECT_NE(port_msg.find("y"), std::string::npos) << port_msg;
}

TEST(StaHandles, InvalidAndForeignHandlesRejected) {
  const auto netlist = inv_chain3();
  st::StaEngine sta_a(netlist, lib());
  st::StaEngine sta_b(netlist, lib());
  sta_a.set_input("a", 0.0, 100e-12);
  sta_a.run();

  // Default-constructed handles are invalid everywhere.
  EXPECT_THROW((void)sta_a.timing(st::PinId{}, st::RiseFall::kRise),
               wu::Error);
  EXPECT_THROW(sta_a.set_required(st::PortId{}, 1e-9), wu::Error);
  EXPECT_THROW(sta_a.set_net_parasitics(st::NetId{}, 0.0, 0.0), wu::Error);

  // Handles minted by a different engine are rejected even though the
  // underlying netlist (and so every index) is identical.
  const st::PinId foreign_pin = sta_b.pin("y");
  const st::NetId foreign_net = sta_b.net("n1");
  const st::PortId foreign_port = sta_b.port("a");
  EXPECT_THROW((void)sta_a.timing(foreign_pin, st::RiseFall::kFall),
               wu::Error);
  EXPECT_THROW((void)sta_a.noisy_net(foreign_net), wu::Error);
  EXPECT_THROW(sta_a.set_input(foreign_port, 0.0, 100e-12), wu::Error);
  EXPECT_THROW((void)sta_a.name(foreign_pin), wu::Error);

  // The same handles work on their own engine.
  sta_b.set_input(foreign_port, 0.0, 100e-12);
  sta_b.run();
  EXPECT_TRUE(sta_b.timing(foreign_pin, st::RiseFall::kFall).valid);
}

TEST(StaHandles, SettersRejectValuesEditBatchesReject) {
  // The same value rules as EditBatch validation: every value finite,
  // slew > 0, caps and wire delays >= 0.  Errors name the port or net
  // and the offending value.
  const auto netlist = inv_chain3();
  st::StaEngine sta(netlist, lib());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    std::function<void()> call;
    const char* names;  ///< port or net the message must name
    double value;       ///< value the message must print
  };
  const std::vector<Case> cases = {
      {"arrival nan", [&] { sta.set_input("a", nan, 100e-12); }, "a", nan},
      {"arrival +inf", [&] { sta.set_input("a", inf, 100e-12); }, "a", inf},
      {"slew nan", [&] { sta.set_input("a", 0.0, nan); }, "a", nan},
      {"slew +inf",
       [&] { sta.set_input("a", st::RiseFall::kRise, 0.0, inf); }, "a", inf},
      {"slew zero", [&] { sta.set_input(sta.port("a"), 0.0, 0.0); }, "a",
       0.0},
      {"slew negative", [&] { sta.set_input("a", 0.0, -5e-12); }, "a",
       -5e-12},
      {"load nan", [&] { sta.set_output_load("y", nan); }, "y", nan},
      {"load -inf", [&] { sta.set_output_load(sta.port("y"), -inf); }, "y",
       -inf},
      {"load negative", [&] { sta.set_output_load("y", -1e-15); }, "y",
       -1e-15},
      {"required nan", [&] { sta.set_required("y", nan); }, "y", nan},
      {"required -inf", [&] { sta.set_required(sta.port("y"), -inf); }, "y",
       -inf},
      {"parasitic cap nan", [&] { sta.set_net_parasitics("n1", nan, 0.0); },
       "n1", nan},
      {"parasitic cap negative",
       [&] { sta.set_net_parasitics("n1", -2e-15, 0.0); }, "n1", -2e-15},
      {"wire delay +inf",
       [&] { sta.set_net_parasitics(sta.net("n2"), 0.0, inf); }, "n2", inf},
      {"wire delay negative",
       [&] { sta.set_net_parasitics("n2", 0.0, -3e-12); }, "n2", -3e-12},
  };
  for (const auto& c : cases) {
    const std::string msg = error_message(c.call);
    std::ostringstream value;
    value << c.value;
    EXPECT_NE(msg.find(std::string(" ") + c.names), std::string::npos)
        << c.what << ": " << msg;
    EXPECT_NE(msg.find(value.str()), std::string::npos)
        << c.what << ": " << msg;
  }

  // Boundary values stay legal: negative (finite) times, zero caps and
  // zero wire delay.
  EXPECT_NO_THROW(sta.set_input("a", -10e-12, 100e-12));
  EXPECT_NO_THROW(sta.set_output_load("y", 0.0));
  EXPECT_NO_THROW(sta.set_required("y", -1e-9));
  EXPECT_NO_THROW(sta.set_net_parasitics("n1", 0.0, 0.0));
}

TEST(StaHandles, StringAndHandleOverloadsBitwiseEquivalent) {
  const auto netlist = inv_chain3();

  // One engine constrained + annotated by name, one by handle.
  st::StaEngine by_name(netlist, lib());
  by_name.set_input("a", 0.0, 100e-12);
  by_name.set_output_load("y", 5e-15);
  by_name.set_required("y", 1e-9);
  by_name.set_net_parasitics("n2", 4e-15, 8e-12);

  st::StaEngine by_handle(netlist, lib());
  by_handle.set_input(by_handle.port("a"), 0.0, 100e-12);
  by_handle.set_output_load(by_handle.port("y"), 5e-15);
  by_handle.set_required(by_handle.port("y"), 1e-9);
  by_handle.set_net_parasitics(by_handle.net("n2"), 4e-15, 8e-12);

  // Noisy annotation: string path vs NetId path.
  by_name.run();
  const auto& v = by_name.timing("u2/A", st::RiseFall::kFall);
  const auto ramp =
      wv::Ramp::from_arrival_slew(v.arrival, v.slew, lib().nom_voltage);
  const auto noisy = ramp.denormalized(wv::Polarity::kFalling, 256);
  by_name.annotate_noisy_net("n1", noisy, wv::Polarity::kFalling);
  by_handle.annotate_noisy_net(by_handle.net("n1"), noisy,
                               wv::Polarity::kFalling);

  by_name.run();
  by_handle.run();

  for (const char* pin : {"a", "u1/A", "u1/Y", "u2/A", "u2/Y", "u3/Y", "y"}) {
    for (int rf = 0; rf < 2; ++rf) {
      const auto r = static_cast<st::RiseFall>(rf);
      const auto& tn = by_name.timing(pin, r);
      const auto& th = by_handle.timing(by_handle.pin(pin), r);
      EXPECT_EQ(tn.valid, th.valid) << pin;
      EXPECT_EQ(tn.arrival, th.arrival) << pin;  // bitwise: no tolerance
      EXPECT_EQ(tn.slew, th.slew) << pin;
      EXPECT_EQ(tn.required, th.required) << pin;
    }
  }
  EXPECT_EQ(by_name.worst_slack(), by_handle.worst_slack());
}

TEST(StaHandles, NoisyNetTableIsDenseAndClearable) {
  const auto netlist = inv_chain3();
  st::StaEngine sta(netlist, lib());
  const st::NetId n1 = sta.net("n1");
  EXPECT_EQ(sta.noisy_net(n1), nullptr);
  EXPECT_EQ(sta.noisy_net_count(), 0u);

  const auto ramp = wv::Ramp::from_arrival_slew(0.2e-9, 80e-12, 1.2);
  sta.annotate_noisy_net(n1, ramp.denormalized(wv::Polarity::kFalling, 64),
                         wv::Polarity::kFalling);
  ASSERT_NE(sta.noisy_net(n1), nullptr);
  EXPECT_EQ(sta.noisy_net(n1)->polarity, wv::Polarity::kFalling);
  EXPECT_EQ(sta.noisy_net("n1"), sta.noisy_net(n1));
  EXPECT_EQ(sta.noisy_net_count(), 1u);

  // Re-annotating the same net replaces in place (still one slot).
  sta.annotate_noisy_net("n1", ramp.denormalized(wv::Polarity::kRising, 64),
                         wv::Polarity::kRising);
  EXPECT_EQ(sta.noisy_net_count(), 1u);
  EXPECT_EQ(sta.noisy_net(n1)->polarity, wv::Polarity::kRising);

  sta.clear_noisy_nets();
  EXPECT_EQ(sta.noisy_net(n1), nullptr);
  EXPECT_EQ(sta.noisy_net_count(), 0u);
}

TEST(StaHandles, CompiledEdgeTableResolvesOverlayWithoutMaps) {
  const auto netlist = inv_chain3();
  st::StaEngine sta(netlist, lib());
  sta.set_input("a", 0.0, 100e-12);
  sta.prepare();

  const auto ramp = wv::Ramp::from_arrival_slew(0.2e-9, 80e-12, 1.2);
  sta.annotate_noisy_net("n1",
                         ramp.denormalized(wv::Polarity::kFalling, 64),
                         wv::Polarity::kFalling);

  st::NoiseScenario sc;
  sc.name = "overlay";
  sc.annotate("n1", ramp.denormalized(wv::Polarity::kFalling, 128),
              wv::Polarity::kFalling);
  sc.annotate("n2", ramp.denormalized(wv::Polarity::kRising, 64),
              wv::Polarity::kRising);

  // Engine-only table: exactly the one edge of n1 annotated, with the
  // engine's annotation.
  const auto base = sta.compile_edge_annotations();
  ASSERT_EQ(base.size(), sta.net_edge_count());
  size_t base_hits = 0;
  for (const auto* ann : base) {
    if (ann == nullptr) continue;
    ++base_hits;
    EXPECT_EQ(ann, sta.noisy_net(sta.net("n1")));
  }
  EXPECT_EQ(base_hits, 1u);  // n1 has a single sink (u2/A)

  // Overlaid table: scenario wins on n1, adds n2; pointers alias the
  // scenario's entries directly.
  const auto overlaid = sta.compile_edge_annotations(&sc);
  size_t n1_hits = 0;
  size_t n2_hits = 0;
  for (const auto* ann : overlaid) {
    if (ann == nullptr) continue;
    if (ann == sc.find("n1")) ++n1_hits;
    if (ann == sc.find("n2")) ++n2_hits;
  }
  EXPECT_EQ(n1_hits, 1u);
  EXPECT_EQ(n2_hits, 1u);

  // A scenario referencing a net the netlist does not have is rejected
  // at compile time, naming the scenario and the net.
  st::NoiseScenario bad;
  bad.name = "bad";
  bad.annotate("ghost", ramp.denormalized(wv::Polarity::kFalling, 64),
               wv::Polarity::kFalling);
  const auto msg =
      error_message([&] { (void)sta.compile_edge_annotations(&bad); });
  EXPECT_NE(msg.find("bad"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ghost"), std::string::npos) << msg;
}
