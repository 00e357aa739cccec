/// \file test_sta_hier.cpp
/// Hierarchical macro-model contract tests (docs/HIER_GUIDE.md):
///  - timing inside the one expanded copy of a stitched parallel design
///    is bitwise identical to the fully-flat oracle, at several thread
///    counts, clean and under a noise scenario;
///  - extract/apply round-trip: macro NLDM tables reproduce fresh flat
///    block runs bitwise at interior extraction grid points, and a
///    single abstracted macro instance reproduces them through the
///    engine's standard table-lookup path;
///  - interface-arc delay/transition tables are monotone along the
///    output-load axis;
///  - noise-transfer sensitivities are non-negative and
///    lower_interior_bump() lowers interior bumps monotonically;
///  - extraction is bitwise identical at any thread count and rejects
///    bad options before characterizing, naming the offending value.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/hiergraph.hpp"
#include "sta/macromodel.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "wave/waveform.hpp"

namespace waveletic {
namespace {

using statest::constrain_ports;
using statest::vcl013;

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

netlist::Netlist small_block(uint64_t seed) {
  return netlist::make_random_dag(seed, 4, 4, 5);
}

/// A stitched hier design plus its fully-flat oracle, both constrained
/// identically (the stitchers emit ports in the same order, so the
/// counter-based constrain_ports assigns the same values per name).
struct Bench {
  std::unique_ptr<netlist::Netlist> block;
  sta::BlockModel model;
  std::unique_ptr<sta::HierDesign> hier;
  std::unique_ptr<netlist::Netlist> flat_nl;
  std::unique_ptr<sta::StaEngine> flat;
};

Bench make_bench(uint64_t seed, size_t copies, int expanded) {
  netlist::StitchOptions opt;
  opt.copies = copies;
  opt.topology = netlist::StitchTopology::kParallel;
  opt.expanded = expanded;

  Bench b;
  b.block = std::make_unique<netlist::Netlist>(small_block(seed));
  b.model = sta::extract_block_model(*b.block, vcl013());
  b.hier = std::make_unique<sta::HierDesign>(
      sta::HierDesign::build(*b.block, vcl013(), b.model, opt));
  b.flat_nl = std::make_unique<netlist::Netlist>(
      netlist::stitch_blocks_flat(*b.block, opt));
  b.flat = std::make_unique<sta::StaEngine>(*b.flat_nl, vcl013());
  constrain_ports(b.hier->engine(), b.hier->netlist());
  constrain_ports(*b.flat, *b.flat_nl);
  return b;
}

/// Compares every hier vertex under `prefix` against the flat engine's
/// vertex of the same name, bitwise on all four timing fields, both
/// transitions.  Returns the number of vertices compared.
size_t expect_prefix_bitwise(const sta::StaEngine& hier,
                             const sta::StaEngine& flat,
                             const std::string& prefix) {
  size_t compared = 0;
  for (size_t v = 0; v < hier.vertex_count(); ++v) {
    const std::string& name = hier.vertex_name(v);
    if (name.rfind(prefix, 0) != 0) continue;
    for (const auto rf : {sta::RiseFall::kRise, sta::RiseFall::kFall}) {
      const auto& th = hier.timing(name, rf);
      const auto& tf = flat.timing(name, rf);
      EXPECT_EQ(th.valid, tf.valid) << name << " " << to_string(rf);
      EXPECT_EQ(bits(th.arrival), bits(tf.arrival))
          << name << " " << to_string(rf) << " arrival " << th.arrival
          << " vs " << tf.arrival;
      EXPECT_EQ(bits(th.slew), bits(tf.slew))
          << name << " " << to_string(rf) << " slew";
      EXPECT_EQ(bits(th.required), bits(tf.required))
          << name << " " << to_string(rf) << " required";
    }
    ++compared;
  }
  return compared;
}

TEST(Hier, FlatVsHierBitwiseInsideExpandedCopyAtThreadCounts) {
  Bench b = make_bench(7, 3, /*expanded=*/1);
  ASSERT_EQ(b.hier->expanded_prefix(), "u1/");
  ASSERT_LT(b.hier->hier_vertex_count(), b.hier->stitched_vertex_count());

  b.flat->set_threads(1);
  b.flat->run();
  for (const int threads : {1, 2, 4}) {
    b.hier->engine().set_threads(threads);
    b.hier->engine().run();
    const size_t compared =
        expect_prefix_bitwise(b.hier->engine(), *b.flat, "u1/");
    EXPECT_GT(compared, 20u) << "threads=" << threads;
  }
}

TEST(Hier, NoisyScenarioInsideExpandedCopyStaysBitwise) {
  Bench b = make_bench(21, 3, /*expanded=*/2);
  b.flat->run();
  b.hier->engine().run();

  // Victim: the first interior net of the expanded copy with a valid
  // falling transition at a sink pin (picked from the clean flat run).
  std::string net;
  double arrival = 0.0;
  double slew = 0.0;
  for (const auto& inst : b.flat_nl->instances()) {
    if (inst.name.rfind("u2/", 0) != 0) continue;
    const auto& t = b.flat->timing(inst.name + "/A", sta::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    net = inst.pins.at("A");
    arrival = t.arrival;
    slew = t.slew;
    break;
  }
  ASSERT_FALSE(net.empty());

  const auto scenario = sta::make_aggressor_scenario(
      net, arrival, slew, vcl013().nom_voltage, wave::Polarity::kFalling,
      /*alignment=*/0.0, /*strength=*/0.35);
  for (const auto& e : scenario.entries) {
    b.flat->annotate_noisy_net(e.net, e.annotation.waveform,
                               e.annotation.polarity);
    b.hier->engine().annotate_noisy_net(e.net, e.annotation.waveform,
                                        e.annotation.polarity);
  }
  b.flat->run();
  b.hier->engine().set_threads(2);
  b.hier->engine().run();
  const size_t compared =
      expect_prefix_bitwise(b.hier->engine(), *b.flat, "u2/");
  EXPECT_GT(compared, 20u);
}

TEST(Hier, BlockModelExtractApplyRoundTrip) {
  const netlist::Netlist block = small_block(13);
  const sta::BlockModel model = sta::extract_block_model(block, vcl013());
  ASSERT_FALSE(model.arcs.empty());
  ASSERT_GE(model.slews.size(), 2u);
  ASSERT_GE(model.loads.size(), 2u);

  // A single all-abstracted macro instance, to exercise the engine's
  // table-lookup application of the same tables.
  netlist::StitchOptions opt;
  opt.copies = 1;
  opt.expanded = -1;
  auto hier = sta::HierDesign::build(block, vcl013(), model, opt);

  // Interior grid points only: bilinear lookup hits frac = 0 there and
  // reproduces the stored sample bitwise; the last row/column lands on
  // a frac = 1.0 lerp (<= 1 ulp) and is excluded by contract.
  const std::vector<std::pair<size_t, size_t>> points = {
      {0, 0},
      {model.slews.size() - 2, model.loads.size() - 2}};
  const std::string& from = model.arcs.front().from_port;
  for (const auto& [i, j] : points) {
    // Fresh flat characterization run at the grid point, mirroring
    // extraction: one driven input, every output loaded.
    sta::StaEngine flat(block, vcl013());
    for (const auto& p : block.ports()) {
      if (p.direction == netlist::PortDirection::kOutput) {
        flat.set_output_load(p.name, model.loads[j]);
      }
    }
    flat.set_input(from, 0.0, model.slews[i]);
    flat.run();

    auto& heng = hier.engine();
    for (const auto& p : block.ports()) {
      if (p.direction == netlist::PortDirection::kOutput) {
        heng.set_output_load("u0/" + p.name, model.loads[j]);
      }
    }
    heng.set_input("u0/" + from, 0.0, model.slews[i]);
    heng.run();

    for (const auto& a : model.arcs) {
      if (a.from_port != from) continue;
      const auto& fr = flat.timing(a.to_port, sta::RiseFall::kRise);
      const auto& ff = flat.timing(a.to_port, sta::RiseFall::kFall);
      ASSERT_TRUE(fr.valid && ff.valid) << a.to_port;
      // Extracted tables hold the flat run's arrival/slew verbatim.
      EXPECT_EQ(bits(a.arc.cell_rise.value_at(i, j)), bits(fr.arrival))
          << a.from_port << "->" << a.to_port << " @(" << i << "," << j
          << ")";
      EXPECT_EQ(bits(a.arc.cell_fall.value_at(i, j)), bits(ff.arrival));
      EXPECT_EQ(bits(a.arc.rise_transition.value_at(i, j)), bits(fr.slew));
      EXPECT_EQ(bits(a.arc.fall_transition.value_at(i, j)), bits(ff.slew));

      // And the macro instance reproduces them through the engine's
      // standard NLDM lookup path.
      const auto& hr = heng.timing("u0/" + a.to_port, sta::RiseFall::kRise);
      const auto& hf = heng.timing("u0/" + a.to_port, sta::RiseFall::kFall);
      ASSERT_TRUE(hr.valid && hf.valid) << a.to_port;
      EXPECT_EQ(bits(hr.arrival), bits(fr.arrival))
          << "macro rise arrival " << a.to_port;
      EXPECT_EQ(bits(hf.arrival), bits(ff.arrival))
          << "macro fall arrival " << a.to_port;
      EXPECT_EQ(bits(hr.slew), bits(fr.slew)) << "macro rise slew";
      EXPECT_EQ(bits(hf.slew), bits(ff.slew)) << "macro fall slew";
    }
  }
}

TEST(Hier, InterfaceArcTablesMonotoneAlongLoadAxis) {
  const netlist::Netlist block = small_block(31);
  const sta::BlockModel model = sta::extract_block_model(block, vcl013());
  ASSERT_FALSE(model.arcs.empty());

  // Every path into an output port exits through that port's single
  // driver gate, so a larger output load slows every path: delay AND
  // output slew are monotone along the load axis at every input slew.
  // No slew-axis assertion — multi-stage port-to-port delay measured
  // at 50% crossings can legitimately shrink with a slower input edge,
  // and the winning max-arrival path (whose edge the output slew
  // reports) can switch to a sharper one.
  const auto check = [](const liberty::NldmTable& t, const char* what) {
    const size_t n1 = t.index_1().size();
    const size_t n2 = t.index_2().size();
    for (size_t i = 0; i < n1; ++i) {
      for (size_t j = 0; j + 1 < n2; ++j) {
        EXPECT_GE(t.value_at(i, j + 1), t.value_at(i, j))
            << what << " not monotone in load at (" << i << "," << j << ")";
      }
    }
  };
  for (const auto& a : model.arcs) {
    check(a.arc.cell_rise, "cell_rise");
    check(a.arc.cell_fall, "cell_fall");
    check(a.arc.rise_transition, "rise_transition");
    check(a.arc.fall_transition, "fall_transition");
  }
}

TEST(Hier, NoiseTransfersLowerOntoInterfaceMonotonically) {
  Bench b = make_bench(17, 2, /*expanded=*/1);
  ASSERT_FALSE(b.model.transfers.empty());
  for (const auto& t : b.model.transfers) {
    EXPECT_GE(t.sensitivity, 0.0) << t.net << "->" << t.to_port;
  }

  b.hier->engine().run();
  // Copy 0 is abstracted; input-port nets are always characterized.
  std::string probe;
  for (const auto& p : b.block->ports()) {
    if (p.direction == netlist::PortDirection::kInput) {
      probe = p.name;
      break;
    }
  }
  ASSERT_FALSE(probe.empty());

  const auto s1 = b.hier->lower_interior_bump(0, probe, 0.2);
  const auto s2 = b.hier->lower_interior_bump(0, probe, 0.5);
  ASSERT_FALSE(s1.entries.empty());
  ASSERT_EQ(s1.entries.size(), s2.entries.size());

  // Clean interface baselines, then each lowered scenario in turn: the
  // pushed-out arrival grows (weakly) with the bump amplitude.
  auto arrivals = [&](const sta::NoiseScenario* s) {
    auto& eng = b.hier->engine();
    eng.clear_noisy_nets();
    if (s != nullptr) {
      for (const auto& e : s->entries) {
        eng.annotate_noisy_net(e.net, e.annotation.waveform,
                               e.annotation.polarity);
      }
    }
    eng.run();
    std::vector<double> out;
    for (const auto& e : s1.entries) {
      out.push_back(eng.timing(e.net, sta::RiseFall::kFall).arrival);
    }
    return out;
  };
  const auto base = arrivals(nullptr);
  const auto low = arrivals(&s1);
  const auto high = arrivals(&s2);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_GE(low[i], base[i] - 1e-15) << s1.entries[i].net;
    EXPECT_GE(high[i], low[i] - 1e-15) << s1.entries[i].net;
  }

  // Expanded copies must be annotated directly, not lowered.
  EXPECT_THROW((void)b.hier->lower_interior_bump(1, probe, 0.2),
               std::invalid_argument);
  EXPECT_THROW((void)b.hier->lower_interior_bump(0, "no_such_net", 0.2),
               std::invalid_argument);
}

TEST(Hier, ExtractionIdenticalAcrossThreads) {
  // Extraction runs its grid and noise probes as independent jobs; the
  // model must not depend on how many run at once.
  const netlist::Netlist block = small_block(23);
  std::string interior;
  for (const auto& inst : block.instances()) {
    const std::string& net = inst.pins.at("Y");
    if (block.find_port(net) == nullptr) {
      interior = net;
      break;
    }
  }
  ASSERT_FALSE(interior.empty());

  sta::BlockModelOptions opt;
  opt.noise_nets = {interior};
  opt.threads = 1;
  const sta::BlockModel ref = sta::extract_block_model(block, vcl013(), opt);
  ASSERT_FALSE(ref.arcs.empty());
  bool probed = false;
  for (const auto& t : ref.transfers) probed = probed || t.net == interior;
  ASSERT_TRUE(probed) << "interior probe " << interior << " never ran";

  const auto same_table = [](const liberty::NldmTable& a,
                             const liberty::NldmTable& b) {
    if (a.index_1() != b.index_1() || a.index_2() != b.index_2()) return false;
    for (size_t i = 0; i < a.index_1().size(); ++i) {
      for (size_t j = 0; j < a.index_2().size(); ++j) {
        if (bits(a.value_at(i, j)) != bits(b.value_at(i, j))) return false;
      }
    }
    return true;
  };
  for (const int threads : {4, 0}) {
    opt.threads = threads;
    const sta::BlockModel m = sta::extract_block_model(block, vcl013(), opt);
    ASSERT_EQ(m.arcs.size(), ref.arcs.size()) << "threads=" << threads;
    for (size_t k = 0; k < m.arcs.size(); ++k) {
      const auto& a = m.arcs[k];
      const auto& r = ref.arcs[k];
      const std::string arc = r.from_port + "->" + r.to_port;
      EXPECT_EQ(a.from_port, r.from_port) << "threads=" << threads;
      EXPECT_EQ(a.to_port, r.to_port) << "threads=" << threads;
      EXPECT_TRUE(same_table(a.arc.cell_rise, r.arc.cell_rise)) << arc;
      EXPECT_TRUE(same_table(a.arc.cell_fall, r.arc.cell_fall)) << arc;
      EXPECT_TRUE(same_table(a.arc.rise_transition, r.arc.rise_transition))
          << arc;
      EXPECT_TRUE(same_table(a.arc.fall_transition, r.arc.fall_transition))
          << arc;
      EXPECT_EQ(bits(a.noise_transfer), bits(r.noise_transfer)) << arc;
    }
    ASSERT_EQ(m.transfers.size(), ref.transfers.size())
        << "threads=" << threads;
    for (size_t k = 0; k < m.transfers.size(); ++k) {
      EXPECT_EQ(m.transfers[k].net, ref.transfers[k].net);
      EXPECT_EQ(m.transfers[k].to_port, ref.transfers[k].to_port);
      EXPECT_EQ(bits(m.transfers[k].sensitivity),
                bits(ref.transfers[k].sensitivity))
          << ref.transfers[k].net << "->" << ref.transfers[k].to_port
          << " threads=" << threads;
    }
  }
}

TEST(Hier, ExtractionRejectsBadOptionsNamingTheValue) {
  const netlist::Netlist block = small_block(13);
  const auto expect_rejected = [&](const sta::BlockModelOptions& opt,
                                   const std::string& needle) {
    try {
      (void)sta::extract_block_model(block, vcl013(), opt);
      ADD_FAILURE() << "accepted; expected an error naming '" << needle
                    << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();

  sta::BlockModelOptions opt;
  opt.slews = {20e-12, nan, 200e-12};
  expect_rejected(opt, "slew axis value nan at index 1 is not finite");

  opt = {};
  opt.loads = {-1e-15, 4e-15};
  expect_rejected(opt, "load axis value -1e-15 at index 0 is not positive");

  opt = {};
  opt.slews = {20e-12, 80e-12, 80e-12};
  expect_rejected(opt, "slew axis value 8e-11 at index 2 does not exceed");

  opt = {};
  opt.noise_nets = {"no_such_net"};
  expect_rejected(opt, "unknown noise net 'no_such_net'");

  opt = {};
  opt.noise_amplitude_fraction = 1.5;
  expect_rejected(opt, "noise_amplitude_fraction 1.5 is outside (0, 1]");

  opt = {};
  opt.waveform_samples = 1;
  expect_rejected(opt, "waveform_samples 1 is below 2");
}

TEST(Hier, CarveBlockFromInstanceSliceExtracts) {
  // carve_block() takes any instance list.  make_random_dag appends its
  // gates layer by layer, so a contiguous slice of instances() is a
  // band of adjacent layers: here layers 1-2 of the 5 x 7 default DAG,
  // fed by layer 0 and feeding layers 3-4.
  const auto f = statest::random_engine(5);
  const auto& all = f.netlist->instances();
  ASSERT_EQ(all.size(), 35u);
  std::vector<std::string> insts;
  for (size_t i = 7; i < 21; ++i) insts.push_back(all[i].name);

  const auto carved = sta::carve_block(*f.netlist, vcl013(), insts, "band");
  carved.validate();
  EXPECT_EQ(carved.instances().size(), insts.size());
  bool has_in = false;
  bool has_out = false;
  for (const auto& p : carved.ports()) {
    (p.direction == netlist::PortDirection::kInput ? has_in : has_out) = true;
  }
  EXPECT_TRUE(has_in);
  EXPECT_TRUE(has_out);
  const auto model = sta::extract_block_model(carved, vcl013());
  EXPECT_FALSE(model.ports.empty());
  EXPECT_FALSE(model.arcs.empty());
}

}  // namespace
}  // namespace waveletic
