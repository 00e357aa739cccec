/// \file test_sta_service.cpp
/// Incremental STA service: every EditBatch class must publish
/// snapshots bitwise identical to a from-scratch prepare()+evaluate()
/// on the edited netlist (at 1/2/4 writer threads), concurrent readers
/// racing snapshot swaps must always see a self-consistent pinned
/// snapshot matching its per-version oracle, validation errors must
/// name the offending handle and edit index, and results must not
/// dangle (SweepResult/TimingView throw after engine destruction;
/// service results co-own their snapshot).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/edits.hpp"
#include "sta/service.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"

namespace waveletic {
namespace {

using statest::states_bitwise_equal;
using statest::vcl013;

std::vector<sta::Corner> service_corners() {
  sta::Corner slow;
  slow.name = "slow";
  slow.cell_delay_scale = 1.12;
  slow.cell_slew_scale = 1.08;
  slow.wire_delay_scale = 1.25;
  return {sta::Corner{}, slow};
}

/// The constrain_ports() constraints expressed as an EditBatch — the
/// service's netlists start unconstrained, so this is batch #1 of
/// every history.
sta::EditBatch constraint_batch(const netlist::Netlist& nl) {
  sta::EditBatch batch;
  int i = 0;
  int o = 0;
  for (const auto& port : nl.ports()) {
    if (port.direction == netlist::PortDirection::kInput) {
      batch.set_input_arrival(port.name, 0.008e-9 * i,
                              (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      batch.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      batch.set_required(port.name, 2.5e-9);
      ++o;
    }
  }
  return batch;
}

/// Replays `history` from scratch: structural edits onto a netlist
/// copy, configuration edits onto a fresh engine (setters are
/// last-write-wins, exactly like the service's sequential applies),
/// then a full serial evaluation per corner — the bitwise oracle every
/// published snapshot must match.
std::vector<sta::TimingState> oracle_baselines(
    const netlist::Netlist& base_netlist,
    const std::vector<sta::EditBatch>& history,
    const std::vector<sta::Corner>& corners) {
  netlist::Netlist nl = base_netlist;
  for (const auto& batch : history) {
    for (const auto& edit : batch.edits()) {
      if (const auto* retype = std::get_if<sta::RetypeCell>(&edit)) {
        nl.retype_instance(retype->instance, retype->new_cell);
      } else if (const auto* reroute = std::get_if<sta::RerouteSink>(&edit)) {
        nl.reroute_pin(reroute->instance, reroute->pin, reroute->new_net);
      }
    }
  }
  sta::StaEngine eng(nl, vcl013());
  for (const auto& batch : history) {
    for (const auto& edit : batch.edits()) {
      if (const auto* e = std::get_if<sta::SetOutputLoad>(&edit)) {
        eng.set_output_load(e->port, e->cap);
      } else if (const auto* e = std::get_if<sta::SetNetParasitics>(&edit)) {
        eng.set_net_parasitics(e->net, e->cap, e->delay);
      } else if (const auto* e = std::get_if<sta::SetInputArrival>(&edit)) {
        eng.set_input(e->port, e->arrival, e->slew);
      } else if (const auto* e = std::get_if<sta::SetRequired>(&edit)) {
        eng.set_required(e->port, e->required);
      } else if (const auto* e = std::get_if<sta::AnnotateNoisyNet>(&edit)) {
        eng.annotate_noisy_net(e->net, e->waveform, e->polarity);
      } else if (const auto* e = std::get_if<sta::ClearNoisyNet>(&edit)) {
        eng.clear_noisy_net(e->net);
      }
    }
  }
  eng.prepare();
  const auto table = eng.compile_edge_annotations(nullptr);
  std::vector<sta::TimingState> states(corners.size());
  for (size_t c = 0; c < corners.size(); ++c) {
    sta::StaEngine::EvalContext ctx;
    ctx.edge_noise = table.data();
    ctx.corner = &corners[c];
    ctx.corner_key = corners[c].key();
    ctx.method = &eng.noise_method();
    eng.evaluate(states[c], ctx);
  }
  return states;
}

/// Publishes `history` (after batch #0, the constraints) through a
/// service at the given writer thread count and checks every corner
/// baseline of the final snapshot bitwise against the replay oracle.
void expect_service_matches_oracle(const netlist::Netlist& base_netlist,
                                   const std::vector<sta::EditBatch>& history,
                                   int threads) {
  sta::ServiceConfig cfg;
  cfg.corners = service_corners();
  cfg.threads = threads;
  sta::StaService service(base_netlist, vcl013(), cfg);
  for (const auto& batch : history) {
    const auto report = service.apply(batch);
    EXPECT_GT(report.version, 1u);
  }
  const auto snap = service.snapshot();
  const auto oracle = oracle_baselines(base_netlist, history, cfg.corners);
  ASSERT_EQ(oracle.size(), snap->corners().size());
  for (size_t c = 0; c < oracle.size(); ++c) {
    EXPECT_TRUE(
        states_bitwise_equal(oracle[c], snap->baseline(c), &snap->engine()))
        << "corner " << c << " at " << threads << " writer thread(s)";
  }
}

/// Per-edit-class histories on a seed-deterministic random DAG; every
/// class is checked bitwise at 1, 2 and 4 writer threads.
class ServiceEditClassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    netlist_ = netlist::make_random_dag(11, 6, 5, 7);
    base_ = {constraint_batch(netlist_)};
  }

  /// A noisy annotation on the first gate's input net, derived from a
  /// constrained clean run (the aggressor-scenario builder needs the
  /// victim ramp).
  sta::EditBatch annotate_batch() {
    sta::StaEngine clean(netlist_, vcl013());
    statest::constrain_ports(clean, netlist_);
    clean.run();
    const auto& inst = netlist_.instances().front();
    const auto& t = clean.timing(inst.name + "/A", sta::RiseFall::kFall);
    const auto scenario = sta::make_aggressor_scenario(
        inst.pins.at("A"), t.arrival, t.slew, vcl013().nom_voltage,
        wave::Polarity::kFalling, -6e-12, 0.35);
    sta::EditBatch batch;
    batch.annotate_noisy_net(scenario.entries[0].net,
                             scenario.entries[0].annotation.waveform,
                             scenario.entries[0].annotation.polarity);
    return batch;
  }

  void check_all_threads(std::vector<sta::EditBatch> extra) {
    std::vector<sta::EditBatch> history = base_;
    for (auto& b : extra) history.push_back(std::move(b));
    for (const int threads : {1, 2, 4}) {
      expect_service_matches_oracle(netlist_, history, threads);
    }
  }

  /// First instance of the given cell (every seed-11 DAG has all three
  /// library cells).
  const netlist::Instance& instance_of(const std::string& cell) const {
    for (const auto& inst : netlist_.instances()) {
      if (inst.cell == cell) return inst;
    }
    throw util::Error("test netlist has no " + cell);
  }

  netlist::Netlist netlist_;
  std::vector<sta::EditBatch> base_;
};

TEST_F(ServiceEditClassTest, ConstraintsOnly) { check_all_threads({}); }

TEST_F(ServiceEditClassTest, SetInputArrival) {
  sta::EditBatch b;
  b.set_input_arrival("a2", 0.05e-9, 140e-12);
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, SetRequired) {
  const auto& nl = netlist_;
  std::string out;
  for (const auto& port : nl.ports()) {
    if (port.direction == netlist::PortDirection::kOutput) {
      out = port.name;
      break;
    }
  }
  sta::EditBatch b;
  b.set_required(out, 1.1e-9);
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, SetOutputLoad) {
  std::string out;
  for (const auto& port : netlist_.ports()) {
    if (port.direction == netlist::PortDirection::kOutput) {
      out = port.name;
      break;
    }
  }
  sta::EditBatch b;
  b.set_output_load(out, 11e-15);
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, SetNetParasitics) {
  const auto& inst = netlist_.instances()[3];
  sta::EditBatch b;
  b.set_net_parasitics(inst.pins.at("Y"), 2.5e-15, 7e-12);
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, AnnotateNoisyNet) {
  check_all_threads({annotate_batch()});
}

TEST_F(ServiceEditClassTest, ClearNoisyNet) {
  const auto annotate = annotate_batch();
  const auto& net = std::get<sta::AnnotateNoisyNet>(annotate.edits()[0]).net;
  sta::EditBatch clear;
  clear.clear_noisy_net(net);
  check_all_threads({annotate, clear});
}

TEST_F(ServiceEditClassTest, RetypeCell) {
  sta::EditBatch b;
  b.retype_cell(instance_of("INVX1").name, "INVX4");
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, RerouteSinkToExistingNet) {
  // Move a late NAND's B input onto a primary-input net: always
  // upstream, so the DAG stays acyclic.
  const netlist::Instance* nand = nullptr;
  for (const auto& inst : netlist_.instances()) {
    if (inst.cell == "NAND2X1") nand = &inst;  // keep the last one
  }
  ASSERT_NE(nand, nullptr);
  sta::EditBatch b;
  b.reroute_sink(nand->name, "B", "a0");
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, RerouteSinkToFreshNet) {
  // Rerouting onto a brand-new (undriven) net appends it, exercising
  // the nets-may-only-be-appended ordinal-stability rule; the sink
  // simply goes unconstrained.
  const netlist::Instance* nand = nullptr;
  for (const auto& inst : netlist_.instances()) {
    if (inst.cell == "NAND2X1") nand = &inst;
  }
  ASSERT_NE(nand, nullptr);
  sta::EditBatch b;
  b.reroute_sink(nand->name, "B", "eco_spare_net");
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, MixedBatch) {
  // One batch spanning structural + every configuration class: the
  // writer takes the rebuild path and must still fold every edit's
  // dirty cone into one plan.
  const auto annotate = annotate_batch();
  const auto& ann = std::get<sta::AnnotateNoisyNet>(annotate.edits()[0]);
  std::string out;
  for (const auto& port : netlist_.ports()) {
    if (port.direction == netlist::PortDirection::kOutput) out = port.name;
  }
  sta::EditBatch b;
  b.retype_cell(instance_of("INVX4").name, "INVX1")
      .set_net_parasitics(netlist_.instances()[5].pins.at("Y"), 1.5e-15,
                          4e-12)
      .set_input_arrival("a1", 0.02e-9, 95e-12)
      .set_required(out, 1.8e-9)
      .annotate_noisy_net(ann.net, ann.waveform, ann.polarity);
  check_all_threads({b});
}

TEST_F(ServiceEditClassTest, SequentialBatchesAccumulate) {
  // A stream of small batches (the ECO loop shape): every publish is
  // a delta on the previous snapshot, and the final state must equal
  // the full replay.
  std::vector<sta::EditBatch> stream;
  for (int k = 0; k < 6; ++k) {
    const auto& inst = netlist_.instances()[static_cast<size_t>(2 + 3 * k)];
    sta::EditBatch b;
    b.set_net_parasitics(inst.pins.at("Y"), (1.0 + k) * 1e-15,
                         (2.0 + k) * 1e-12);
    stream.push_back(b);
  }
  check_all_threads(stream);
}

TEST(ServiceDeltaTest, SmallEditsRetimeSmallCones) {
  const auto nl = netlist::make_random_dag(23, 6, 6, 8);
  sta::ServiceConfig cfg;
  cfg.corners = service_corners();
  sta::StaService service(nl, vcl013(), cfg);
  service.apply(constraint_batch(nl));

  // A parasitic edit deep in the DAG touches a strict subset of the
  // graph; a required-time edit touches no arrival at all.
  const auto& inst = nl.instances()[nl.instances().size() - 4];
  sta::EditBatch para;
  para.set_net_parasitics(inst.pins.at("A"), 2e-15, 3e-12);
  const auto report = service.apply(para);
  EXPECT_GT(report.dirty_vertices, 0u);
  EXPECT_LT(report.dirty_cone_fraction, 1.0);
  EXPECT_FALSE(report.structural);

  std::string out;
  for (const auto& port : nl.ports()) {
    if (port.direction == netlist::PortDirection::kOutput) out = port.name;
  }
  sta::EditBatch req;
  req.set_required(out, 2.0e-9);
  const auto report2 = service.apply(req);
  EXPECT_EQ(report2.dirty_vertices, 0u);  // backward-only edit

  const auto stats = service.stats();
  EXPECT_EQ(stats.snapshots_published, 3u);
  EXPECT_EQ(stats.structural_rebuilds, 0u);
  EXPECT_GT(stats.mean_publish_latency, 0.0);
  EXPECT_LT(stats.mean_dirty_cone_fraction, 1.0);
}

TEST(ServiceConcurrencyTest, ReadersRaceEditBatches) {
  // N reader threads continuously pin snapshots and record
  // (version, worst-slack bits, probe-pin bits) while the writer
  // publishes M deterministic batches; afterwards every observation
  // must match its version's replay oracle bitwise.
  const auto nl = netlist::make_random_dag(5, 6, 5, 7);
  const auto corners = service_corners();
  constexpr int kBatches = 12;
  const std::string probe = nl.instances().back().name + "/Y";

  auto edit_batch = [&](int k) {
    const auto& inst = nl.instances()[static_cast<size_t>(
        (5 + 7 * k) % static_cast<int>(nl.instances().size()))];
    sta::EditBatch b;
    b.set_net_parasitics(inst.pins.at("Y"), (1.0 + k % 4) * 1e-15,
                         (1.0 + k % 3) * 2e-12);
    return b;
  };

  sta::ServiceConfig cfg;
  cfg.corners = corners;
  cfg.threads = 2;
  sta::StaService service(nl, vcl013(), cfg);
  service.apply(constraint_batch(nl));  // version 2

  struct Observation {
    uint64_t version;
    uint64_t slack_bits;
    uint64_t probe_bits;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Observation>> observed(kReaders);
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // do-while: even if the writer drains every batch before this
      // thread is scheduled, each reader still records >= 1 observation.
      do {
        const auto snap = service.snapshot();
        const size_t corner = static_cast<size_t>(r) % corners.size();
        Observation ob;
        ob.version = snap->version();
        ob.slack_bits = std::bit_cast<uint64_t>(snap->worst_slack(corner));
        ob.probe_bits = std::bit_cast<uint64_t>(
            snap->engine()
                .timing_in(snap->baseline(corner), probe,
                           sta::RiseFall::kRise)
                .arrival);
        observed[static_cast<size_t>(r)].push_back(ob);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (int k = 0; k < kBatches; ++k) {
    const auto report = service.apply(edit_batch(k));
    EXPECT_EQ(report.version, static_cast<uint64_t>(k) + 3);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Per-version oracle: replay the history prefix ending at each
  // version (version 2 = constraints, version 2+k = first k batches).
  std::map<uint64_t, std::vector<sta::TimingState>> oracle;
  std::vector<sta::EditBatch> history = {constraint_batch(nl)};
  oracle[2] = oracle_baselines(nl, history, corners);
  for (int k = 0; k < kBatches; ++k) {
    history.push_back(edit_batch(k));
    oracle[static_cast<uint64_t>(k) + 3] =
        oracle_baselines(nl, history, corners);
  }
  sta::StaEngine probe_engine(nl, vcl013());  // vertex axis for probing
  const auto probe_pin = probe_engine.pin(probe);

  size_t checked = 0;
  for (int r = 0; r < kReaders; ++r) {
    const size_t corner = static_cast<size_t>(r) % corners.size();
    for (const auto& ob : observed[static_cast<size_t>(r)]) {
      ASSERT_TRUE(oracle.count(ob.version) == 1)
          << "reader saw unpublished version " << ob.version;
      const auto& state = oracle.at(ob.version)[corner];
      EXPECT_EQ(ob.slack_bits, std::bit_cast<uint64_t>(
                                   probe_engine.worst_slack_in(state)));
      EXPECT_EQ(ob.probe_bits,
                std::bit_cast<uint64_t>(
                    probe_engine
                        .timing_in(state, probe_pin, sta::RiseFall::kRise)
                        .arrival));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GE(service.stats().queries_served, 0u);
}

TEST(ServiceConcurrencyTest, ScenarioQueriesRaceEdits) {
  // Concurrent scenario queries during publishes: every result must be
  // bitwise-consistent with the snapshot it pinned (version recorded in
  // the co-owned snapshot), not with the head at completion time.
  const auto nl = netlist::make_random_dag(5, 6, 5, 7);
  const auto corners = service_corners();
  sta::ServiceConfig cfg;
  cfg.corners = corners;
  sta::StaService service(nl, vcl013(), cfg);
  service.apply(constraint_batch(nl));

  // Fixed aggressor scenario derived from the constrained clean run.
  sta::StaEngine clean(nl, vcl013());
  statest::constrain_ports(clean, nl);
  clean.run();
  const auto& inst = nl.instances()[2];
  const auto& t = clean.timing(inst.name + "/A", sta::RiseFall::kFall);
  const auto scenario = sta::make_aggressor_scenario(
      inst.pins.at("A"), t.arrival, t.slew, vcl013().nom_voltage,
      wave::Polarity::kFalling, 0.0, 0.3);

  constexpr int kBatches = 8;
  auto edit_batch = [&](int k) {
    const auto& gate = nl.instances()[static_cast<size_t>(
        (3 + 5 * k) % static_cast<int>(nl.instances().size()))];
    sta::EditBatch b;
    b.set_net_parasitics(gate.pins.at("Y"), (1.0 + k % 3) * 1e-15, 0.0);
    return b;
  };

  struct Observation {
    uint64_t version;
    uint64_t slack_bits;
  };
  constexpr int kReaders = 3;
  std::vector<std::vector<Observation>> observed(kReaders);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // do-while for the same reason as above: guarantee >= 1 query
      // per reader even when the writer outpaces thread start-up.
      do {
        const auto result = service.query(scenario, 0);
        Observation ob;
        ob.version = result.snapshot()->version();
        ob.slack_bits = std::bit_cast<uint64_t>(result.worst_slack());
        observed[static_cast<size_t>(r)].push_back(ob);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (int k = 0; k < kBatches; ++k) service.apply(edit_batch(k));
  done.store(true, std::memory_order_release);
  for (auto& t2 : readers) t2.join();

  // Per-version scenario oracle: replay each prefix, then derive the
  // scenario point from the nominal baseline exactly like query().
  std::map<uint64_t, uint64_t> expected;
  std::vector<sta::EditBatch> history = {constraint_batch(nl)};
  for (int k = 0; k <= kBatches; ++k) {
    if (k > 0) history.push_back(edit_batch(k - 1));
    netlist::Netlist replay_nl = nl;
    sta::StaEngine eng(replay_nl, vcl013());
    for (const auto& batch : history) {
      for (const auto& edit : batch.edits()) {
        if (const auto* e = std::get_if<sta::SetOutputLoad>(&edit)) {
          eng.set_output_load(e->port, e->cap);
        } else if (const auto* e =
                       std::get_if<sta::SetNetParasitics>(&edit)) {
          eng.set_net_parasitics(e->net, e->cap, e->delay);
        } else if (const auto* e = std::get_if<sta::SetInputArrival>(&edit)) {
          eng.set_input(e->port, e->arrival, e->slew);
        } else if (const auto* e = std::get_if<sta::SetRequired>(&edit)) {
          eng.set_required(e->port, e->required);
        }
      }
    }
    eng.prepare();
    sta::SweepSpec spec;
    spec.corners = {corners[0]};
    spec.scenarios = {scenario};
    const auto result = eng.sweep(spec);
    expected[static_cast<uint64_t>(k) + 2] =
        std::bit_cast<uint64_t>(result.worst_slack(0));
  }

  size_t checked = 0;
  for (const auto& per_reader : observed) {
    for (const auto& ob : per_reader) {
      ASSERT_TRUE(expected.count(ob.version) == 1)
          << "query pinned unpublished version " << ob.version;
      EXPECT_EQ(ob.slack_bits, expected.at(ob.version))
          << "scenario query diverged from its pinned snapshot's oracle "
             "(version "
          << ob.version << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ServiceLifetimeTest, PinnedSnapshotsSurviveEditsAndService) {
  const auto nl = netlist::make_random_dag(9, 5, 4, 6);
  auto service = std::make_unique<sta::StaService>(
      nl, vcl013(), sta::ServiceConfig{service_corners(), 1});
  service->apply(constraint_batch(nl));

  const auto pinned = service->snapshot();
  const uint64_t before = std::bit_cast<uint64_t>(pinned->worst_slack(0));

  // Publishes move the head but never touch the pinned snapshot.
  sta::EditBatch b;
  b.set_net_parasitics(nl.instances()[1].pins.at("Y"), 3e-15, 6e-12);
  service->apply(b);
  EXPECT_NE(service->snapshot().get(), pinned.get());
  EXPECT_EQ(std::bit_cast<uint64_t>(pinned->worst_slack(0)), before);

  // Results co-own their snapshot: both outlive the service itself.
  const auto result = [&] {
    sta::NoiseScenario empty;
    empty.name = "clean";
    return service->query(empty, 0);
  }();
  service.reset();
  EXPECT_EQ(std::bit_cast<uint64_t>(pinned->worst_slack(0)), before);
  EXPECT_EQ(std::bit_cast<uint64_t>(result.worst_slack()), before);
}

TEST(ServiceLifetimeTest, RecycledBaselinesNeverTouchPinnedSnapshots) {
  // Publishes and queries refill the storage of retired snapshots and
  // dropped query results.  Every publish must still match its replay
  // oracle (recycled storage is overwritten whole), and no snapshot
  // somebody pins — directly or through a query result — may be
  // recycled underneath its owner.
  const auto nl = netlist::make_random_dag(9, 5, 4, 6);
  const auto corners = service_corners();
  sta::StaService service(nl, vcl013(), sta::ServiceConfig{corners, 1});
  std::vector<sta::EditBatch> history = {constraint_batch(nl)};
  service.apply(history.back());

  struct Pin {
    std::shared_ptr<const sta::PreparedSnapshot> snap;
    std::vector<sta::TimingState> copy;
  };
  std::vector<Pin> pins;
  std::vector<sta::ScenarioTiming> results;
  std::vector<sta::TimingState> result_copies;
  std::string inverter;
  for (const auto& inst : nl.instances()) {
    if (inst.cell == "INVX1") inverter = inst.name;
  }
  ASSERT_FALSE(inverter.empty());
  sta::NoiseScenario clean;
  clean.name = "clean";

  for (int k = 0; k < 9; ++k) {
    sta::EditBatch b;
    if (k % 4 == 3) {
      b.retype_cell(inverter, k % 8 == 3 ? "INVX4" : "INVX1");
    } else {
      const auto& inst = nl.instances()[static_cast<size_t>(1 + 2 * k)];
      b.set_net_parasitics(inst.pins.at("Y"), (1.0 + k) * 1e-15,
                           (2.0 + k) * 1e-12);
    }
    // A dropped query result hands its storage to the next publish.
    EXPECT_TRUE(std::isfinite(service.query(clean, 0).worst_slack()));
    history.push_back(b);
    service.apply(b);

    const auto head = service.snapshot();
    const auto oracle = oracle_baselines(nl, history, corners);
    for (size_t c = 0; c < corners.size(); ++c) {
      ASSERT_TRUE(
          states_bitwise_equal(oracle[c], head->baseline(c), &head->engine()))
          << "publish " << k << ", corner " << c;
    }
    if (k % 3 == 0) {
      pins.push_back({head, {head->baseline(0), head->baseline(1)}});
    } else if (k % 3 == 1) {
      results.push_back(service.query(clean, 1));
      result_copies.push_back(head->baseline(1));
    }
    // Released pins free their snapshot for recycling mid-stream.
    if (k == 6) pins.erase(pins.begin());

    for (const auto& pin : pins) {
      for (size_t c = 0; c < corners.size(); ++c) {
        EXPECT_TRUE(states_bitwise_equal(pin.copy[c], pin.snap->baseline(c)))
            << "pinned version " << pin.snap->version() << " changed";
      }
    }
    for (size_t r = 0; r < results.size(); ++r) {
      EXPECT_TRUE(states_bitwise_equal(result_copies[r],
                                       results[r].snapshot()->baseline(1)))
          << "version pinned by a query result changed";
    }
  }
}

TEST(ServiceValidationTest, ErrorsNameHandleAndEditIndex) {
  const auto nl = netlist::make_random_dag(9, 5, 4, 6);
  sta::StaService service(nl, vcl013(),
                          sta::ServiceConfig{{sta::Corner{}}, 1});
  service.apply(constraint_batch(nl));
  const uint64_t version = service.snapshot()->version();

  auto expect_error = [&](const sta::EditBatch& batch,
                          std::initializer_list<const char*> needles) {
    try {
      service.apply(batch);
      FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
      const std::string msg = e.what();
      for (const char* needle : needles) {
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "message '" << msg << "' should mention '" << needle << "'";
      }
    }
    // Validation failures must not publish anything.
    EXPECT_EQ(service.snapshot()->version(), version);
  };

  sta::EditBatch unknown_port;
  unknown_port.set_net_parasitics(nl.instances()[0].pins.at("Y"), 1e-15, 0.0);
  unknown_port.set_output_load("no_such_port", 1e-15);
  expect_error(unknown_port,
               {"edit #1", "set_output_load", "no_such_port"});

  sta::EditBatch wrong_direction;
  wrong_direction.set_input_arrival("a0", 0.0, 80e-12);
  wrong_direction.set_required("a1", 1e-9);  // a1 is an input port
  expect_error(wrong_direction, {"edit #1", "set_required", "a1"});

  sta::EditBatch unknown_instance;
  unknown_instance.retype_cell("g9999", "INVX4");
  expect_error(unknown_instance, {"edit #0", "retype_cell", "g9999"});

  sta::EditBatch unknown_cell;
  unknown_cell.retype_cell(nl.instances()[0].name, "INVX8");
  expect_error(unknown_cell, {"retype_cell", "INVX8"});

  sta::EditBatch bad_pin_set;
  // NAND2X1 has a B pin an inverter lacks: retyping a NAND to an
  // inverter must name the missing pin.
  std::string nand;
  for (const auto& inst : nl.instances()) {
    if (inst.cell == "NAND2X1") nand = inst.name;
  }
  ASSERT_FALSE(nand.empty());
  bad_pin_set.retype_cell(nand, "INVX1");
  expect_error(bad_pin_set, {"retype_cell", "INVX1", "'B'"});

  sta::EditBatch drive_reroute;
  drive_reroute.reroute_sink(nl.instances()[0].name, "Y", "a0");
  expect_error(drive_reroute, {"reroute_sink", "/Y", "input"});

  sta::EditBatch bad_value;
  bad_value.set_input_arrival("a0", 0.0, -1e-12);
  expect_error(bad_value, {"set_input_arrival", "slew"});

  sta::EditBatch unknown_net;
  unknown_net.annotate_noisy_net("phantom_net", wave::Waveform{},
                                 wave::Polarity::kFalling);
  expect_error(unknown_net, {"annotate_noisy_net", "phantom_net"});
}

TEST(StalenessGuardTest, SweepResultThrowsAfterEngineDestruction) {
  auto fixture = statest::random_engine(7);
  sta::SweepSpec spec;
  spec.scenarios.push_back(statest::random_scenarios(fixture, 1)[0]);
  auto result = fixture.sta->sweep(spec);
  EXPECT_NO_THROW((void)result.worst_slack(0));
  auto view = result.view(0);
  EXPECT_NO_THROW((void)view.worst_slack());

  fixture.sta.reset();  // the result now points into freed engine state

  try {
    (void)result.worst_slack(0);
    FAIL() << "expected util::Error from a stale SweepResult";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("outlive"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)view.worst_slack(), util::Error);
  EXPECT_THROW((void)result.timing(0, "a0", sta::RiseFall::kRise),
               util::Error);
  EXPECT_THROW((void)result.critical_path(0), util::Error);
}

}  // namespace
}  // namespace waveletic
