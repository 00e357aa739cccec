// Parallel + batched STA propagation: bitwise determinism of the
// level-parallel forward/backward passes across thread counts, bitwise
// equivalence of threaded scenario sweeps vs. sequential looped runs
// and the serial evaluate() oracle (on chain trees and randomized
// netlists), Γeff-memo hit accounting, and the ThreadPool loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/ramp.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

// Shared scaffolding lives in sta_test_util.hpp.
const lb::Library& lib() { return tu::vcl013(); }

nl::Netlist wide_netlist(int width) { return nl::make_chain_tree(width); }

void constrain(st::StaEngine& sta, int width) {
  tu::constrain_chain_tree(sta, width);
}

void expect_states_identical(const st::StaEngine& sta,
                             const st::TimingState& a,
                             const st::TimingState& b) {
  EXPECT_TRUE(tu::states_bitwise_equal(a, b, &sta));
}

st::NoiseScenario bump_scenario(const st::StaEngine& clean, int chain,
                                double alignment, double strength) {
  return tu::chain_bump_scenario(clean, chain, alignment, strength);
}

}  // namespace

TEST(StaParallel, LevelsCoverAllVerticesOnce) {
  const auto net = wide_netlist(8);
  st::StaEngine sta(net, lib());
  size_t total = 0;
  for (const auto& level : sta.levels()) total += level.size();
  EXPECT_EQ(total, sta.vertex_count());
  EXPECT_GT(sta.levels().size(), 3u);  // chains are at least 3 gates deep
}

TEST(StaParallel, MultiThreadBitwiseIdenticalToSingleThread) {
  // evaluate() dispatches only levels wider than one kLevelChunk; the
  // chains make levels `width` wide, so this width spans four chunks
  // and run() really takes the pooled branch.
  const size_t chunk = st::StaEngine::kLevelChunk;
  const int width = static_cast<int>(3 * chunk + 1);
  const auto net = wide_netlist(width);

  st::StaEngine sta1(net, lib());
  constrain(sta1, width);
  size_t widest = 0;
  for (const auto& level : sta1.levels()) {
    widest = std::max(widest, level.size());
  }
  ASSERT_GT(widest, 2 * chunk) << "fixture no longer dispatches levels";
  sta1.run();

  // A noisy annotation makes the parallel path exercise Γeff too.
  const auto& n0 = sta1.timing("inv0_2/A", st::RiseFall::kFall);
  const auto ramp =
      wv::Ramp::from_arrival_slew(n0.arrival, n0.slew, lib().nom_voltage);
  const auto noisy_run = [&](st::StaEngine& sta, int threads) {
    constrain(sta, width);
    sta.annotate_noisy_net("c0_1",
                           ramp.denormalized(wv::Polarity::kFalling, 256),
                           wv::Polarity::kFalling);
    sta.set_threads(threads);
    sta.run();
  };
  st::StaEngine ref(net, lib());
  noisy_run(ref, 1);

  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (const int threads : {2, 4, 8}) {
    st::StaEngine stan(net, lib());
    noisy_run(stan, threads);
    size_t divergent = 0;
    for (size_t v = 0; v < ref.vertex_count(); ++v) {
      const st::PinId pin = ref.pin(ref.vertex_name(v));
      for (const auto rf : {st::RiseFall::kRise, st::RiseFall::kFall}) {
        const auto& a = ref.timing(pin, rf);
        const auto& b = stan.timing(stan.pin(ref.vertex_name(v)), rf);
        if (a.valid != b.valid || bits(a.arrival) != bits(b.arrival) ||
            bits(a.slew) != bits(b.slew) ||
            bits(a.required) != bits(b.required)) {
          ++divergent;
        }
      }
    }
    EXPECT_EQ(divergent, 0u) << "threads=" << threads;
    EXPECT_EQ(ref.worst_slack(), stan.worst_slack()) << "threads=" << threads;
  }
}

TEST(StaParallel, BatchedBitwiseIdenticalToLoopedRuns) {
  const int width = 6;
  const auto net = wide_netlist(width);

  // Clean run provides the victim ramps the scenarios perturb.
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // 24 scenarios: aggressor alignment × strength grid on two nets.
  std::vector<st::NoiseScenario> scenarios;
  for (int chain : {0, 3}) {
    for (int a = 0; a < 4; ++a) {
      for (int s = 0; s < 3; ++s) {
        scenarios.push_back(bump_scenario(clean, chain,
                                          (a - 2) * 20e-12,
                                          0.25 + 0.2 * s));
      }
    }
  }

  // Looped baseline: one engine, re-annotated and re-run per scenario,
  // single-threaded, no cache.
  std::vector<double> looped_arrival, looped_slack;
  for (const auto& sc : scenarios) {
    st::StaEngine sta(net, lib());
    constrain(sta, width);
    for (const auto& e : sc.entries) {
      sta.annotate_noisy_net(e.net, e.annotation.waveform,
                             e.annotation.polarity);
    }
    sta.run();
    looped_arrival.push_back(sta.timing("y", st::RiseFall::kFall).arrival);
    looped_slack.push_back(sta.worst_slack());
  }

  // Batched: one sweep, 4 threads, shared Γeff cache.
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = 4;
  const auto swept = sta.sweep(spec);

  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(swept.timing(i, "y", st::RiseFall::kFall).arrival,
              looped_arrival[i])
        << "scenario " << i << " (" << swept.scenario_name(i) << ")";
    EXPECT_EQ(swept.worst_slack(i), looped_slack[i]) << "scenario " << i;
  }
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, swept));
}

TEST(StaParallel, GammaCacheCountsHitsForRepeatedScenarios) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  // The same annotation repeated across all scenarios: the fit must be
  // computed once per (edge, rf) and hit thereafter.
  const auto sc = bump_scenario(clean, 0, 10e-12, 0.4);
  const int copies = 16;
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.scenarios.assign(copies, sc);
  spec.threads = 2;
  const auto swept = sta.sweep(spec);

  const auto stats = swept.cache_stats();
  // One noisy sink, one matching transition → exactly one lookup per
  // scenario, deterministically.
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(copies));
  // There is one distinct key; concurrent first lookups may each miss
  // before the first insert lands, so allow up to `threads` misses.
  EXPECT_GE(stats.misses, 1u);
  EXPECT_LE(stats.misses, 2u);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(copies) - 2);

  // And hits do not change results: scenario 0 == scenario N-1 bitwise.
  expect_states_identical(sta, swept.state(0), swept.state(copies - 1));
}

TEST(StaParallel, CacheOffMatchesCacheOnBitwise) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  std::vector<st::NoiseScenario> scenarios;
  for (int a = 0; a < 4; ++a) {
    scenarios.push_back(bump_scenario(clean, 1, a * 15e-12, 0.5));
  }

  // The threaded sweep shares one Γeff memo; the serial oracle runs
  // without any cache.
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  st::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.threads = 2;
  const auto swept = sta.sweep(spec);
  EXPECT_GT(swept.cache_stats().hits + swept.cache_stats().misses, 0u);
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, swept));
}

TEST(StaParallel, ThreadPoolRunsEveryIndexOnceAndPropagatesErrors) {
  // parallel_for_dynamic at 1 (inline), 2 and 4 workers.
  for (const int threads : {1, 2, 4}) {
    wu::ThreadPool dyn(threads);
    EXPECT_EQ(dyn.size(), static_cast<size_t>(threads));
    const size_t n = 1000;
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    std::atomic<int> bad_worker{0};
    dyn.parallel_for_dynamic(n, [&](size_t worker, size_t i) {
      if (worker >= dyn.size()) bad_worker++;
      runs[i]++;
    });
    for (auto& r : runs) EXPECT_EQ(r.load(), 1) << "threads " << threads;
    EXPECT_EQ(bad_worker.load(), 0);

    // The first exception cancels the unclaimed remainder and surfaces
    // on the caller.  Slow bodies keep the other workers from draining
    // the whole range before the cancellation lands.
    std::atomic<int> executed{0};
    try {
      dyn.parallel_for_dynamic(n, [&](size_t, size_t i) {
        executed++;
        if (i == 0) throw wu::Error("boom at 0");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      FAIL() << "expected util::Error";
    } catch (const wu::Error& e) {
      EXPECT_NE(std::string(e.what()).find("boom at 0"), std::string::npos);
    }
    EXPECT_LT(executed.load(), static_cast<int>(n)) << "threads " << threads;
    if (threads == 1) {
      EXPECT_EQ(executed.load(), 1);  // inline: nothing after the throw
    }

    std::atomic<int> count{0};
    dyn.parallel_for_dynamic(7, [&](size_t, size_t) { count++; });
    EXPECT_EQ(count.load(), 7);
  }
}

TEST(StaParallel, RandomNetlistSweepsMatchSerialAcrossThreads) {
  // Randomized netlists: threaded sweeps must reproduce the serial
  // evaluate() oracle bitwise at 1/2/4 threads.
  for (const uint64_t seed : {3ull, 11ull}) {
    const auto f = tu::random_engine(seed);
    st::SweepSpec spec;
    spec.scenarios = tu::random_scenarios(f, 6);
    for (const int threads : {1, 2, 4}) {
      spec.threads = threads;
      const auto swept = f.sta->sweep(spec);
      EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, swept))
          << "seed " << seed << " threads " << threads;
      // Repeated runs are bitwise stable too.
      const auto again = f.sta->sweep(spec);
      for (size_t p = 0; p < swept.size(); ++p) {
        EXPECT_TRUE(tu::states_bitwise_equal(swept.state(p), again.state(p),
                                             f.sta.get()))
            << "repeat, seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(StaParallel, EngineAnnotationsOverlayIntoBatchScenarios) {
  const int width = 4;
  const auto net = wide_netlist(width);
  st::StaEngine clean(net, lib());
  constrain(clean, width);
  clean.run();

  const auto sc0 = bump_scenario(clean, 0, 10e-12, 0.5);
  const auto sc1 = bump_scenario(clean, 1, -15e-12, 0.4);

  // Engine-level annotation on chain 1, scenario annotation on chain 0:
  // the sweep must apply BOTH (engine annotations overlay into every
  // scenario; the scenario wins only on nets both touch).
  st::StaEngine sta(net, lib());
  constrain(sta, width);
  const auto& ann1 = sc1.entries.front().annotation;
  sta.annotate_noisy_net(sc1.entries.front().net, ann1.waveform,
                         ann1.polarity);
  st::SweepSpec spec;
  spec.scenarios = {sc0};
  const auto swept = sta.sweep(spec);

  // Reference: one engine run with both annotations applied.
  st::StaEngine both(net, lib());
  constrain(both, width);
  both.annotate_noisy_net(sc1.entries.front().net, ann1.waveform,
                          ann1.polarity);
  const auto& ann0 = sc0.entries.front().annotation;
  both.annotate_noisy_net(sc0.entries.front().net, ann0.waveform,
                          ann0.polarity);
  both.run();

  EXPECT_EQ(swept.timing(0, "y", st::RiseFall::kFall).arrival,
            both.timing("y", st::RiseFall::kFall).arrival);
  EXPECT_EQ(swept.worst_slack(0), both.worst_slack());

  // clear_noisy_nets drops the engine-level annotation: the next run
  // matches the clean analysis again.
  both.clear_noisy_nets();
  both.run();
  EXPECT_EQ(both.timing("y", st::RiseFall::kFall).arrival,
            clean.timing("y", st::RiseFall::kFall).arrival);
}

TEST(StaParallel, EmptyScenarioIsTheCleanRun) {
  const auto net = wide_netlist(2);
  st::StaEngine sta(net, lib());
  constrain(sta, 2);
  st::SweepSpec spec;
  spec.scenarios.emplace_back();  // scenario with no annotations = clean
  spec.threads = 2;
  const auto swept = sta.sweep(spec);
  sta.run();
  EXPECT_EQ(swept.timing(0, "y", st::RiseFall::kFall).arrival,
            sta.timing("y", st::RiseFall::kFall).arrival);
  EXPECT_TRUE(tu::sweep_matches_serial(sta, spec, swept));
}
