// Lane layer bitwise property suite: every Lane<W> kernel against the
// W=1 scalar oracle on randomized waveforms (unaligned tails, exact
// grid hits, clamp edges, crossing touches), the sweep at kernel widths
// 1 and 4 against the serial evaluate() oracle bitwise at 1/2/4 threads
// on random netlists (shared-net scenario variants, multiple corners),
// evaluate_points_delta() against per-point serial evaluate() with and
// without a pool, and the lane-block grouper's partition invariants.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/kernels.hpp"
#include "wave/lanes.hpp"
#include "wave/waveform.hpp"

namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

bool avx2() { return wv::lane_width_available(4); }

::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

wv::Waveform random_waveform(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> step(1e-13, 5e-12);
  std::uniform_real_distribution<double> volt(-0.3, 1.5);
  std::vector<double> t(n), v(n);
  double acc = -1e-9;
  for (size_t i = 0; i < n; ++i) {
    acc += step(rng);
    t[i] = acc;
    v[i] = volt(rng);
  }
  return wv::Waveform(std::move(t), std::move(v));
}

/// Non-decreasing query grid spanning past both record ends (clamp
/// regions) with exact sample hits planted (the tie-break corners).
std::vector<double> random_sorted_grid(std::mt19937_64& rng,
                                       const wv::Waveform& w, size_t m) {
  const double span = w.t_end() - w.t_begin();
  std::uniform_real_distribution<double> u(w.t_begin() - 0.3 * span,
                                           w.t_end() + 0.3 * span);
  std::vector<double> ts(m);
  for (auto& x : ts) x = u(rng);
  if (m >= 4) {
    ts[0] = w.t_begin();
    ts[1] = w.t_end();
    ts[2] = w.time(w.size() / 2);
    ts[3] = w.time((w.size() * 3) / 4);
  }
  std::sort(ts.begin(), ts.end());
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel-level W=4 vs W=1 bitwise identity (forced-width A/B)
// ---------------------------------------------------------------------------

TEST(Lanes, DispatchReportsConsistentWidths) {
  EXPECT_TRUE(wv::lane_width_available(1));
  EXPECT_TRUE(wv::active_lane_width() == 1 || wv::active_lane_width() == 4);
  if (wv::compiled_lane_width() == 1) {
    EXPECT_FALSE(avx2());
  }
  {
    wv::LaneWidthGuard g(1);
    EXPECT_EQ(wv::active_lane_width(), 1);
  }
  if (avx2()) {
    wv::LaneWidthGuard g(4);
    EXPECT_EQ(wv::active_lane_width(), 4);
  }
  EXPECT_THROW(wv::force_lane_width(3), wu::Error);
  EXPECT_THROW(wv::force_lane_width(-1), wu::Error);
  if (!avx2()) {
    EXPECT_THROW(wv::force_lane_width(4), wu::Error);
  }
}

TEST(Lanes, SampleIntoW4MatchesW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(101);
  for (int round = 0; round < 60; ++round) {
    // Lengths off the vector width on purpose: unaligned tails.
    const size_t n = 1 + static_cast<size_t>(rng() % 97);
    const size_t m = 1 + static_cast<size_t>(rng() % 131);
    const auto w = random_waveform(rng, n);
    const auto ts = random_sorted_grid(rng, w, m);
    std::vector<double> scalar(m), lanes(m);
    {
      wv::LaneWidthGuard g(1);
      wv::sample_into(w, ts, scalar);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::sample_into(w, ts, lanes);
    }
    for (size_t k = 0; k < m; ++k) {
      ASSERT_TRUE(BitEq(scalar[k], lanes[k]))
          << "round " << round << " query " << k;
    }
  }
}

TEST(Lanes, ResampleIntoW4MatchesW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(103);
  for (int round = 0; round < 30; ++round) {
    const auto w = random_waveform(rng, 2 + rng() % 120);
    const size_t m = 2 + rng() % 90;
    const double span = w.t_end() - w.t_begin();
    const double t0 = w.t_begin() - 0.15 * span;
    const double t1 = w.t_end() + 0.2 * span;
    std::vector<double> t1v(m), v1v(m), t4v(m), v4v(m);
    {
      wv::LaneWidthGuard g(1);
      wv::resample_into(w, t0, t1, t1v, v1v);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::resample_into(w, t0, t1, t4v, v4v);
    }
    for (size_t k = 0; k < m; ++k) {
      ASSERT_TRUE(BitEq(t1v[k], t4v[k])) << "time " << k;
      ASSERT_TRUE(BitEq(v1v[k], v4v[k])) << "value " << k;
    }
  }
}

TEST(Lanes, FlipAndCombineW4MatchW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(107);
  for (int round = 0; round < 30; ++round) {
    const auto a = random_waveform(rng, 1 + rng() % 77);
    const auto b = random_waveform(rng, 1 + rng() % 77);
    std::vector<double> f1(a.size()), f4(a.size());
    {
      wv::LaneWidthGuard g(1);
      wv::flip_into(a, 1.2, f1);
    }
    {
      wv::LaneWidthGuard g(4);
      wv::flip_into(a, 1.2, f4);
    }
    for (size_t k = 0; k < a.size(); ++k) {
      ASSERT_TRUE(BitEq(f1[k], f4[k])) << "flip " << k;
    }
    wv::Workspace ws1, ws4;
    std::vector<double> c1, c4;
    {
      wv::LaneWidthGuard g(1);
      const auto scope = ws1.scope();
      const auto r = wv::combine_into(a, 0.7, b, -1.3, ws1);
      c1.assign(r.value.begin(), r.value.end());
    }
    {
      wv::LaneWidthGuard g(4);
      const auto scope = ws4.scope();
      const auto r = wv::combine_into(a, 0.7, b, -1.3, ws4);
      c4.assign(r.value.begin(), r.value.end());
    }
    ASSERT_EQ(c1.size(), c4.size());
    for (size_t k = 0; k < c1.size(); ++k) {
      ASSERT_TRUE(BitEq(c1[k], c4[k])) << "combine " << k;
    }
  }
}

TEST(Lanes, CrossingScansW4MatchW1Bitwise) {
  if (!avx2()) GTEST_SKIP() << "AVX2 unavailable";
  std::mt19937_64 rng(109);
  for (int round = 0; round < 60; ++round) {
    const auto w = random_waveform(rng, 1 + rng() % 90);
    // Levels include exact sample values — the touch/dedup corners the
    // vector fast-skip must not disturb.
    std::vector<double> levels = {0.5, -0.31, 1.5, w.value(0),
                                  w.value(w.size() / 2),
                                  w.value(w.size() - 1)};
    for (const double level : levels) {
      std::optional<double> fc1, fc4, lc1, lc4;
      size_t n1 = 0, n4 = 0;
      std::vector<double> all1, all4;
      wv::Workspace ws;
      {
        wv::LaneWidthGuard g(1);
        fc1 = wv::first_crossing(w, level);
        lc1 = wv::last_crossing(w, level);
        n1 = wv::crossing_count(w, level);
        const auto scope = ws.scope();
        const auto s = wv::crossings_into(w, level, ws);
        all1.assign(s.begin(), s.end());
      }
      {
        wv::LaneWidthGuard g(4);
        fc4 = wv::first_crossing(w, level);
        lc4 = wv::last_crossing(w, level);
        n4 = wv::crossing_count(w, level);
        const auto scope = ws.scope();
        const auto s = wv::crossings_into(w, level, ws);
        all4.assign(s.begin(), s.end());
      }
      ASSERT_EQ(fc1.has_value(), fc4.has_value()) << "level " << level;
      if (fc1) {
        ASSERT_TRUE(BitEq(*fc1, *fc4));
      }
      ASSERT_EQ(lc1.has_value(), lc4.has_value());
      if (lc1) {
        ASSERT_TRUE(BitEq(*lc1, *lc4));
      }
      ASSERT_EQ(n1, n4);
      ASSERT_EQ(all1.size(), all4.size());
      for (size_t k = 0; k < all1.size(); ++k) {
        ASSERT_TRUE(BitEq(all1[k], all4[k])) << "crossing " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep vs serial evaluate(), bitwise, across kernel widths and threads
// ---------------------------------------------------------------------------

namespace {

/// Scenario mix that exercises every grouping shape: 8 variants on the
/// SAME nets (identical plan content, distinct objects → same-plan
/// buckets) plus near-miss singles (distinct cones → union merging).
std::vector<st::NoiseScenario> grouping_scenarios(
    const tu::EngineFixture& f) {
  auto scenarios = tu::random_scenarios(f, 12);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].name = "s" + std::to_string(i);
  }
  return scenarios;
}

}  // namespace

TEST(Lanes, SweepMatchesSerialAtKernelWidthsAndThreads) {
  for (const uint64_t seed : {3u, 17u}) {
    auto f = tu::random_engine(seed);
    st::Corner slow;
    slow.name = "slow";
    slow.cell_delay_scale = 1.08;
    slow.cell_slew_scale = 1.05;
    slow.wire_delay_scale = 1.15;

    st::SweepSpec spec;
    spec.scenarios = grouping_scenarios(f);
    spec.corners = {st::Corner{}, slow};
    // The width pins the batched waveform kernels inside the Γeff
    // fits; every point runs evaluate_delta() at either width and must
    // reproduce the serial oracle.
    for (const int width : {1, 4}) {
      if (width == 4 && !avx2()) continue;
      wv::LaneWidthGuard guard(width);
      for (const int threads : {1, 2, 4}) {
        spec.threads = threads;
        const auto got = f.sta->sweep(spec);
        EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, got))
            << "seed=" << seed << " width=" << width
            << " threads=" << threads;
      }
    }
  }
}

TEST(Lanes, EndpointOnlyLaneSweepMatchesScalar) {
  auto f = tu::random_engine(23);
  st::SweepSpec spec;
  spec.scenarios = grouping_scenarios(f);
  spec.threads = 2;
  spec.endpoint_only = true;
  const auto got = f.sta->sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, got));
}

TEST(Lanes, PrunedLaneSweepStaysExact) {
  auto f = tu::random_engine(29);
  st::SweepSpec spec;
  spec.scenarios = grouping_scenarios(f);
  spec.threads = 2;
  spec.endpoint_only = true;
  const auto ref = f.sta->sweep(spec);
  spec.prune = st::PruneMode::kSafe;
  const auto got = f.sta->sweep(spec);
  EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, got));
  EXPECT_EQ(ref.worst_point().point, got.worst_point().point);
  EXPECT_TRUE(BitEq(ref.worst_point().slack, got.worst_point().slack));
}

// ---------------------------------------------------------------------------
// Direct evaluate_points_delta() vs per-point serial evaluate()
// ---------------------------------------------------------------------------

TEST(Lanes, EvaluatePointsDeltaMatchesSerialEvaluate) {
  auto f = tu::random_engine(41);
  auto& sta = *f.sta;
  sta.prepare();
  const auto scenarios = grouping_scenarios(f);

  // One baseline under the engine-level (empty) annotation table.
  const auto base_table = sta.compile_edge_annotations(nullptr);
  std::vector<st::TimingState> baseline(1);
  {
    st::StaEngine::EvalContext bctx;
    bctx.edge_noise = base_table.data();
    bctx.method = &sta.noise_method();
    sta.evaluate(baseline[0], bctx);
  }

  std::vector<std::vector<const st::NoiseAnnotation*>> tables;
  std::vector<st::StaEngine::DeltaPlan> plans;
  tables.reserve(scenarios.size());
  plans.reserve(scenarios.size());
  for (const auto& sc : scenarios) {
    tables.push_back(sta.compile_edge_annotations(&sc));
    plans.push_back(sta.delta_plan(sc));
  }
  const size_t n = scenarios.size();
  std::vector<st::StaEngine::EvalContext> contexts(n);
  std::vector<const st::TimingState*> baselines(n, &baseline[0]);
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs(n);
  for (size_t p = 0; p < n; ++p) {
    contexts[p].edge_noise = tables[p].data();
    contexts[p].method = &sta.noise_method();
    plan_ptrs[p] = &plans[p];
  }

  // Oracle: a from-scratch serial evaluate() of every point.
  std::vector<st::TimingState> ref(n);
  for (size_t p = 0; p < n; ++p) sta.evaluate(ref[p], contexts[p]);

  for (const int threads : {0, 2}) {
    std::unique_ptr<wu::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<wu::ThreadPool>(threads);
    std::vector<st::TimingState> got(n);
    sta.evaluate_points_delta(got, contexts, baselines, plan_ptrs, pool.get());
    for (size_t p = 0; p < n; ++p) {
      EXPECT_TRUE(tu::states_bitwise_equal(ref[p], got[p], &sta))
          << "threads=" << threads << " point " << p;
    }
  }

  // A null baseline or plan is rejected up front, naming the point.
  std::vector<st::TimingState> out(n);
  const auto expect_null_rejected =
      [&](std::span<const st::TimingState* const> bases,
          std::span<const st::StaEngine::DeltaPlan* const> ps) {
        try {
          sta.evaluate_points_delta(out, contexts, bases, ps);
          ADD_FAILURE() << "null pointer accepted";
        } catch (const wu::Error& e) {
          EXPECT_NE(std::string(e.what()).find(
                        "evaluate_points_delta: null baseline/plan at point 5"),
                    std::string::npos)
              << e.what();
        }
      };
  auto null_base = baselines;
  null_base[5] = nullptr;
  expect_null_rejected(null_base, plan_ptrs);
  auto null_plan = plan_ptrs;
  null_plan[5] = nullptr;
  expect_null_rejected(baselines, null_plan);
}

TEST(Lanes, GroupingIsContentBasedAndBounded) {
  auto f = tu::random_engine(43);
  auto& sta = *f.sta;
  sta.prepare();
  const auto scenarios = grouping_scenarios(f);
  const auto base_table = sta.compile_edge_annotations(nullptr);
  std::vector<st::TimingState> baseline(1);
  {
    st::StaEngine::EvalContext bctx;
    bctx.edge_noise = base_table.data();
    bctx.method = &sta.noise_method();
    sta.evaluate(baseline[0], bctx);
  }
  std::vector<st::StaEngine::DeltaPlan> plans;
  for (const auto& sc : scenarios) plans.push_back(sta.delta_plan(sc));
  const size_t n = scenarios.size();
  std::vector<st::StaEngine::EvalContext> contexts(n);
  std::vector<const st::TimingState*> baselines(n, &baseline[0]);
  std::vector<const st::StaEngine::DeltaPlan*> plan_ptrs(n);
  for (size_t p = 0; p < n; ++p) plan_ptrs[p] = &plans[p];

  const auto blocks = sta.group_lane_blocks(contexts, baselines, plan_ptrs, 4);
  size_t covered = 0;
  std::vector<int> seen(n, 0);
  for (const auto& b : blocks) {
    ASSERT_GE(b.points.size(), 1u);
    ASSERT_LE(b.points.size(), 4u);
    ASSERT_NE(b.plan, nullptr);
    for (const uint32_t p : b.points) {
      ASSERT_LT(p, n);
      ++seen[p];
      ++covered;
      // Every lane's own cone must be inside the block's plan (union
      // plans are cone-supersets).
      for (const int v : plans[p].forward) {
        EXPECT_TRUE(std::find(b.plan->forward.begin(), b.plan->forward.end(),
                              v) != b.plan->forward.end());
      }
    }
  }
  EXPECT_EQ(covered, n);  // exact partition of the point set
  for (size_t p = 0; p < n; ++p) EXPECT_EQ(seen[p], 1);
  // random_scenarios lays variants over the same nets repeatedly, so
  // with 12 scenarios there must be at least one multi-lane block.
  bool any_multi = false;
  for (const auto& b : blocks) any_multi |= b.points.size() > 1;
  EXPECT_TRUE(any_multi);
}
