// Sweep-layer bitwise property suite: the sweep against the serial
// evaluate() oracle at 1/2/4 threads on random netlists (shared-net
// scenario variants, multiple corners), the endpoint-only and pruned
// sweeps, evaluate_points_delta() against per-point serial evaluate()
// with and without a pool, and the lane-block grouper's partition
// invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace st = waveletic::sta;
namespace tu = waveletic::statest;
namespace wu = waveletic::util;

namespace {

::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

}  // namespace

// ---------------------------------------------------------------------------
// Sweep vs serial evaluate(), bitwise, across thread counts
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

TEST(Lanes, SweepMatchesSerialAtThreads) {
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
    // Every point runs evaluate_delta() and must reproduce the serial
    // oracle at any thread count.
    for (const int threads : {1, 2, 4}) {
      spec.threads = threads;
      const auto got = f.sta->sweep(spec);
      EXPECT_TRUE(tu::sweep_matches_serial(*f.sta, spec, got))
          << "seed=" << seed << " threads=" << threads;
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
