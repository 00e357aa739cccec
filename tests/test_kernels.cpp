// Batched waveform kernels: bitwise identity of the merge-scan and
// destination-buffer kernels against the scalar Waveform reference,
// Workspace arena reuse semantics, every Γeff technique bitwise
// independent of what its thread's arena held before, heap-free fits
// and evaluations on a warm thread, and a threaded sweep bitwise-equal
// to serial evaluate().

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/method.hpp"
#include "core/sgdp.hpp"
#include "netlist/generators.hpp"
#include "sta/engine.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"
#include "sta_test_util.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "wave/kernels.hpp"
#include "wave/metrics.hpp"
#include "wave/ramp.hpp"
#include "wave/waveform.hpp"

namespace co = waveletic::core;
namespace tu = waveletic::statest;
namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

namespace {

/// Bitwise double comparison (== also equates +0/−0 and fails NaN).
::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bitwise)";
}

/// Random strictly increasing time grid + arbitrary values.
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

/// Random non-decreasing query grid spanning past both record ends so
/// the clamp regions are exercised.
std::vector<double> random_sorted_grid(std::mt19937_64& rng,
                                       const wv::Waveform& w, size_t m) {
  const double span = w.t_end() - w.t_begin();
  std::uniform_real_distribution<double> u(w.t_begin() - 0.3 * span,
                                           w.t_end() + 0.3 * span);
  std::vector<double> ts(m);
  for (auto& x : ts) x = u(rng);
  std::sort(ts.begin(), ts.end());
  // Exact grid hits and exact end points are the interesting corners.
  if (m >= 4) {
    ts[0] = w.t_begin();
    ts[m - 1] = w.t_end();
    ts[m / 2] = w.time(w.size() / 2);
    std::sort(ts.begin(), ts.end());
  }
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// sample_into / resample_into / combine_into bitwise identity
// ---------------------------------------------------------------------------

TEST(Kernels, SampleIntoMatchesScalarAtBitwise) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + static_cast<size_t>(rng() % 300);
    const size_t m = 1 + static_cast<size_t>(rng() % 200);
    const auto w = random_waveform(rng, n);
    const auto ts = random_sorted_grid(rng, w, m);
    std::vector<double> out(m);
    wv::sample_into(w, ts, out);
    for (size_t k = 0; k < m; ++k) {
      EXPECT_TRUE(BitEq(out[k], w.at(ts[k])))
          << "round " << round << " query " << k;
    }
  }
}

TEST(Kernels, SampleIntoSingleSampleWaveform) {
  const wv::Waveform w({1.0}, {0.7});
  const std::vector<double> ts = {0.0, 1.0, 2.0};
  std::vector<double> out(3);
  wv::sample_into(w, ts, out);
  for (double x : out) EXPECT_TRUE(BitEq(x, 0.7));
}

TEST(Kernels, ResampleIntoMatchesResampledBitwise) {
  // Waveform::resampled is built on resample_into, so the reference is
  // the uniform-grid formula plus one binary-search Waveform::at per
  // sample.
  std::mt19937_64 rng(11);
  for (int round = 0; round < 20; ++round) {
    const auto w = random_waveform(rng, 2 + rng() % 200);
    const size_t m = 2 + rng() % 100;
    const double span = w.t_end() - w.t_begin();
    const double t0 = w.t_begin() - 0.1 * span;
    const double t1 = w.t_end() + 0.1 * span;
    const double dt = (t1 - t0) / static_cast<double>(m - 1);
    std::vector<double> t(m), v(m);
    wv::resample_into(w, t0, t1, t, v);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(BitEq(t[i], t0 + dt * static_cast<double>(i)));
      EXPECT_TRUE(BitEq(v[i], w.at(t[i])));
    }
  }
}

TEST(Kernels, FlipIntoMatchesFlippedBitwise) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 40; ++round) {
    // Lengths from 1 up, so the 1-3 sample records are covered.
    const size_t n =
        1 + (round < 3 ? static_cast<size_t>(round) : rng() % 120);
    const auto w = random_waveform(rng, n);
    const auto ref = w.flipped(1.2);
    std::vector<double> out(n);
    wv::flip_into(w, 1.2, out);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEq(out[i], ref.value(i))) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Kernels, MergeGridsMatchesSortUnique) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 20; ++round) {
    const auto a = random_waveform(rng, 1 + rng() % 100);
    auto b = random_waveform(rng, 1 + rng() % 100);
    // Force duplicates: graft some of a's grid points into b.
    std::vector<double> bt(b.times().begin(), b.times().end());
    std::vector<double> bv(b.values().begin(), b.values().end());
    bt.insert(bt.end(), a.times().begin(), a.times().end());
    std::sort(bt.begin(), bt.end());
    bt.erase(std::unique(bt.begin(), bt.end()), bt.end());
    bv.resize(bt.size(), 0.5);
    b = wv::Waveform(bt, bv);

    std::vector<double> ref(a.size() + b.size());
    {
      std::vector<double> cat;
      cat.insert(cat.end(), a.times().begin(), a.times().end());
      cat.insert(cat.end(), b.times().begin(), b.times().end());
      std::sort(cat.begin(), cat.end());
      cat.erase(std::unique(cat.begin(), cat.end()), cat.end());
      ref = cat;
    }
    std::vector<double> merged(a.size() + b.size());
    merged.resize(wv::merge_grids(a.times(), b.times(), merged));
    ASSERT_EQ(merged.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(BitEq(merged[i], ref[i]));
    }
  }
}

TEST(Kernels, CombineIntoMatchesCombineBitwise) {
  std::mt19937_64 rng(17);
  wv::Workspace ws;
  for (int round = 0; round < 20; ++round) {
    const auto a = random_waveform(rng, 1 + rng() % 150);
    const auto b = random_waveform(rng, 1 + rng() % 150);
    const auto ref = wv::combine(a, 0.75, b, -1.25);
    const auto scope = ws.scope();
    const auto got = wv::combine_into(a, 0.75, b, -1.25, ws);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(BitEq(got.time[i], ref.time(i)));
      EXPECT_TRUE(BitEq(got.value[i], ref.value(i)));
    }
  }
}

TEST(Kernels, DerivativeIntoMatchesDerivativeBitwise) {
  std::mt19937_64 rng(19);
  const auto w = random_waveform(rng, 64);
  const auto ref = w.derivative();
  std::vector<double> out(w.size());
  wv::derivative_into(w, out);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(BitEq(out[i], ref.value(i)));
  }
}

// ---------------------------------------------------------------------------
// smoothed: prefix-sum vs the naive O(n·w) reference
// ---------------------------------------------------------------------------

TEST(Kernels, SmoothedMatchesNaiveReference) {
  std::mt19937_64 rng(23);
  const auto w = random_waveform(rng, 257);
  for (const size_t half : {size_t{0}, size_t{1}, size_t{5}, size_t{300}}) {
    const auto s = w.smoothed(half);
    ASSERT_EQ(s.size(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      const size_t lo = (i >= half) ? i - half : 0;
      const size_t hi = std::min(w.size() - 1, i + half);
      double acc = 0.0;
      for (size_t j = lo; j <= hi; ++j) acc += w.value(j);
      const double ref = acc / static_cast<double>(hi - lo + 1);
      // The prefix-sum refactor changes the fold order, so tolerance
      // rather than bitwise; the clamped end windows must agree.
      EXPECT_NEAR(s.value(i), ref, 1e-12) << "i=" << i << " half=" << half;
    }
  }
  // half_width = 0 is an exact copy.
  const auto copy = w.smoothed(0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(BitEq(copy.value(i), w.value(i)));
  }
}

// ---------------------------------------------------------------------------
// Crossings: dedup fix + scan equivalence
// ---------------------------------------------------------------------------

TEST(Kernels, FinalSampleOnLevelAfterTouchingPenultimateCountsOnce) {
  // ... 0.2, 0.5, 0.5 — the flat tail touches the level once, not twice.
  const wv::Waveform w({0.0, 1.0, 2.0}, {0.2, 0.5, 0.5});
  const auto c = w.crossings(0.5);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_TRUE(BitEq(c[0], 1.0));
  // A record ending on the level after an off-level sample still counts.
  const wv::Waveform w2({0.0, 1.0}, {0.2, 0.5});
  ASSERT_EQ(w2.crossings(0.5).size(), 1u);
  EXPECT_TRUE(BitEq(w2.crossings(0.5)[0], 1.0));
}

TEST(Kernels, CrossingScansMatchCrossingsList) {
  std::mt19937_64 rng(29);
  wv::Workspace ws;
  for (int round = 0; round < 40; ++round) {
    const auto w = random_waveform(rng, 1 + rng() % 120);
    // Levels on exact sample values exercise the touch/dedup rules.
    for (const double level : {0.5, w.value(0), w.value(w.size() / 2),
                               w.value(w.size() - 1)}) {
      const auto list = w.crossings(level);
      const auto first = wv::first_crossing(wv::WaveView(w), level);
      const auto last = wv::last_crossing(wv::WaveView(w), level);
      EXPECT_EQ(wv::crossing_count(w, level), list.size());
      if (list.empty()) {
        EXPECT_FALSE(first.has_value());
        EXPECT_FALSE(last.has_value());
      } else {
        ASSERT_TRUE(first.has_value());
        ASSERT_TRUE(last.has_value());
        EXPECT_TRUE(BitEq(*first, list.front()));
        EXPECT_TRUE(BitEq(*last, list.back()));
      }
      const auto scope = ws.scope();
      const auto collected = wv::crossings_into(w, level, ws);
      ASSERT_EQ(collected.size(), list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        EXPECT_TRUE(BitEq(collected[i], list[i]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace arena semantics
// ---------------------------------------------------------------------------

TEST(Workspace, ScopeRewindReusesSlabsWithoutNewAllocations) {
  wv::Workspace ws;
  {
    const auto scope = ws.scope();
    (void)ws.alloc(1000);
    (void)ws.alloc(2000);
  }
  const uint64_t warm = ws.heap_allocations();
  EXPECT_GE(warm, 1u);
  for (int i = 0; i < 100; ++i) {
    const auto scope = ws.scope();
    const auto a = ws.alloc(1000);
    const auto b = ws.alloc(2000);
    EXPECT_EQ(a.size(), 1000u);
    EXPECT_EQ(b.size(), 2000u);
  }
  EXPECT_EQ(ws.heap_allocations(), warm)
      << "warmed workspace must not touch the heap again";
}

TEST(Workspace, LargeRequestGetsOwnSlabAndSurvivesMove) {
  wv::Workspace ws;
  auto big = ws.alloc(100000);
  big[0] = 42.0;
  big[99999] = 7.0;
  wv::Workspace moved = std::move(ws);
  // Slab addresses are stable under moves: the span stays valid.
  EXPECT_EQ(big[0], 42.0);
  EXPECT_EQ(big[99999], 7.0);
  EXPECT_GE(moved.heap_allocations(), 1u);
}

// ---------------------------------------------------------------------------
// Methods: a cold thread arena vs a warm one holding stale data, bitwise
// ---------------------------------------------------------------------------

namespace {

struct MethodFixture {
  wv::Waveform noisy;
  wv::Waveform clean_in;
  wv::Waveform clean_out;

  MethodFixture() {
    // A rising victim with a mid-transition dip (re-crosses 50%), the
    // canonical noisy shape of the paper.
    const double vdd = 1.2;
    const auto ramp = wv::Ramp::from_arrival_slew(1.0e-9, 150e-12, vdd);
    clean_in = ramp.sampled(256);
    clean_out = wv::Ramp::from_arrival_slew(1.12e-9, 180e-12, vdd)
                    .sampled(256);
    std::vector<double> t(clean_in.times().begin(), clean_in.times().end());
    std::vector<double> v(clean_in.values().begin(),
                          clean_in.values().end());
    for (size_t i = 0; i < t.size(); ++i) {
      v[i] -= 0.45 * std::exp(-std::pow((t[i] - 1.03e-9) / 40e-12, 2.0));
    }
    noisy = wv::Waveform(std::move(t), std::move(v));
  }

  [[nodiscard]] co::MethodInput input() const {
    co::MethodInput mi;
    mi.noisy_in = &noisy;
    mi.noiseless_in = &clean_in;
    mi.noiseless_out = &clean_out;
    mi.in_polarity = wv::Polarity::kRising;
    mi.out_polarity = wv::Polarity::kRising;
    mi.vdd = 1.2;
    return mi;
  }
};

/// Fills the first slabs of this thread's arena with NaN and rewinds:
/// every later scratch request reads stale garbage unless it writes
/// before it reads.
void poison_thread_scratch() {
  auto& ws = wu::thread_scratch();
  const auto scope = ws.scope();
  for (int i = 0; i < 4; ++i) {
    const auto s = ws.alloc(size_t{1} << 14);
    std::fill(s.begin(), s.end(), std::numeric_limits<double>::quiet_NaN());
  }
}

/// Runs `f` on a fresh thread, whose arena starts empty.
template <class F>
auto on_cold_thread(F f) {
  decltype(f()) out{};
  std::thread th([&] {
    EXPECT_EQ(wu::thread_scratch().heap_allocations(), 0u);
    out = f();
  });
  th.join();
  return out;
}

/// Fits `method` on a cold thread and on this thread over a poisoned
/// warm arena, and checks the two ramps bitwise.
void expect_cold_equals_stale(const co::EquivalentWaveformMethod& method,
                              const co::MethodInput& mi) {
  const auto cold = on_cold_thread([&] { return method.fit(mi); });
  (void)method.fit(mi);  // warm this thread's slabs …
  poison_thread_scratch();  // … and leave garbage in them
  const auto stale = method.fit(mi);
  EXPECT_TRUE(BitEq(cold.ramp.a(), stale.ramp.a())) << method.name()
                                                    << " slope";
  EXPECT_TRUE(BitEq(cold.ramp.b(), stale.ramp.b())) << method.name()
                                                    << " intercept";
  EXPECT_EQ(cold.degenerate_fallback, stale.degenerate_fallback)
      << method.name();
}

/// A chain tree with aggressor bumps on two chains (noisy net sinks
/// force Γeff fits during propagation).
struct NoisyChainFixture {
  const lb::Library& lib = tu::vcl013();
  nl::Netlist netlist = nl::make_chain_tree(8);
  st::StaEngine sta{netlist, lib};
  std::vector<st::NoiseScenario> scenarios;

  NoisyChainFixture() {
    tu::constrain_chain_tree(sta, 8);
    sta.run();
    for (int s = 0; s < 6; ++s) {
      scenarios.push_back(tu::chain_bump_scenario(
          sta, s % 2, (s - 3) * 10e-12, 0.25 + 0.05 * s));
    }
    sta.prepare();
  }

  /// Serial evaluate() of scenario `s` with no Γeff memo.
  [[nodiscard]] st::TimingState evaluate(size_t s) const {
    const auto table = sta.compile_edge_annotations(&scenarios[s]);
    st::StaEngine::EvalContext ctx;
    ctx.edge_noise = table.data();
    ctx.method = &sta.noise_method();
    st::TimingState state;
    sta.evaluate(state, ctx);
    return state;
  }
};

}  // namespace

TEST(Kernels, AllMethodsBitwiseIdenticalOnColdAndStaleArenas) {
  const MethodFixture f;
  for (const auto& method : co::all_methods()) {
    expect_cold_equals_stale(*method, f.input());
  }
}

TEST(Kernels, WarmedWorkspaceMakesFitsHeapFree) {
  // On a cold thread the first fit sizes the arena; a fit that leaked
  // scratch past its scope would outgrow it within the repeats.
  const MethodFixture f;
  for (const auto& method : co::all_methods()) {
    const auto slabs = on_cold_thread([&] {
      (void)method->fit(f.input());  // warm the slabs
      const uint64_t warm = wu::thread_scratch().heap_allocations();
      for (int i = 0; i < 100; ++i) (void)method->fit(f.input());
      return std::pair{warm, wu::thread_scratch().heap_allocations()};
    });
    EXPECT_EQ(slabs.second, slabs.first)
        << method->name() << ": repeated fits must reuse the warmed arena";
  }
}

TEST(Kernels, FallingPolarityBitwiseOnColdAndStaleArenas) {
  const MethodFixture rising;
  // Flip everything to falling so normalized_rising_view takes the
  // flip-into-arena path.
  const double vdd = 1.2;
  const auto noisy_f = rising.noisy.flipped(vdd);
  const auto in_f = rising.clean_in.flipped(vdd);
  const auto out_f = rising.clean_out.flipped(vdd);
  co::MethodInput mi;
  mi.noisy_in = &noisy_f;
  mi.noiseless_in = &in_f;
  mi.noiseless_out = &out_f;
  mi.in_polarity = wv::Polarity::kFalling;
  mi.out_polarity = wv::Polarity::kFalling;
  mi.vdd = vdd;
  expect_cold_equals_stale(co::SgdpMethod{}, mi);
}

TEST(Kernels, SerialEvaluateOnWarmThreadAllocatesNoSlab) {
  const NoisyChainFixture f;
  const auto slabs = on_cold_thread([&] {
    for (size_t s = 0; s < f.scenarios.size(); ++s) (void)f.evaluate(s);
    const uint64_t warm = wu::thread_scratch().heap_allocations();
    for (size_t s = 0; s < f.scenarios.size(); ++s) (void)f.evaluate(s);
    return std::pair{warm, wu::thread_scratch().heap_allocations()};
  });
  EXPECT_GT(slabs.first, 0u) << "the fixture must fit noisy nets";
  EXPECT_EQ(slabs.second, slabs.first)
      << "evaluate() on a warm thread must not grow its arena";
}

TEST(Kernels, CallerAllocationSurvivesEvaluateOnSameThread) {
  const NoisyChainFixture f;
  const auto cold = on_cold_thread([&] { return f.evaluate(0); });
  auto& ws = wu::thread_scratch();
  const auto scope = ws.scope();
  const auto mine = ws.alloc(4096);
  for (size_t i = 0; i < mine.size(); ++i) mine[i] = static_cast<double>(i);
  const auto nested = f.evaluate(0);  // fits noisy nets on this thread
  for (size_t i = 0; i < mine.size(); ++i) {
    ASSERT_EQ(mine[i], static_cast<double>(i)) << "caller slot " << i;
  }
  EXPECT_TRUE(tu::states_bitwise_equal(cold, nested, &f.sta));
  // The fits rewound to their own marks: the next request continues
  // right after the caller's buffer.
  EXPECT_EQ(ws.alloc(1).data(), mine.data() + mine.size());
}

// ---------------------------------------------------------------------------
// Threaded sweep == serial evaluate()
// ---------------------------------------------------------------------------

TEST(Kernels, ThreadedSweepBitwiseEqualsSerialEvaluate) {
  NoisyChainFixture f;
  // Threaded sweep: pool workers fit on their own arenas, shared memo.
  st::SweepSpec spec;
  spec.scenarios = f.scenarios;
  spec.threads = 4;
  auto result = f.sta.sweep(spec);

  for (size_t s = 0; s < f.scenarios.size(); ++s) {
    EXPECT_TRUE(tu::states_bitwise_equal(f.evaluate(s), result.state(s),
                                         &f.sta))
        << "scenario " << s;
  }
}
