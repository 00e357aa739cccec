// Unit + property tests for the waveform substrate: interpolation,
// crossings, resampling, polarity normalization, ramps, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "wave/metrics.hpp"
#include "wave/ramp.hpp"
#include "wave/waveform.hpp"

namespace wv = waveletic::wave;
namespace wu = waveletic::util;

namespace {

constexpr double kVdd = 1.2;

/// Noisy rising edge: main ramp plus a bump that re-crosses mid level.
wv::Waveform make_bumpy_rising() {
  std::vector<double> t, v;
  for (int i = 0; i <= 400; ++i) {
    const double ti = i * 1e-12;
    double vi = kVdd / (1.0 + std::exp(-(ti - 200e-12) / 30e-12));
    // Crosstalk-style bump centered at 280 ps, deep enough to pull the
    // signal back below the 0.5*Vdd level after the first crossing.
    vi -= 0.62 * std::exp(-std::pow((ti - 280e-12) / 25e-12, 2));
    t.push_back(ti);
    v.push_back(vi);
  }
  return wv::Waveform(std::move(t), std::move(v));
}

}  // namespace

TEST(Waveform, ConstructorValidates) {
  EXPECT_THROW(wv::Waveform({0.0, 0.0}, {1.0, 2.0}), wu::Error);
  EXPECT_THROW(wv::Waveform({0.0, 1.0}, {1.0}), wu::Error);
  EXPECT_THROW(wv::Waveform({}, {}), wu::Error);
  EXPECT_NO_THROW(wv::Waveform({0.0}, {1.0}));
  // Non-finite samples: a NaN value anywhere, a NaN or inf time in a
  // one-sample waveform, an inf tail time that still "increases".
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected_at = [](std::vector<double> t,
                                     std::vector<double> v,
                                     const std::string& index) {
    try {
      wv::Waveform w(std::move(t), std::move(v));
      ADD_FAILURE() << "non-finite sample accepted (index " << index << ")";
    } catch (const wu::Error& e) {
      EXPECT_NE(std::string(e.what()).find("index " + index),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected_at({0.0, 1.0, 2.0}, {0.0, nan, 1.0}, "1");
  expect_rejected_at({0.0, 1.0}, {0.0, -inf}, "1");
  expect_rejected_at({nan}, {1.0}, "0");
  expect_rejected_at({inf}, {1.0}, "0");
  expect_rejected_at({0.0, inf}, {0.0, 1.0}, "1");
}

TEST(Waveform, InterpolatesLinearlyAndClamps) {
  wv::Waveform w({0.0, 1.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(w.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1.5), 2.0);
  EXPECT_DOUBLE_EQ(w.at(-5.0), 0.0);   // clamp left
  EXPECT_DOUBLE_EQ(w.at(99.0), 2.0);   // clamp right
}

TEST(Waveform, DerivativeOfLineIsConstant) {
  std::vector<double> t, v;
  for (int i = 0; i <= 10; ++i) {
    t.push_back(0.1 * i);
    v.push_back(3.0 * 0.1 * i + 1.0);
  }
  const auto d = wv::Waveform(t, v).derivative();
  for (size_t i = 0; i < d.size(); ++i) EXPECT_NEAR(d.value(i), 3.0, 1e-9);
}

TEST(Waveform, CrossingsOfMonotoneRamp) {
  wv::Waveform w({0.0, 1.0}, {0.0, 1.0});
  const auto c = w.crossings(0.25);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NEAR(c[0], 0.25, 1e-15);
}

TEST(Waveform, CrossingsCountsBumps) {
  const auto w = make_bumpy_rising();
  // The bump pushes the waveform back below mid level: expect 3 mid
  // crossings (up, down, up).
  EXPECT_EQ(w.crossings(0.5 * kVdd).size(), 3u);
  EXPECT_LT(*w.first_crossing(0.5 * kVdd), *w.last_crossing(0.5 * kVdd));
}

TEST(Waveform, CrossingTouchingSampleCountedOnce) {
  wv::Waveform w({0.0, 1.0, 2.0}, {0.0, 0.5, 1.0});
  EXPECT_EQ(w.crossings(0.5).size(), 1u);
}

TEST(Waveform, NoCrossingReturnsNullopt) {
  wv::Waveform w({0.0, 1.0}, {0.0, 0.4});
  EXPECT_FALSE(w.first_crossing(0.9).has_value());
  EXPECT_FALSE(w.last_crossing(0.9).has_value());
}

TEST(Waveform, ResampleReproducesLinearSegments) {
  wv::Waveform w({0.0, 1.0, 3.0}, {0.0, 1.0, -1.0});
  const auto r = w.resampled(0.0, 3.0, 31);
  EXPECT_EQ(r.size(), 31u);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(r.value(i), w.at(r.time(i)), 1e-12);
  }
}

TEST(Waveform, WindowKeepsInteriorSamplesAndInterpolatesEnds) {
  wv::Waveform w({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 4.0, 9.0});
  const auto win = w.window(0.5, 2.5);
  EXPECT_DOUBLE_EQ(win.t_begin(), 0.5);
  EXPECT_DOUBLE_EQ(win.t_end(), 2.5);
  EXPECT_DOUBLE_EQ(win.at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(win.at(2.0), 4.0);
}

TEST(Waveform, ShiftMovesCrossings) {
  const auto w = make_bumpy_rising();
  const auto s = w.shifted(7e-12);
  EXPECT_NEAR(*s.last_crossing(0.5 * kVdd),
              *w.last_crossing(0.5 * kVdd) + 7e-12, 1e-15);
}

TEST(Waveform, FlipMapsFallingToRising) {
  const auto rising = make_bumpy_rising();
  const auto falling = rising.flipped(kVdd);
  // flipped twice = original
  const auto twice = falling.flipped(kVdd);
  for (size_t i = 0; i < rising.size(); ++i) {
    EXPECT_NEAR(twice.value(i), rising.value(i), 1e-15);
  }
  // normalized_rising on a falling wave equals the flip
  const auto norm =
      falling.normalized_rising(wv::Polarity::kFalling, kVdd);
  for (size_t i = 0; i < rising.size(); ++i) {
    EXPECT_NEAR(norm.value(i), rising.value(i), 1e-15);
  }
}

TEST(Waveform, SmoothingReducesBumpDepth) {
  const auto w = make_bumpy_rising();
  const auto s = w.smoothed(10);
  // Smoothing must not create new extremes.
  EXPECT_GE(s.min_value(), w.min_value() - 1e-12);
  EXPECT_LE(s.max_value(), w.max_value() + 1e-12);
  EXPECT_EQ(w.smoothed(0).size(), w.size());
}

TEST(Waveform, MonotoneDetection) {
  wv::Waveform mono({0.0, 1.0, 2.0}, {0.0, 0.5, 1.0});
  EXPECT_TRUE(mono.is_monotone_rising());
  EXPECT_FALSE(make_bumpy_rising().is_monotone_rising(1e-6));
}

TEST(Waveform, IntegralOfTriangle) {
  wv::Waveform w({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0});
  EXPECT_NEAR(w.integral(), 1.0, 1e-12);
  EXPECT_NEAR(w.integral(0.5), 0.0, 1e-12);
}

TEST(Waveform, LinearRampMeetsSpec) {
  const auto w = wv::Waveform::linear_ramp(1e-9, 200e-12, 0.0, kVdd, 256);
  EXPECT_NEAR(*w.first_crossing(0.5 * kVdd), 1e-9, 2e-12);
  const double t10 = *w.first_crossing(0.1 * kVdd);
  const double t90 = *w.first_crossing(0.9 * kVdd);
  EXPECT_NEAR(t90 - t10, 0.8 * 200e-12, 3e-12);
  EXPECT_TRUE(w.is_monotone_rising(1e-12));
}

TEST(Waveform, CsvRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "waveletic_test_wave.csv").string();
  const auto w = make_bumpy_rising();
  w.write_csv(path, "v");
  const auto r = wv::Waveform::read_csv(path);
  ASSERT_EQ(r.size(), w.size());
  for (size_t i = 0; i < w.size(); i += 37) {
    EXPECT_NEAR(r.value(i), w.value(i), 1e-9);
  }
  std::filesystem::remove(path);
}

TEST(Waveform, CombineUnionGrid) {
  wv::Waveform a({0.0, 2.0}, {0.0, 2.0});
  wv::Waveform b({1.0, 3.0}, {10.0, 10.0});
  const auto c = wv::combine(a, 1.0, b, 0.5);
  EXPECT_DOUBLE_EQ(c.at(1.0), 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(c.at(2.0), 2.0 + 5.0);
}

// ---------------------------------------------------------------------------
// Ramp (Γeff) tests
// ---------------------------------------------------------------------------

TEST(Ramp, FromArrivalSlewRoundTrips) {
  const auto r = wv::Ramp::from_arrival_slew(2e-9, 150e-12, kVdd);
  EXPECT_NEAR(r.t50(), 2e-9, 1e-18);
  EXPECT_NEAR(r.slew(), 150e-12, 1e-18);
}

TEST(Ramp, EvaluationClampsToRails) {
  const auto r = wv::Ramp::from_arrival_slew(1e-9, 100e-12, kVdd);
  EXPECT_DOUBLE_EQ(r.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(5e-9), kVdd);
  EXPECT_NEAR(r.at(r.t50()), 0.5 * kVdd, 1e-12);
}

TEST(Ramp, RejectsBadParameters) {
  EXPECT_THROW(wv::Ramp(-1.0, 0.0, kVdd), wu::Error);
  EXPECT_THROW((void)wv::Ramp::from_arrival_slew(0.0, -1e-12, kVdd),
               wu::Error);
}

TEST(Ramp, SampledWaveformMatchesAnalytic) {
  const auto r = wv::Ramp::from_arrival_slew(1e-9, 80e-12, kVdd);
  const auto w = r.sampled(512);
  for (size_t i = 0; i < w.size(); i += 19) {
    EXPECT_NEAR(w.value(i), r.at(w.time(i)), 1e-12);
  }
  EXPECT_NEAR(*w.first_crossing(0.5 * kVdd), r.t50(), 1e-12);
}

TEST(Ramp, ShiftMovesT50) {
  const auto r = wv::Ramp::from_arrival_slew(1e-9, 80e-12, kVdd);
  EXPECT_NEAR(r.shifted(30e-12).t50(), r.t50() + 30e-12, 1e-18);
}

TEST(Ramp, DenormalizedFallingDescends) {
  const auto r = wv::Ramp::from_arrival_slew(1e-9, 80e-12, kVdd);
  const auto w = r.denormalized(wv::Polarity::kFalling);
  EXPECT_GT(w.value(0), 0.9 * kVdd);
  EXPECT_LT(w.value(w.size() - 1), 0.1 * kVdd);
}

// ---------------------------------------------------------------------------
// Metrics tests
// ---------------------------------------------------------------------------

TEST(Metrics, LevelForHandlesPolarity) {
  EXPECT_DOUBLE_EQ(wv::level_for(wv::Polarity::kRising, 0.1, kVdd),
                   0.1 * kVdd);
  EXPECT_DOUBLE_EQ(wv::level_for(wv::Polarity::kFalling, 0.1, kVdd),
                   0.9 * kVdd);
}

TEST(Metrics, ArrivalUsesLatestCrossing) {
  const auto w = make_bumpy_rising();
  const auto arr = wv::arrival_50(w, wv::Polarity::kRising, kVdd);
  const auto first = wv::first_arrival_50(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(arr && first);
  EXPECT_GT(*arr, *first);
  EXPECT_NEAR(*arr, *w.last_crossing(0.5 * kVdd), 1e-18);
}

TEST(Metrics, NoisySlewSpansBump) {
  const auto w = make_bumpy_rising();
  const auto noisy = wv::slew_noisy(w, wv::Polarity::kRising, kVdd);
  const auto clean = wv::slew_clean(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(noisy && clean);
  EXPECT_GE(*noisy, *clean);  // bump delays the last 90% crossing
}

TEST(Metrics, GateDelayBetweenShiftedRamps) {
  const auto in = wv::Waveform::linear_ramp(1e-9, 100e-12, 0.0, kVdd);
  const auto out = wv::Waveform::linear_ramp(1.3e-9, 150e-12, 0.0, kVdd);
  const auto d = wv::gate_delay_50(in, wv::Polarity::kRising, out,
                                   wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(d);
  EXPECT_NEAR(*d, 0.3e-9, 2e-12);
}

TEST(Metrics, GateDelayWithInvertedOutput) {
  const auto in = wv::Waveform::linear_ramp(1e-9, 100e-12, 0.0, kVdd);
  const auto out =
      wv::Waveform::linear_ramp(1.2e-9, 150e-12, 0.0, kVdd).flipped(kVdd);
  const auto d = wv::gate_delay_50(in, wv::Polarity::kRising, out,
                                   wv::Polarity::kFalling, kVdd);
  ASSERT_TRUE(d);
  EXPECT_NEAR(*d, 0.2e-9, 2e-12);
}

TEST(Metrics, CrossingCountSeesBump) {
  EXPECT_EQ(wv::crossing_count_50(make_bumpy_rising(), kVdd), 3u);
  const auto clean = wv::Waveform::linear_ramp(1e-9, 100e-12, 0.0, kVdd);
  EXPECT_EQ(wv::crossing_count_50(clean, kVdd), 1u);
}

TEST(Metrics, RailExcursions) {
  wv::Waveform w({0.0, 1.0, 2.0}, {-0.1, 0.5, 1.3});
  const auto e = wv::rail_excursions(w, kVdd);
  EXPECT_NEAR(e.undershoot, 0.1, 1e-12);
  EXPECT_NEAR(e.overshoot, 0.1, 1e-12);
}

TEST(Metrics, RmsDifferenceZeroForIdentical) {
  const auto w = make_bumpy_rising();
  EXPECT_NEAR(wv::rms_difference(w, w, w.t_begin(), w.t_end()), 0.0, 1e-15);
}

TEST(Metrics, ArrivalEventRegionMatchesCriticalRegionForCleanRamp) {
  const auto w = wv::Waveform::linear_ramp(1e-9, 150e-12, 0.0, kVdd, 512);
  const auto ev =
      wv::arrival_event_region(w, wv::Polarity::kRising, kVdd);
  const auto cr =
      wv::noiseless_critical_region(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(ev && cr);
  EXPECT_NEAR(ev->t_first, cr->t_first, 2e-12);
  // Completion at 0.8*vdd ends slightly before the 0.9 crossing.
  EXPECT_LT(ev->t_last, cr->t_last);
  EXPECT_GT(ev->t_last, *w.first_crossing(0.5 * kVdd));
}

TEST(Metrics, ArrivalEventRegionCutsPostTransitionTail) {
  // Completed rising transition followed by a long shallow dip that
  // never re-crosses 50%: the event window must end at the completion
  // crossing, excluding the dip.
  std::vector<double> t, v;
  for (int i = 0; i <= 600; ++i) {
    const double ti = i * 1e-12;
    double vi = kVdd / (1.0 + std::exp(-(ti - 150e-12) / 20e-12));
    if (ti > 250e-12) {
      vi -= 0.35 * std::exp(-std::pow((ti - 400e-12) / 90e-12, 2.0));
    }
    t.push_back(ti);
    v.push_back(vi);
  }
  const wv::Waveform w(t, v);
  ASSERT_EQ(w.crossings(0.5 * kVdd).size(), 1u);  // dip stays above 50%
  const auto ev =
      wv::arrival_event_region(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(ev.has_value());
  EXPECT_LT(ev->t_last, 300e-12);  // ends at completion, not dip recovery
  const auto cr = wv::noisy_critical_region(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(cr.has_value());
  EXPECT_GT(cr->t_last, 350e-12);  // critical region does span the dip
}

TEST(Metrics, ArrivalEventRegionSpansRecrossingEvents) {
  // A dip deep enough to re-cross 50%: the window keeps both events so
  // a weighted fit can arbitrate between them.
  const auto base = wv::Waveform::linear_ramp(1e-9, 150e-12, 0.0, kVdd, 512);
  std::vector<double> t(base.times().begin(), base.times().end());
  std::vector<double> v(base.values().begin(), base.values().end());
  for (size_t i = 0; i < t.size(); ++i) {
    v[i] -= 0.8 * std::exp(-std::pow((t[i] - 1.18e-9) / 30e-12, 2.0));
  }
  const wv::Waveform w(std::move(t), std::move(v));
  ASSERT_GE(w.crossings(0.5 * kVdd).size(), 3u);
  const auto ev =
      wv::arrival_event_region(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(ev.has_value());
  EXPECT_LT(ev->t_first, 0.95e-9);              // includes the first rise
  EXPECT_GT(ev->t_last, *w.last_crossing(0.5 * kVdd));  // and the recovery
}

TEST(Metrics, ArrivalEventRegionHandlesMissingCrossings) {
  const wv::Waveform flat({0.0, 1e-9}, {0.0, 0.2});
  EXPECT_FALSE(
      wv::arrival_event_region(flat, wv::Polarity::kRising, kVdd).has_value());
}

TEST(Metrics, CriticalRegions) {
  const auto w = make_bumpy_rising();
  const auto noisy =
      wv::noisy_critical_region(w, wv::Polarity::kRising, kVdd);
  const auto clean =
      wv::noiseless_critical_region(w, wv::Polarity::kRising, kVdd);
  ASSERT_TRUE(noisy && clean);
  EXPECT_LE(clean->t_last, noisy->t_last);
  EXPECT_LT(noisy->t_first, noisy->t_last);
}

// ---------------------------------------------------------------------------
// Property sweeps (parameterized)
// ---------------------------------------------------------------------------

class RampPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(RampPropertyTest, SlewInvariantUnderShift) {
  const double slew = GetParam();
  const auto r = wv::Ramp::from_arrival_slew(1e-9, slew, kVdd);
  for (double dt : {-3e-10, -1e-12, 5e-11, 2e-9}) {
    EXPECT_NEAR(r.shifted(dt).slew(), slew, 1e-18);
  }
}

TEST_P(RampPropertyTest, SampledCrossingsMatchAnalyticTimes) {
  const double slew = GetParam();
  const auto r = wv::Ramp::from_arrival_slew(2e-9, slew, kVdd);
  const auto w = r.sampled(1024);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto c = w.first_crossing(frac * kVdd);
    ASSERT_TRUE(c.has_value());
    EXPECT_NEAR(*c, r.time_at(frac * kVdd), slew * 1e-2 + 1e-13);
  }
}

INSTANTIATE_TEST_SUITE_P(Slews, RampPropertyTest,
                         ::testing::Values(20e-12, 50e-12, 150e-12, 400e-12,
                                           1e-9));

class FlipPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FlipPropertyTest, ArrivalSymmetricUnderFlip) {
  // For any waveform, the rising arrival of w equals the falling arrival
  // of its flip.
  wu::Rng rng(GetParam());
  std::vector<double> t, v;
  double x = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const double ti = i * 2e-12;
    x = 0.97 * x + 0.03 * kVdd;  // smooth rise toward vdd
    t.push_back(ti);
    v.push_back(x + 0.05 * (rng.uniform() - 0.5));
  }
  const wv::Waveform w(t, v);
  const auto flipped = w.flipped(kVdd);
  const auto a = wv::arrival_50(w, wv::Polarity::kRising, kVdd);
  const auto b = wv::arrival_50(flipped, wv::Polarity::kFalling, kVdd);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    EXPECT_NEAR(*a, *b, 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlipPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
