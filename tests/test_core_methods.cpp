// Tests for the equivalent-waveform techniques (the paper's core):
// exactness on clean ramps, the semantics of each baseline, the WLS5
// blind spot vs SGDP's voltage remapping, non-overlap alignment,
// degenerate fallbacks, and property sweeps over noise parameters.

#include <gtest/gtest.h>

#include <cmath>

#include "core/energy.hpp"
#include "core/lsf.hpp"
#include "core/method.hpp"
#include "core/point_based.hpp"
#include "core/sensitivity.hpp"
#include "core/sgdp.hpp"
#include "core/wls.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wave/metrics.hpp"

namespace co = waveletic::core;
namespace wv = waveletic::wave;
namespace wu = waveletic::util;

namespace {

constexpr double kVdd = 1.2;

/// Clean rising input: 150 ps 10-90 slew, t50 = 1 ns.
wv::Waveform clean_input() {
  return wv::Ramp::from_arrival_slew(1e-9, 150e-12, kVdd).sampled(1024);
}

/// Noiseless "gate output" (buffer-like): slightly sharper and 30 ps
/// later, so the transitions overlap broadly as in a single-stage gate
/// (the output starts moving while the input is still switching).
wv::Waveform clean_output() {
  return wv::Ramp::from_arrival_slew(1.03e-9, 120e-12, kVdd).sampled(1024);
}

/// Adds a Gaussian bump (possibly negative) to a waveform.
wv::Waveform with_bump(const wv::Waveform& base, double amp, double center,
                       double sigma) {
  std::vector<double> t(base.times().begin(), base.times().end());
  std::vector<double> v(base.values().begin(), base.values().end());
  for (size_t i = 0; i < t.size(); ++i) {
    v[i] += amp * std::exp(-std::pow((t[i] - center) / sigma, 2.0));
  }
  return wv::Waveform(std::move(t), std::move(v));
}

co::MethodInput make_input(const wv::Waveform& noisy,
                           const wv::Waveform& clean_in,
                           const wv::Waveform& clean_out) {
  co::MethodInput in;
  in.noisy_in = &noisy;
  in.noiseless_in = &clean_in;
  in.noiseless_out = &clean_out;
  in.in_polarity = wv::Polarity::kRising;
  in.out_polarity = wv::Polarity::kRising;  // buffer-style fixtures
  in.vdd = kVdd;
  return in;
}

}  // namespace

// ---------------------------------------------------------------------------
// Exactness on clean ramps: every technique must reproduce the ramp.
// ---------------------------------------------------------------------------

TEST(MethodsOnCleanRamp, AllTechniquesRecoverTheRamp) {
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto input = make_input(clean, clean, out);
  for (const auto& method : co::all_methods()) {
    SCOPED_TRACE(std::string(method->name()));
    const auto fit = method->fit(input);
    EXPECT_FALSE(fit.degenerate_fallback);
    EXPECT_NEAR(fit.ramp.t50(), 1e-9, 2e-12);
    EXPECT_NEAR(fit.ramp.slew(), 150e-12, 6e-12);
  }
}

// ---------------------------------------------------------------------------
// Baseline semantics
// ---------------------------------------------------------------------------

TEST(P1, UsesNoiselessSlewAndLatestNoisyArrival) {
  const auto clean = clean_input();
  const auto out = clean_output();
  // Deep dip after the first 50% crossing delays the last 50% crossing.
  const auto noisy = with_bump(clean, -0.55, 1.06e-9, 30e-12);
  ASSERT_GT(noisy.crossings(0.5 * kVdd).size(), 1u);
  const auto fit = co::P1Method{}.fit(make_input(noisy, clean, out));
  EXPECT_NEAR(fit.ramp.slew(), 150e-12, 3e-12);  // noiseless slew kept
  EXPECT_NEAR(fit.ramp.t50(), *noisy.last_crossing(0.5 * kVdd), 1e-13);
}

TEST(P2, SpansEarliestLowToLatestHighCrossing) {
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto noisy = with_bump(clean, -0.45, 1.1e-9, 40e-12);
  const auto fit = co::P2Method{}.fit(make_input(noisy, clean, out));
  const double expected_slew =
      *noisy.last_crossing(0.9 * kVdd) - *noisy.first_crossing(0.1 * kVdd);
  EXPECT_NEAR(fit.ramp.slew(), expected_slew, 1e-13);
  EXPECT_GT(fit.ramp.slew(), 150e-12);  // noise widened the span
}

TEST(E4, CleanRampSlopeIsExact) {
  // For the clean ramp the enclosed area is the triangle (Vdd/2)²/(2a).
  const auto clean = clean_input();
  const auto fit =
      co::E4Method{}.fit(make_input(clean, clean, clean_output()));
  EXPECT_NEAR(fit.ramp.slew(), 150e-12, 2e-12);
  EXPECT_NEAR(fit.ramp.t50(), 1e-9, 1e-12);
}

TEST(E4, MultipleCrossingsMakeItPessimistic) {
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto noisy = with_bump(clean, -0.5, 1.08e-9, 25e-12);
  ASSERT_GE(noisy.crossings(0.5 * kVdd).size(), 3u);
  const auto fit = co::E4Method{}.fit(make_input(noisy, clean, out));
  // Arrival pinned at the (late) last crossing: later than the clean 1ns.
  EXPECT_GT(fit.ramp.t50(), 1.05e-9);
}

TEST(Lsf3, MatchesUnweightedLeastSquares) {
  const auto clean = clean_input();
  const auto noisy = with_bump(clean, 0.2, 0.95e-9, 50e-12);
  const auto input = make_input(noisy, clean, clean_output());
  const auto fit = co::Lsf3Method{}.fit(input);
  EXPECT_FALSE(fit.degenerate_fallback);
  EXPECT_GT(fit.ramp.a(), 0.0);
  // The helper and the method agree.
  auto& ws = wu::thread_scratch();
  const auto scope = ws.scope();
  const auto helper = co::lsf3_fit(noisy, kVdd, input.samples, ws);
  EXPECT_NEAR(fit.ramp.t50(), helper.ramp.t50(), 1e-15);
}

// ---------------------------------------------------------------------------
// Sensitivity curve
// ---------------------------------------------------------------------------

TEST(Sensitivity, PlateauEqualsSlopeRatioForOverlappingRamps) {
  const auto in = clean_input();                      // slew 150 ps
  const auto out = clean_output();                    // slew 90 ps
  const auto rho = co::SensitivityCurve::build(in, out, kVdd, true);
  EXPECT_FALSE(rho.aligned());
  // In the overlap mid-zone the derivative ratio is s_in/s_out = 1.25.
  EXPECT_NEAR(rho.rho_at_time(1.0e-9), 150.0 / 120.0, 0.15);
  // Outside the noiseless critical region the curve is exactly zero.
  EXPECT_DOUBLE_EQ(rho.rho_at_time(0.8e-9), 0.0);
  EXPECT_DOUBLE_EQ(rho.rho_at_time(1.4e-9), 0.0);
}

TEST(Sensitivity, VoltageIndexMatchesTimeIndex) {
  const auto in = clean_input();
  const auto out = clean_output();
  const auto rho = co::SensitivityCurve::build(in, out, kVdd, true);
  for (double t : {0.95e-9, 1.0e-9, 1.05e-9}) {
    const double v = in.at(t);
    EXPECT_NEAR(rho.rho_at_voltage(v), rho.rho_at_time(t), 0.05)
        << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(rho.rho_at_voltage(0.05 * kVdd), 0.0);
  EXPECT_DOUBLE_EQ(rho.rho_at_voltage(0.98 * kVdd), 0.0);
}

TEST(Sensitivity, DeltaIsGateDelay) {
  const auto rho =
      co::SensitivityCurve::build(clean_input(), clean_output(), kVdd, true);
  EXPECT_NEAR(rho.delta(), 0.03e-9, 2e-12);
}

TEST(Sensitivity, AlignsDisjointTransitions) {
  const auto in = clean_input();
  const auto far_out =
      wv::Ramp::from_arrival_slew(2.5e-9, 90e-12, kVdd).sampled(1024);
  const auto rho = co::SensitivityCurve::build(in, far_out, kVdd, true);
  EXPECT_TRUE(rho.aligned());
  EXPECT_NEAR(rho.delta(), 1.5e-9, 5e-12);
  // After alignment the plateau is meaningful again.
  EXPECT_NEAR(rho.rho_at_time(1.0e-9), 150.0 / 90.0, 0.2);
  // Without alignment, rho over the input region is ~zero.
  const auto rho_raw = co::SensitivityCurve::build(in, far_out, kVdd, false);
  EXPECT_NEAR(rho_raw.rho_at_time(1.0e-9), 0.0, 1e-3);
}

TEST(Sensitivity, ThrowsOnIncompleteTransitions) {
  const auto in = clean_input();
  const wv::Waveform flat({0.0, 1e-9, 2e-9}, {0.0, 0.1, 0.2});
  EXPECT_THROW((void)co::SensitivityCurve::build(in, flat, kVdd, true),
               wu::Error);
}

// ---------------------------------------------------------------------------
// The paper's central mechanism: WLS5's blind spot vs SGDP Step 2
// ---------------------------------------------------------------------------

TEST(Wls5VsSgdp, NoiseOutsideNoiselessWindowIsInvisibleToWls5Only) {
  const auto clean = clean_input();
  const auto out = clean_output();
  // Deep dip *after* the noiseless 90% crossing (~1.075 ns): pulls the
  // waveform down near ground around 1.2 ns, far below any sensitivity
  // band edge, so the re-cross is unambiguously operative.
  const auto noisy = with_bump(clean, -1.05, 1.2e-9, 35e-12);
  ASSERT_GT(*noisy.last_crossing(0.5 * kVdd), 1.15e-9);

  const auto input = make_input(noisy, clean, out);
  const auto wls = co::Wls5Method{}.fit(input);
  const auto sgdp = co::SgdpMethod{}.fit(input);

  // WLS5 samples/weights only the noiseless window where the waveform is
  // clean: it reproduces the unperturbed ramp and misses the event.
  EXPECT_NEAR(wls.ramp.t50(), 1e-9, 3e-12);
  // SGDP's remapped sensitivity sees the dip and moves the ramp later.
  EXPECT_GT(sgdp.ramp.t50(), wls.ramp.t50() + 20e-12);
  EXPECT_FALSE(sgdp.degenerate_fallback);
}

TEST(Wls5VsSgdp, AgreeWhenNoiseSitsInsideTheNoiselessWindow) {
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto noisy = with_bump(clean, -0.25, 1.0e-9, 40e-12);
  const auto input = make_input(noisy, clean, out);
  const auto wls = co::Wls5Method{}.fit(input);
  co::SgdpMethod::Options opt;
  opt.second_order = false;  // first-order SGDP ≈ WLS with remapped ρ
  const auto sgdp = co::SgdpMethod{opt}.fit(input);
  EXPECT_NEAR(sgdp.ramp.t50(), wls.ramp.t50(), 15e-12);
  EXPECT_NEAR(sgdp.ramp.slew(), wls.ramp.slew(), 30e-12);
}

TEST(Sgdp, SecondOrderTermRefinesNotExplodes) {
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto noisy = with_bump(clean, -0.45, 1.1e-9, 35e-12);
  const auto input = make_input(noisy, clean, out);
  co::SgdpMethod::Options first, second;
  first.second_order = false;
  second.second_order = true;
  const auto f1 = co::SgdpMethod{first}.fit(input);
  const auto f2 = co::SgdpMethod{second}.fit(input);
  EXPECT_FALSE(f2.degenerate_fallback);
  // Refinement stays in the same neighbourhood (no divergence).
  EXPECT_NEAR(f2.ramp.t50(), f1.ramp.t50(), 60e-12);
  EXPECT_GT(f2.ramp.a(), 0.0);
}

TEST(Sgdp, EffectiveSensitivityFollowsNoisyVoltages) {
  const auto clean = clean_input();
  const auto out = clean_output();
  // Deep dip that re-crosses the 50% level: the arrival event then
  // extends through the dip and its recovery.
  const auto noisy = with_bump(clean, -0.8, 1.15e-9, 35e-12);
  ASSERT_GT(noisy.crossings(0.5 * kVdd).size(), 1u);
  co::SgdpMethod sgdp;
  const auto rho_eff = sgdp.effective_sensitivity(make_input(noisy, clean, out));
  ASSERT_GE(rho_eff.size(), 8u);
  // Where the dip pulls the voltage back into the active band, the
  // remapped sensitivity is nonzero even though the time is far outside
  // the noiseless critical region.
  bool late_nonzero = false;
  for (size_t i = 0; i < rho_eff.size(); ++i) {
    if (rho_eff.time(i) > 1.12e-9 && std::fabs(rho_eff.value(i)) > 0.2) {
      late_nonzero = true;
    }
  }
  EXPECT_TRUE(late_nonzero);
}

// ---------------------------------------------------------------------------
// Non-overlap handling (multi-stage / heavily loaded gates)
// ---------------------------------------------------------------------------

TEST(NonOverlap, Wls5DegeneratesSgdpSurvives) {
  const auto in = clean_input();
  // Output transition 1.5 ns later: disjoint from the input transition
  // (the multi-stage-cell case the paper discusses).
  const auto out =
      wv::Ramp::from_arrival_slew(2.5e-9, 90e-12, kVdd).sampled(1024);
  const auto noisy = with_bump(in, -0.3, 1.05e-9, 40e-12);
  const auto input = make_input(noisy, in, out);

  const auto wls = co::Wls5Method{}.fit(input);
  EXPECT_TRUE(wls.degenerate_fallback);  // ρ ≈ 0 everywhere

  const auto sgdp = co::SgdpMethod{}.fit(input);
  EXPECT_FALSE(sgdp.degenerate_fallback);
  EXPECT_GT(sgdp.ramp.a(), 0.0);
}

TEST(NonOverlap, LiteralDeltaShiftMovesGammaForward) {
  const auto in = clean_input();
  const auto out =
      wv::Ramp::from_arrival_slew(2.5e-9, 90e-12, kVdd).sampled(1024);
  const auto noisy = with_bump(in, -0.3, 1.05e-9, 40e-12);
  const auto input = make_input(noisy, in, out);

  co::SgdpMethod::Options plain, literal;
  literal.shift_gamma_by_delta = true;
  const auto base = co::SgdpMethod{plain}.fit(input);
  const auto shifted = co::SgdpMethod{literal}.fit(input);
  EXPECT_NEAR(shifted.ramp.t50() - base.ramp.t50(), 1.5e-9, 10e-12);
}

// ---------------------------------------------------------------------------
// Registry, sampling, input validation
// ---------------------------------------------------------------------------

TEST(Registry, AllSixMethodsInPaperOrder) {
  const auto methods = co::all_methods();
  ASSERT_EQ(methods.size(), 6u);
  const char* expected[] = {"P1", "P2", "LSF3", "E4", "WLS5", "SGDP"};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(methods[i]->name(), expected[i]);
  }
}

TEST(Registry, MakeMethodByNameCaseInsensitive) {
  EXPECT_EQ(co::make_method("sgdp")->name(), "SGDP");
  EXPECT_EQ(co::make_method("Wls5")->name(), "WLS5");
  EXPECT_THROW((void)co::make_method("P9"), wu::Error);
}

TEST(Sampling, UniformInclusiveEndpoints) {
  const auto t = co::sample_times(1.0, 2.0, 5);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_DOUBLE_EQ(t.front(), 1.0);
  EXPECT_DOUBLE_EQ(t.back(), 2.0);
  EXPECT_DOUBLE_EQ(t[2], 1.5);
  EXPECT_THROW((void)co::sample_times(1.0, 1.0, 5), wu::Error);
}

TEST(Validation, MissingWaveformsThrow) {
  co::MethodInput input;
  EXPECT_THROW((void)co::P2Method{}.fit(input), wu::Error);
  const auto clean = clean_input();
  input.noisy_in = &clean;
  input.vdd = kVdd;
  EXPECT_THROW((void)co::Wls5Method{}.fit(input), wu::Error);   // no pair
  EXPECT_NO_THROW((void)co::P2Method{}.fit(input));             // P2 ok
  input.samples = 2;
  EXPECT_THROW((void)co::P2Method{}.fit(input), wu::Error);     // P too small
}

TEST(Validation, FallingPolarityNormalization) {
  // A falling noisy transition with a falling->rising inverter output:
  // methods operate in the normalized frame and still succeed.
  const auto rising = clean_input();
  const auto falling = rising.flipped(kVdd);
  const auto out_rising = clean_output();
  co::MethodInput input;
  input.noisy_in = &falling;
  input.noiseless_in = &falling;
  input.noiseless_out = &out_rising;
  input.in_polarity = wv::Polarity::kFalling;
  input.out_polarity = wv::Polarity::kRising;
  input.vdd = kVdd;
  for (const auto& method : co::all_methods()) {
    SCOPED_TRACE(std::string(method->name()));
    const auto fit = method->fit(input);
    EXPECT_NEAR(fit.ramp.t50(), 1e-9, 3e-12);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: random bumps never break any method
// ---------------------------------------------------------------------------

class NoisePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NoisePropertyTest, AllMethodsProduceSaneRampsUnderRandomNoise) {
  wu::Rng rng(static_cast<uint64_t>(GetParam()));
  const auto clean = clean_input();
  const auto out = clean_output();
  const auto methods = co::all_methods();
  for (int trial = 0; trial < 8; ++trial) {
    const double amp = rng.uniform(-0.6, 0.6);
    const double center = rng.uniform(0.85e-9, 1.3e-9);
    const double sigma = rng.uniform(15e-12, 60e-12);
    const auto noisy = with_bump(clean, amp, center, sigma);
    const auto input = make_input(noisy, clean, out);
    for (const auto& method : methods) {
      SCOPED_TRACE(std::string(method->name()) + " amp=" +
                   std::to_string(amp) + " c=" + std::to_string(center));
      const auto fit = method->fit(input);
      EXPECT_GT(fit.ramp.a(), 0.0);
      EXPECT_GT(fit.ramp.t50(), 0.7e-9);
      EXPECT_LT(fit.ramp.t50(), 1.6e-9);
      EXPECT_GT(fit.ramp.slew(), 5e-12);
      EXPECT_LT(fit.ramp.slew(), 2e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoisePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));
