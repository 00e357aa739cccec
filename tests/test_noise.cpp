// Noise-injection pipeline tests: Figure 1 testbench construction,
// golden noisy/noiseless waveform extraction, receiver-replica fidelity,
// and delay-noise behaviour vs aggressor alignment.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>

#include "noise/receiver_eval.hpp"
#include "noise/scenario.hpp"
#include "noise/testbench.hpp"
#include "util/error.hpp"
#include "wave/metrics.hpp"

namespace no = waveletic::noise;
namespace cl = waveletic::charlib;
namespace wv = waveletic::wave;
namespace wu = waveletic::util;

namespace {

/// Coarser, faster runner settings for tests.
no::RunnerOptions fast_runner() {
  no::RunnerOptions opt;
  opt.dt = 2e-12;
  return opt;
}

no::TestbenchSpec fast_config1() {
  auto spec = no::TestbenchSpec::config1();
  spec.victim_t50 = 1.5e-9;  // shorter quiet lead-in than the default
  return spec;
}

}  // namespace

TEST(Testbench, Config1BuildsThePaperTopology) {
  const cl::Pdk pdk;
  const auto tb = no::build_testbench(pdk, no::TestbenchSpec::config1());
  EXPECT_EQ(tb.in_u, "y_6");
  EXPECT_EQ(tb.out_u, "out_y");
  EXPECT_EQ(tb.aggressor_sources.size(), 1u);
  EXPECT_TRUE(tb.circuit.has_node("in_y"));
  EXPECT_TRUE(tb.circuit.has_node("x1_0"));
  EXPECT_TRUE(tb.circuit.has_node("w16_y"));
  EXPECT_TRUE(tb.circuit.has_node("w64_x1"));
  // Victim input rising -> line falls at in_u -> receiver output rises.
  EXPECT_EQ(tb.line_polarity(), wv::Polarity::kFalling);
  EXPECT_EQ(tb.output_polarity(), wv::Polarity::kRising);
}

TEST(Testbench, Config2HasTwoAggressors) {
  const cl::Pdk pdk;
  const auto tb = no::build_testbench(pdk, no::TestbenchSpec::config2());
  EXPECT_EQ(tb.aggressor_sources.size(), 2u);
  EXPECT_EQ(tb.in_u, "y_3");  // 3 segments for the 500 um lines
  EXPECT_TRUE(tb.circuit.has_node("x2_0"));
}

TEST(Testbench, AggressorStimulusDirections) {
  const cl::Pdk pdk;
  auto spec = no::TestbenchSpec::config1();
  spec.opposite_aggressor = true;
  // Victim input rises => aggressor input must fall (quiet level vdd).
  const auto quiet = no::aggressor_stimulus(pdk, spec, 0.0, true);
  EXPECT_DOUBLE_EQ(quiet->at(0.0), pdk.vdd);
  const auto active = no::aggressor_stimulus(pdk, spec, 0.0, false);
  EXPECT_DOUBLE_EQ(active->at(0.0), pdk.vdd);
  EXPECT_NEAR(active->at(10e-9), 0.0, 1e-12);

  spec.opposite_aggressor = false;
  const auto same = no::aggressor_stimulus(pdk, spec, 0.0, false);
  EXPECT_DOUBLE_EQ(same->at(0.0), 0.0);
  EXPECT_NEAR(same->at(10e-9), pdk.vdd, 1e-12);
}

TEST(NoiseRunner, NoiselessVictimIsCleanAndMonotoneThroughMid) {
  const cl::Pdk pdk;
  no::NoiseRunner runner(pdk, fast_config1(), fast_runner());
  const auto& in = runner.noiseless_in();
  // Falling transition: starts at vdd, ends near 0.
  EXPECT_NEAR(in.value(0), pdk.vdd, 0.03);
  EXPECT_NEAR(in.value(in.size() - 1), 0.0, 0.03);
  // Exactly one 50% crossing (no noise).
  EXPECT_EQ(in.crossings(0.5 * pdk.vdd).size(), 1u);
  // Output rises.
  const auto& out = runner.noiseless_out();
  EXPECT_NEAR(out.value(0), 0.0, 0.03);
  EXPECT_NEAR(out.value(out.size() - 1), pdk.vdd, 0.03);
}

TEST(NoiseRunner, AlignedAggressorDistortsVictim) {
  const cl::Pdk pdk;
  no::NoiseRunner runner(pdk, fast_config1(), fast_runner());
  const auto cw = runner.run_case(0.0);
  // The noisy waveform deviates substantially from the noiseless one.
  const double dev = wv::rms_difference(
      cw.noisy_in, runner.noiseless_in(), cw.noisy_in.t_begin() + 1e-9,
      cw.noisy_in.t_end());
  EXPECT_GT(dev, 0.05);
  // Opposite-direction noise slows the victim: arrival strictly later.
  const auto clean_arr = wv::arrival_50(runner.noiseless_in(),
                                        cw.in_polarity, pdk.vdd);
  const auto noisy_arr =
      wv::arrival_50(cw.noisy_in, cw.in_polarity, pdk.vdd);
  ASSERT_TRUE(clean_arr && noisy_arr);
  EXPECT_GT(*noisy_arr, *clean_arr + 10e-12);
  EXPECT_GT(cw.golden_gate_delay, 0.0);
}

TEST(NoiseRunner, FarAwayAggressorBarelyMatters) {
  const cl::Pdk pdk;
  auto spec = fast_config1();
  no::NoiseRunner runner(pdk, spec, fast_runner());
  // Aggressor switching ~1.2 ns before the victim: the glitch decays
  // before the victim transition.  A small residual shift remains
  // because the aggressor line now sits at the opposite rail (the
  // neighbour's driver state changes the effective coupling dynamics),
  // but it must be far smaller than the aligned-aggressor shift.
  const auto far = runner.run_case(-1.2e-9);
  const auto aligned = runner.run_case(0.0);
  const auto clean_arr = wv::arrival_50(runner.noiseless_in(),
                                        far.in_polarity, pdk.vdd);
  const auto far_arr = wv::arrival_50(far.noisy_in, far.in_polarity,
                                      pdk.vdd);
  const auto aligned_arr =
      wv::arrival_50(aligned.noisy_in, aligned.in_polarity, pdk.vdd);
  ASSERT_TRUE(clean_arr && far_arr && aligned_arr);
  const double far_shift = std::fabs(*far_arr - *clean_arr);
  const double aligned_shift = std::fabs(*aligned_arr - *clean_arr);
  EXPECT_LT(far_shift, 12e-12);
  EXPECT_GT(aligned_shift, 3.0 * far_shift);
}

TEST(NoiseRunner, SameDirectionAggressorSpeedsUp) {
  const cl::Pdk pdk;
  auto spec = fast_config1();
  spec.opposite_aggressor = false;
  no::NoiseRunner runner(pdk, spec, fast_runner());
  const auto cw = runner.run_case(0.0);
  const auto clean_arr = wv::arrival_50(runner.noiseless_in(),
                                        cw.in_polarity, pdk.vdd);
  const auto noisy_arr =
      wv::arrival_50(cw.noisy_in, cw.in_polarity, pdk.vdd);
  ASSERT_TRUE(clean_arr && noisy_arr);
  EXPECT_LT(*noisy_arr, *clean_arr - 5e-12);  // speed-up
}

TEST(NoiseRunner, TwoAggressorsHitHarderThanOne) {
  const cl::Pdk pdk;
  auto c1 = fast_config1();
  auto c2 = no::TestbenchSpec::config2();
  c2.victim_t50 = c1.victim_t50;
  no::NoiseRunner r1(pdk, c1, fast_runner());
  no::NoiseRunner r2(pdk, c2, fast_runner());
  const auto w1 = r1.run_case(0.0);
  const auto w2 = r2.run_case(0.0);
  const double shift1 =
      *wv::arrival_50(w1.noisy_in, w1.in_polarity, pdk.vdd) -
      *wv::arrival_50(r1.noiseless_in(), w1.in_polarity, pdk.vdd);
  const double shift2 =
      *wv::arrival_50(w2.noisy_in, w2.in_polarity, pdk.vdd) -
      *wv::arrival_50(r2.noiseless_in(), w2.in_polarity, pdk.vdd);
  EXPECT_GT(shift2, shift1);
}

TEST(ReceiverEval, ReplicaReproducesNoiselessGoldenOutput) {
  // Feeding the golden noiseless in_u waveform into the replica must
  // reproduce the golden noiseless out_u arrival: validates that the
  // replica carries the same receiver + fanout loading as Figure 1.
  const cl::Pdk pdk;
  no::NoiseRunner runner(pdk, fast_config1(), fast_runner());
  no::ReceiverEval::Options eopt;
  eopt.dt = 2e-12;
  no::ReceiverEval eval(pdk, eopt);
  const double est = eval.output_arrival(runner.noiseless_in(),
                                         runner.in_polarity());
  const auto golden = wv::arrival_50(runner.noiseless_out(),
                                     runner.out_polarity(), pdk.vdd);
  ASSERT_TRUE(golden.has_value());
  EXPECT_NEAR(est, *golden, 2.5e-12);
}

TEST(ReceiverEval, RampArrivalTracksRampTiming) {
  const cl::Pdk pdk;
  no::ReceiverEval eval(pdk);
  const auto ramp = wv::Ramp::from_arrival_slew(1e-9, 150e-12, pdk.vdd);
  const double a1 = eval.ramp_arrival(ramp, wv::Polarity::kFalling);
  const double a2 =
      eval.ramp_arrival(ramp.shifted(100e-12), wv::Polarity::kFalling);
  EXPECT_GT(a1, 1e-9);             // receiver adds positive delay
  EXPECT_NEAR(a2 - a1, 100e-12, 2e-12);  // time-invariance
}

// The nonlinear SPICE path pinned bit for bit: golden receiver-output
// arrivals of full Cfg I and Cfg II testbenches (Cfg I at 0 ps and on
// both sides of the 158–163 ps cliff, Cfg II the 29-unknown system
// whose pivot order moves during the transient) and receiver-replica
// arrivals of two fixed ramps, all at dt = 2 ps.  The values were
// generated with the dense LU factorization and solve, before the
// engine factored along an LU pattern; any change of a golden bit
// fails here.
TEST(NoiseRunner, GoldenArrivalsArePinnedBitForBit) {
  const cl::Pdk pdk;
  struct Pin {
    double offset;
    double arrival;
  };
  const Pin cfg1[] = {{0.0, 0x1.4d589d236c4a9p-29},
                      {158.3e-12, 0x1.48ce38b4c79ep-29},
                      {163e-12, 0x1.2ab0bb3161c3ep-29}};
  const Pin cfg2[] = {{-200e-12, 0x1.566661f8d1082p-29},
                      {0.0, 0x1.74ba45871ba7bp-29}};
  const std::pair<no::TestbenchSpec, std::span<const Pin>> benches[] = {
      {no::TestbenchSpec::config1(), cfg1},
      {no::TestbenchSpec::config2(), cfg2}};
  for (const auto& [spec, pins] : benches) {
    no::NoiseRunner runner(pdk, spec, fast_runner());
    for (const Pin& pin : pins) {
      const double got = runner.run_case(pin.offset).golden_output_arrival;
      EXPECT_EQ(got, pin.arrival)
          << spec.aggressors << " aggressor(s), offset " << pin.offset
          << ": " << std::hexfloat << got;
    }
  }
}

TEST(ReceiverEval, RampArrivalsArePinnedBitForBit) {
  const cl::Pdk pdk;
  no::ReceiverEval::Options eopt;
  eopt.dt = 2e-12;
  no::ReceiverEval eval(pdk, eopt);
  const double falling = eval.ramp_arrival(
      wv::Ramp::from_arrival_slew(1e-9, 150e-12, pdk.vdd),
      wv::Polarity::kFalling);
  const double rising = eval.ramp_arrival(
      wv::Ramp::from_arrival_slew(1.2e-9, 60e-12, pdk.vdd),
      wv::Polarity::kRising);
  EXPECT_EQ(falling, 0x1.17961124ec1bep-30) << std::hexfloat << falling;
  EXPECT_EQ(rising, 0x1.505034ba30edfp-30) << std::hexfloat << rising;
}

TEST(Offsets, UniformCoverage) {
  const auto offs = no::NoiseRunner::offsets(5, 1e-9);
  ASSERT_EQ(offs.size(), 5u);
  EXPECT_DOUBLE_EQ(offs.front(), -0.5e-9);
  EXPECT_DOUBLE_EQ(offs.back(), 0.5e-9);
  EXPECT_DOUBLE_EQ(offs[2], 0.0);
  EXPECT_THROW((void)no::NoiseRunner::offsets(0, 1e-9), wu::Error);
}
