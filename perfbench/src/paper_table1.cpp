/// paper_table1 — the run_accuracy per-case loop of the paper's Table 1
/// over a Cfg I + Cfg II case set.  Each op is one noise case: a golden
/// coupled-line transient (NoiseRunner::run_case), then for each of the
/// six techniques one Γeff fit and one receiver-replica transient
/// driven by the fitted ramp.
///
/// The case set is fixed, as in run_accuracy: the Cfg I cliff at
/// 158–163 ps plus an even offset grid over the paper's 1 ns window for
/// each configuration.  The seed jitters every offset by at most
/// ±0.25 ps and shuffles the case order.  A golden transient's cost
/// depends on where the bump lands (40–90 ms), so offsets drawn freely
/// from the seed would move the op-latency median with the seed; small
/// jitter keeps the work fixed while every waveform and error changes.
/// Ops run whole passes over the case set, so every case runs equally
/// often and its errors must repeat bit for bit on each pass.

#include <cmath>
#include <memory>
#include <vector>

#include "charlib/vcl013.hpp"
#include "core/method.hpp"
#include "harness.hpp"
#include "noise/receiver_eval.hpp"
#include "noise/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace core = waveletic::core;
namespace noise = waveletic::noise;

struct Sizes {
  int cfg1, cfg2;  ///< offset-grid cases per configuration
  size_t setups;
};

// 5 + 13 + 17 = 35 cases.  An odd count makes a traced run, which traces
// odd ops only, trace every case on alternate passes.
constexpr Sizes kFull{13, 17, 9};
constexpr Sizes kTiny{0, 1, 1};
/// Cfg I offsets across the cliff where the golden delay jumps.
constexpr double kCliff[] = {158e-12, 160.5e-12, 163e-12, 172e-12, 184e-12};
constexpr double kWindow = 1e-9;     // the paper's offset window
constexpr double kJitter = 0.25e-12;
constexpr int kSamples = 35;  // P, as in the paper's run-time section

struct Case {
  int config;  ///< 0 = Cfg I, 1 = Cfg II
  std::vector<double> offsets;
};

struct Setup {
  waveletic::charlib::Pdk pdk;
  std::unique_ptr<noise::NoiseRunner> runners[2];
  std::unique_ptr<noise::ReceiverEval> receiver;
  std::vector<std::unique_ptr<core::EquivalentWaveformMethod>> methods;
};

std::unique_ptr<Setup> set_up(Tracer& tr) {
  auto d = std::make_unique<Setup>();
  const noise::RunnerOptions runner_opt;
  {
    Scope s(tr, "noise.setup");
    d->runners[0] = std::make_unique<noise::NoiseRunner>(
        d->pdk, noise::TestbenchSpec::config1(), runner_opt);
  }
  {
    Scope s(tr, "noise.setup");
    d->runners[1] = std::make_unique<noise::NoiseRunner>(
        d->pdk, noise::TestbenchSpec::config2(), runner_opt);
  }
  noise::ReceiverEval::Options eval_opt;
  eval_opt.dt = runner_opt.dt;
  d->receiver = std::make_unique<noise::ReceiverEval>(d->pdk, eval_opt);
  d->methods = core::all_methods();
  return d;
}

std::vector<Case> make_cases(uint64_t seed, const Sizes& sz, bool tiny) {
  waveletic::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 97);
  std::vector<Case> cases;
  for (const double o : kCliff) {
    cases.push_back({0, {o}});
    if (tiny) break;
  }
  const noise::TestbenchSpec benches[2] = {noise::TestbenchSpec::config1(),
                                           noise::TestbenchSpec::config2()};
  for (int config = 0; config < 2; ++config) {
    const int n = config == 0 ? sz.cfg1 : sz.cfg2;
    if (n == 0) continue;
    for (auto& t : noise::NoiseRunner::offset_tuples(
             n, kWindow, benches[config].aggressors)) {
      cases.push_back({config, std::move(t)});
    }
  }
  for (auto& c : cases) {
    for (double& o : c.offsets) o += rng.uniform(-kJitter, kJitter);
  }
  for (size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.below(i)]);
  }
  return cases;
}

}  // namespace

RunResult run_paper_table1(const RunOptions& opt, Tracer& tr) {
  const Sizes& sz = opt.tiny ? kTiny : kFull;
  RunResult result;

  SetupLoop<Setup> loop(opt, sz.setups, tr, [&] { return set_up(tr); });
  const auto cases = make_cases(opt.seed, sz, opt.tiny);
  const size_t n_methods = loop.state().methods.size();
  // Signed arrival error per (case, method) from the case's first op.
  std::vector<std::vector<double>> errors(cases.size());
  std::vector<std::vector<bool>> fallbacks(cases.size());
  std::vector<std::vector<double>> fit_s(n_methods);
  std::vector<double> op_s, golden_s, receiver_s;
  const auto n_cases = static_cast<int64_t>(cases.size());
  for (int64_t op = 0;
       loop.keep_running(op_s.size()) || op % n_cases != 0; ++op) {
    loop.maybe_set_up();
    const Setup& d = loop.state();
    const bool traced = tr.start_op(op);
    const auto c = static_cast<size_t>(op % n_cases);
    auto& runner = *d.runners[cases[c].config];
    std::vector<double> err(n_methods);
    std::vector<bool> fell(n_methods);
    const int span = tr.begin("experiments.case");
    const auto t0 = Clock::now();
    noise::CaseWaveforms cw;
    {
      Scope s(tr, "spice.golden");
      const auto g0 = Clock::now();
      cw = runner.run_case(cases[c].offsets);
      golden_s.push_back(since(g0));
    }
    core::MethodInput mi;
    mi.noisy_in = &cw.noisy_in;
    mi.noiseless_in = &runner.noiseless_in();
    mi.noiseless_out = &runner.noiseless_out();
    mi.in_polarity = cw.in_polarity;
    mi.out_polarity = cw.out_polarity;
    mi.vdd = d.pdk.vdd;
    mi.samples = kSamples;
    for (size_t m = 0; m < n_methods; ++m) {
      core::Fit fit;
      {
        Scope s(tr, "core.fit");
        const auto f0 = Clock::now();
        fit = d.methods[m]->fit(mi);
        fit_s[m].push_back(since(f0));
      }
      Scope s(tr, "noise.receiver");
      const auto r0 = Clock::now();
      const double arrival = d.receiver->ramp_arrival(fit.ramp, cw.in_polarity);
      receiver_s.push_back(since(r0));
      err[m] = arrival - cw.golden_output_arrival;
      fell[m] = fit.degenerate_fallback;
    }
    const double dt = since(t0);
    tr.end(span);
    op_s.push_back(dt);
    (traced ? result.traced_op_s : result.untraced_op_s).push_back(dt);

    ++result.attempted;
    bool ok = true;
    for (const double e : err) ok = ok && std::isfinite(e);
    if (errors[c].empty()) {
      errors[c] = err;
      fallbacks[c] = fell;
    } else {
      for (size_t m = 0; m < n_methods; ++m) {
        ok = ok && same_bits(err[m], errors[c][m]) && fell[m] == fallbacks[c][m];
      }
    }
    if (!ok) ++result.failed;
  }
  loop.report(result);
  report_ops(result, op_s, static_cast<double>(op_s.size()));

  if (tr.enabled()) {
    auto& m = result.per_layer;
    m.set("noise.setup_ms", quantile(tr.durations("noise.setup"), 0.5) * 1e3,
          "ms");
    m.set("spice.golden_ms_p50", quantile(golden_s, 0.5) * 1e3, "ms");
    m.set("noise.receiver_ms_p50", quantile(receiver_s, 0.5) * 1e3, "ms");
    for (size_t k = 0; k < n_methods; ++k) {
      const std::string name(loop.state().methods[k]->name());
      double max_err = 0.0;
      double sum_err = 0.0;
      double falls = 0.0;
      size_t seen = 0;
      for (size_t c = 0; c < cases.size(); ++c) {
        if (errors[c].empty()) continue;
        max_err = std::max(max_err, std::fabs(errors[c][k]));
        sum_err += std::fabs(errors[c][k]);
        falls += fallbacks[c][k] ? 1.0 : 0.0;
        ++seen;
      }
      m.set("core.fit_us_p50." + name, quantile(fit_s[k], 0.5) * 1e6, "us");
      m.set("core.max_err_ps." + name, max_err * 1e12, "ps");
      m.set("core.avg_err_ps." + name,
            sum_err * 1e12 / static_cast<double>(seen), "ps");
      m.set("core.fallbacks." + name, falls, "count");
    }
  }
  return result;
}

}  // namespace perfbench
