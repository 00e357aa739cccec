// Batched noise-scenario sweep demo: the production-scale flow on top
// of the paper's equivalent-waveform techniques.
//
//   1. characterize the cell library,
//   2. build a multi-chain netlist and run clean STA,
//   3. build a grid of noise scenarios (aggressor alignment × strength
//      on two victim nets),
//   4. sweep all of them with StaEngine::sweep (one clean baseline,
//      one cone delta per scenario, shared Γeff memo),
//   5. print the slack surface and the Γeff cache statistics.
//
//   $ ./scenario_batch_sweep

#include <chrono>
#include <cstdio>
#include <iostream>

#include "charlib/characterize.hpp"
#include "netlist/verilog.hpp"
#include "sta/engine.hpp"
#include "sta/sweep.hpp"
#include "util/thread_pool.hpp"

namespace cl = waveletic::charlib;
namespace nl = waveletic::netlist;
namespace st = waveletic::sta;
namespace wu = waveletic::util;
namespace wv = waveletic::wave;

int main() {
  std::cout << "characterizing library...\n";
  const auto lib = cl::build_vcl013_library_fast();

  const auto netlist = nl::parse_verilog(R"(
// two victim chains re-converging on a NAND
module victims (a, b, y);
  input a, b;
  output y;
  wire na1, na2, nb1, nb2;
  INVX1 ua1 (.A(a), .Y(na1));
  INVX4 ua2 (.A(na1), .Y(na2));
  INVX1 ub1 (.A(b), .Y(nb1));
  INVX4 ub2 (.A(nb1), .Y(nb2));
  NAND2X1 uy (.A(na2), .B(nb2), .Y(y));
endmodule
)");

  st::StaEngine sta(netlist, lib);
  // Handle-based constraint API: resolve names once, then run dense.
  sta.set_input(sta.port("a"), 0.0, 120e-12);
  sta.set_input(sta.port("b"), 20e-12, 150e-12);
  sta.set_output_load(sta.port("y"), 8e-15);
  sta.set_required(sta.port("y"), 0.8e-9);
  sta.run();
  std::cout << "\n-- clean run --\n" << sta.report();

  // Victim ramps at the two noisy nets (falling transitions at the
  // receiver inputs of ua2 / ub2), read through PinId handles.
  const auto& va = sta.timing(sta.pin("ua2/A"), st::RiseFall::kFall);
  const auto& vb = sta.timing(sta.pin("ub2/A"), st::RiseFall::kFall);

  // Scenario grid: 8 alignments × 4 strengths × 2 victim nets = 64.
  st::SweepSpec spec;
  spec.threads = 0;  // hardware concurrency
  const double alignments[] = {-60e-12, -40e-12, -20e-12, 0.0,
                               20e-12,  40e-12,  60e-12,  80e-12};
  const double strengths[] = {0.15, 0.30, 0.45, 0.60};
  for (const double align : alignments) {
    for (const double strength : strengths) {
      spec.scenarios.push_back(st::make_aggressor_scenario(
          "na1", va.arrival, va.slew, lib.nom_voltage,
          wv::Polarity::kFalling, align, strength));
      spec.scenarios.push_back(st::make_aggressor_scenario(
          "nb1", vb.arrival, vb.slew, lib.nom_voltage,
          wv::Polarity::kFalling, align, strength));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = sta.sweep(spec);
  const auto t1 = std::chrono::steady_clock::now();

  std::printf("\n-- %zu-scenario sweep (%zu threads) --\n",
              result.size(), wu::ThreadPool::hardware_threads());
  std::printf("%-36s %12s\n", "scenario", "slack [ps]");
  double worst = 1e99;
  size_t worst_i = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    const double slack = result.worst_slack(i);
    if (slack < worst) {
      worst = slack;
      worst_i = i;
    }
    if (i < 6 || i + 3 >= result.size()) {  // head + tail of the table
      std::printf("%-36s %12.1f\n", result.scenario_name(i).c_str(),
                  slack * 1e12);
    } else if (i == 6) {
      std::printf("  ...\n");
    }
  }
  std::printf("worst scenario: %s (slack %.1f ps)\n",
              result.scenario_name(worst_i).c_str(), worst * 1e12);

  const auto stats = result.cache_stats();
  const double ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  std::printf("sweep wall time: %.1f ms; Γeff memo: %llu hits, %llu misses\n",
              ms, static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  return 0;
}
