/// perfbench — runs one benchmark workload and prints one JSON
/// result line (see perfbench/README.md).
///
///   perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--tiny] [--out-dir <dir>]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Metrics;
using perfbench::RunOptions;
using perfbench::RunResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<flat_signoff|eco_service|scenario_funnel|paper_table1> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  char buf[128];
  bool first = true;
  for (const auto& [name, v] : metrics.values) {
    if (!std::isfinite(v.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", v.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  perfbench::Tracer tracer(opt.trace);
  RunResult result;
  try {
    if (opt.workload == "flat_signoff") {
      result = perfbench::run_flat_signoff(opt, tracer);
    } else if (opt.workload == "eco_service") {
      result = perfbench::run_eco_service(opt, tracer);
    } else if (opt.workload == "scenario_funnel") {
      result = perfbench::run_scenario_funnel(opt, tracer);
    } else if (opt.workload == "paper_table1") {
      result = perfbench::run_paper_table1(opt, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    result.end_to_end.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double parallelism = perfbench::effective_parallelism(hw);
    std::printf("# host: hardware_threads=%u effective_parallelism=%.2f "
                "(every workload runs on 1 thread)\n",
                hw, parallelism);
    for (const auto& note : result.notes) {
      std::printf("# %s: %s\n", opt.workload.c_str(), note.c_str());
    }

    const Metrics* out = &result.end_to_end;
    if (opt.trace) {
      // Tracing overhead: traced vs untraced halves of the same run.
      const double on = perfbench::quantile(result.traced_op_s, 0.5);
      const double off = perfbench::quantile(result.untraced_op_s, 0.5);
      if (std::isfinite(on) && std::isfinite(off) && off > 0.0) {
        result.per_layer.set("trace.overhead_pct", (on - off) / off * 100.0,
                             "%");
      }
      const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
      tracer.write_chrome_trace(stem + ".trace.json");
      std::ofstream summary(stem + ".summary.json");
      summary << "{\"workload\": \"" << opt.workload
              << "\", \"seed\": " << opt.seed
              << ", \"effective_parallelism\": " << parallelism
              << ", \"end_to_end_traced\": "
              << json_metrics(result.end_to_end)
              << ", \"per_layer\": " << json_metrics(result.per_layer)
              << ", \"self_time_ms\": {";
      bool first = true;
      for (const auto& [name, s] : tracer.self_times()) {
        summary << (first ? "\"" : ", \"") << name << "\": " << s * 1e3;
        first = false;
      }
      summary << "}}\n";
      std::printf("# trace: %s.trace.json and %s.summary.json\n",
                  stem.c_str(), stem.c_str());
      out = &result.per_layer;
    }
    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                json_metrics(*out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
