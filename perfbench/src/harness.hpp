#pragma once

/// \file harness.hpp
/// Shared machinery of the perfbench binary: run options, the span
/// tracer, latency samples, metric collection and host probes.
///
/// Every workload is a closed loop driven by one client on one thread:
/// the next op starts only after the previous one returned.  End-to-
/// end numbers are measured with the tracer off; a separate traced run
/// (--trace 1) records one span around each public call the benchmark
/// makes into a layer and reports the per-layer metrics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: tiny designs, one op, one set-up.
  bool tiny = false;
  /// Directory the traced run writes its trace and summary into.
  std::string out_dir = ".";
};

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder.  A span is (name, start, end, parent, op);
/// spans nest on one thread, so the parent is the innermost open span.
/// Disabled tracers record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Starts op `op` (-1 = set-up) and returns whether it is traced.  A
  /// traced run traces odd ops only; even ops run with recording paused
  /// and no layer probes, so the two halves measure tracing overhead
  /// under identical conditions.
  bool start_op(int64_t op) noexcept {
    op_ = op;
    recording_ = enabled_ && (op < 0 || op % 2 == 1);
    return recording_;
  }

  /// Opens a span; returns its index, or -1 when disabled.
  int begin(const char* name);
  /// Closes the span `begin` returned.
  void end(int index);

  /// Durations [s] of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; the op id and parent go into "args").
  void write_chrome_trace(const std::string& path) const;
  /// Total self time [s] per span name: duration minus the time its
  /// child spans cover.
  [[nodiscard]] std::map<std::string, double> self_times() const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int64_t op;
  };
  bool enabled_;
  bool recording_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
  int64_t op_ = -1;
};

/// RAII span: opens in the constructor, closes in the destructor.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Linear-interpolated quantile q in [0, 1] of `values` (NaN if empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Arithmetic mean (NaN if empty).
[[nodiscard]] double mean(const std::vector<double>& values);

/// Metrics of one run, by name, with their units.
struct Metrics {
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> values;

  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = Value{value, unit};
  }
};

/// What a workload reports: op outcomes plus metrics.  The end-to-end
/// metrics are filled on every run; the per-layer ones only on traced
/// runs.
struct RunResult {
  uint64_t attempted = 0;
  /// Ops that failed a check; a whole-run check fails every op.
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Ops with tracing on vs off, for the tracing-overhead figure.
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
  /// Human-readable notes printed before the result line.
  std::vector<std::string> notes;
};

/// Fills op_p50_ms / op_p90_ms / throughput_per_s from per-op latencies
/// [s] and work units per op.  p90 is only meaningful with >= 100 ops
/// (ten samples beyond it); the sample count goes into the notes.
void report_ops(RunResult& result, const std::vector<double>& op_seconds,
                double work_units);

/// A workload's set-ups and its closed-loop stop rule.
///
/// `setups` set-ups are timed in all and their median is setup_s.  The
/// first runs in the constructor.  A workload whose state can be rebuilt
/// between ops calls maybe_set_up() before each op: set-up k is then
/// redone, replacing the live state, once k/setups of the run's seconds
/// have been measured.  On a shared host whose speed changes in phases a
/// few seconds long, set-ups spread over the run sample those phases the
/// way the ops do, where back-to-back set-ups would all land in one.
/// Set-up time does not count as measuring time.
template <class State>
class SetupLoop {
 public:
  using Factory = std::function<std::unique_ptr<State>()>;

  SetupLoop(const RunOptions& opt, size_t setups, Tracer& tracer,
            Factory make)
      : opt_(opt), setups_(setups), tracer_(tracer), make_(std::move(make)),
        start_(Clock::now()) {
    set_up();
  }

  [[nodiscard]] State& state() { return *state_; }

  /// Times one set-up now, replacing the live state (destroyed first,
  /// outside the timed span, so peak memory holds one state).
  void set_up() {
    const auto t0 = Clock::now();
    state_.reset();
    tracer_.start_op(-1);
    const auto t1 = Clock::now();
    state_ = make_();
    setup_s_.push_back(since(t1));
    paused_ += since(t0);
  }

  /// Redoes the set-up when the next one is due; true if it did.
  bool maybe_set_up() {
    const double due = opt_.seconds * static_cast<double>(setup_s_.size()) /
                       static_cast<double>(setups_);
    if (setup_s_.size() >= setups_ || measured() < due) return false;
    set_up();
    return true;
  }

  /// Keep issuing ops until `opt.seconds` have been measured and at
  /// least 100 ops ran (1 in tiny mode), but never past 4 × seconds +
  /// 10 s of wall time, so a slow host still ends the run in time.
  [[nodiscard]] bool keep_running(size_t ops) const {
    const size_t min_ops = opt_.tiny ? 1 : 100;
    return (ops < min_ops || measured() < opt_.seconds) &&
           since(start_) < 4.0 * opt_.seconds + 10.0;
  }

  /// Writes setup_s and the set-up count.
  void report(RunResult& result) const {
    result.end_to_end.set("setup_s", quantile(setup_s_, 0.5), "s");
    result.notes.push_back("set-ups timed: " +
                           std::to_string(setup_s_.size()));
  }

 private:
  [[nodiscard]] double measured() const { return since(start_) - paused_; }

  const RunOptions& opt_;
  size_t setups_;
  Tracer& tracer_;
  Factory make_;
  Clock::time_point start_;
  double paused_ = 0.0;
  std::vector<double> setup_s_;
  std::unique_ptr<State> state_;
};

/// Peak resident set (VmHWM) of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// Effective parallelism of the host: the same fixed CPU-bound loop is
/// run on one thread, then on `threads` threads at once; the figure is
/// threads × t(1) / t(threads).  A box with contended or shared cores
/// reads well below its hardware thread count.
[[nodiscard]] double effective_parallelism(unsigned threads);

/// True when two doubles have identical bit patterns.
[[nodiscard]] bool same_bits(double a, double b) noexcept;

// Workload entry points (one translation unit each).
RunResult run_flat_signoff(const RunOptions& opt, Tracer& tracer);
RunResult run_eco_service(const RunOptions& opt, Tracer& tracer);
RunResult run_scenario_funnel(const RunOptions& opt, Tracer& tracer);
RunResult run_paper_table1(const RunOptions& opt, Tracer& tracer);

}  // namespace perfbench
