#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), recording_(enabled), epoch_(Clock::now()) {}

int Tracer::begin(const char* name) {
  if (!recording_) return -1;
  spans_.push_back(Span{name, since(epoch_), -1.0, open_, op_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(int index) {
  if (index < 0) return;
  auto& s = spans_[static_cast<size_t>(index)];
  s.end = since(epoch_);
  open_ = s.parent;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.end >= 0.0 && name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                  "\"parent\":%d}}%s\n",
                  s.name, s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<long long>(s.op), s.parent,
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void report_ops(RunResult& result, const std::vector<double>& op_seconds,
                double work_units) {
  const double total = std::accumulate(op_seconds.begin(), op_seconds.end(),
                                       0.0);
  auto& m = result.end_to_end;
  m.set("throughput_per_s", work_units / total, "1/s");
  m.set("op_p50_ms", quantile(op_seconds, 0.5) * 1e3, "ms");
  m.set("op_p90_ms", quantile(op_seconds, 0.9) * 1e3, "ms");
  result.notes.push_back("ops timed: " + std::to_string(op_seconds.size()) +
                         (op_seconds.size() >= 100
                              ? ""
                              : " (fewer than 100: p90 has under ten "
                                "samples beyond it)"));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

namespace {

/// A fixed CPU-bound loop (LCG chain; the result is returned so it
/// cannot be optimized away).
uint64_t spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

}  // namespace

double effective_parallelism(unsigned threads) {
  constexpr uint64_t kIterations = 40'000'000;
  std::vector<uint64_t> sink(threads);
  auto t0 = Clock::now();
  sink[0] = spin(kIterations);
  const double serial = since(t0);
  t0 = Clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&sink, i] { sink[i] = spin(kIterations + i); });
    }
    for (auto& t : pool) t.join();
  }
  const double parallel = since(t0);
  if (std::accumulate(sink.begin(), sink.end(), uint64_t{0}) == 42) {
    std::puts("");  // keeps the loops observable
  }
  return static_cast<double>(threads) * serial / parallel;
}

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace perfbench
