#pragma once

/// \file thread_pool.hpp
/// Small fixed-size thread pool with one dynamically scheduled loop,
/// parallel_for_dynamic.
///
/// The loop hands indices out one at a time from a shared counter, so
/// unbalanced tasks (the per-point dirty cones of a delta sweep, lane
/// blocks of different cone sizes, the chunks of a wide level, the
/// grid runs of a block-model extraction) keep every worker busy.
/// Which worker runs which index is timing-dependent — fine for
/// callers whose tasks write disjoint state and read only shared
/// immutable inputs: every task sees the same inputs regardless of
/// interleaving, so results stay bitwise-deterministic.  Each worker is
/// its own thread, so task bodies draw scratch from
/// util::thread_scratch() without sharing an arena.
///
/// A pool of size 1 runs everything inline on the calling thread and
/// spawns no workers at all.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace waveletic::util {

/// Fixed-size pool of `size()` workers, the calling thread being
/// worker 0 (see the file comment).
class ThreadPool {
 public:
  /// `threads` ≤ 0 selects hardware_threads().  Size is clamped to ≥ 1.
  explicit ThreadPool(int threads = 0);
  /// Joins every helper thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers, the calling thread included.
  [[nodiscard]] size_t size() const noexcept { return size_; }

  /// Runs body(worker, i) for every i in [0, n) exactly once; returns
  /// when all calls have finished.  Workers (the caller is worker 0,
  /// and 0 ≤ worker < size()) claim indices one at a time from a
  /// shared counter, so unbalanced tasks keep every thread busy.  The
  /// first exception cancels the not-yet-claimed remainder (their
  /// bodies are skipped) and is rethrown on the calling thread.
  /// Reentrant calls from inside a body are not supported.
  void parallel_for_dynamic(size_t n,
                            const std::function<void(size_t, size_t)>& body);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  [[nodiscard]] static size_t hardware_threads() noexcept;

 private:
  /// Shared state of one parallel_for_dynamic execution.
  struct Run {
    const std::function<void(size_t, size_t)>* body = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  ///< next unclaimed index
    std::atomic<bool> cancelled{false};
  };

  void worker_loop(size_t worker_index);
  /// Claims and runs indices of `run` until none are left.
  void drain(size_t worker_index, Run& run) noexcept;

  size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Run* run_ = nullptr;        ///< the loop helpers join, set per call
  uint64_t generation_ = 0;   ///< bumped per call to wake the helpers
  size_t pending_ = 0;        ///< helpers not yet finished with run_
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace waveletic::util
