#pragma once

/// \file thread_pool.hpp
/// Small fixed-size thread pool with a statically partitioned
/// parallel_for and a dynamically scheduled parallel_for_dynamic.
///
/// parallel_for is deliberately work-stealing-free: it splits [0, n)
/// into `size()` contiguous chunks, one per worker, and blocks until
/// every chunk has run.  The static partition keeps the execution
/// schedule independent of runtime timing, which is what lets the
/// levelized STA propagation produce bitwise-identical results at any
/// thread count (tasks write disjoint state; ordering within a task is
/// fixed).
///
/// parallel_for_dynamic hands indices out one at a time from a shared
/// counter, so unbalanced tasks (the per-point dirty cones of a delta
/// sweep, lane blocks of different cone sizes) keep every worker busy.
/// Which worker runs which index is timing-dependent — fine for
/// callers whose tasks write disjoint state and read only shared
/// immutable inputs: every task sees the same inputs regardless of
/// interleaving, so results stay bitwise-deterministic.
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
/// worker 0 (see the file comment for the two loop flavours).
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

  /// Runs body(i) for every i in [0, n); returns when all calls have
  /// finished.  The first exception thrown by any body is rethrown on
  /// the calling thread (remaining chunks still run to completion).
  /// Reentrant calls from inside a body are not supported.
  void parallel_for(size_t n, const std::function<void(size_t)>& body);

  /// Worker-indexed variant: body(worker, i) where `worker` identifies
  /// the chunk owner (0 ≤ worker < size(), worker 0 = calling thread).
  /// Because the partition is static, the (worker, i) pairing is a pure
  /// function of (n, size()) — callers use it to hand each worker its
  /// own scratch arena (e.g. wave::Workspace) without synchronization.
  void parallel_for(size_t n,
                    const std::function<void(size_t, size_t)>& body);

  /// Runs body(worker, i) for every i in [0, n) exactly once; returns
  /// when all calls have finished.  Workers (the caller is worker 0)
  /// claim indices one at a time from a shared counter, so unbalanced
  /// tasks keep every thread busy.  The first exception cancels the
  /// not-yet-claimed remainder (their bodies are skipped) and is
  /// rethrown on the calling thread.  Reentrant calls from inside a
  /// body are not supported.
  void parallel_for_dynamic(size_t n,
                            const std::function<void(size_t, size_t)>& body);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  [[nodiscard]] static size_t hardware_threads() noexcept;

 private:
  /// Shared state of one parallel_for_dynamic execution.
  struct DynamicRun {
    const std::function<void(size_t, size_t)>* body = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  ///< next unclaimed index
    std::atomic<bool> cancelled{false};
  };

  struct Job {
    const std::function<void(size_t)>* body = nullptr;
    const std::function<void(size_t, size_t)>* body_worker = nullptr;
    size_t n = 0;
    DynamicRun* dynamic_run = nullptr;
  };

  void worker_loop(size_t worker_index);
  void run_chunk(size_t worker_index, const Job& job) noexcept;
  void dynamic_worker(size_t worker_index, DynamicRun& run) noexcept;
  void dispatch(const Job& job);

  size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Job job_;
  uint64_t generation_ = 0;   ///< bumped per parallel_for to wake workers
  size_t pending_ = 0;        ///< chunks not yet finished
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace waveletic::util
