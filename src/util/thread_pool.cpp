#include "util/thread_pool.hpp"

#include <algorithm>

namespace waveletic::util {

size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

ThreadPool::ThreadPool(int threads) {
  size_ = threads <= 0 ? hardware_threads()
                       : static_cast<size_t>(threads);
  size_ = std::max<size_t>(size_, 1);
  // Worker 0 is the calling thread; only size_-1 helpers are spawned.
  workers_.reserve(size_ - 1);
  for (size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(size_t worker_index) {
  uint64_t seen_generation = 0;
  for (;;) {
    Run* run = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      run = run_;
    }
    drain(worker_index, *run);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::drain(size_t worker_index, Run& run) noexcept {
  while (!run.cancelled.load()) {
    const size_t i = run.next.fetch_add(1);
    if (i >= run.n) return;
    try {
      (*run.body)(worker_index, i);
    } catch (...) {
      run.cancelled.store(true);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for_dynamic(
    size_t n, const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  Run run;
  run.body = &body;
  run.n = n;
  if (size_ > 1 && n > 1) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      run_ = &run;
      pending_ = size_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
  }
  drain(0, run);
  std::unique_lock<std::mutex> lock(mutex_);
  // `run` lives on this stack frame: wait until no helper touches it.
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace waveletic::util
