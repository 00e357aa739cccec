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

void ThreadPool::run_chunk(size_t worker_index, const Job& job) noexcept {
  if (job.dynamic_run != nullptr) {
    dynamic_worker(worker_index, *job.dynamic_run);
    return;
  }
  // Static contiguous partition of [0, n) into size_ chunks.
  const size_t per = (job.n + size_ - 1) / size_;
  const size_t begin = std::min(worker_index * per, job.n);
  const size_t end = std::min(begin + per, job.n);
  try {
    if (job.body_worker != nullptr) {
      for (size_t i = begin; i < end; ++i) {
        (*job.body_worker)(worker_index, i);
      }
    } else {
      for (size_t i = begin; i < end; ++i) (*job.body)(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(size_t worker_index) {
  uint64_t seen_generation = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    run_chunk(worker_index, job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (size_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  dispatch(Job{&body, nullptr, n});
}

void ThreadPool::parallel_for(
    size_t n, const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (size_ == 1 || n == 1) {
    // Chunk 0 always runs on the calling thread.
    for (size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  dispatch(Job{nullptr, &body, n});
}

void ThreadPool::dynamic_worker(size_t worker_index,
                                DynamicRun& run) noexcept {
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
  DynamicRun run;
  run.body = &body;
  run.n = n;
  if (size_ > 1 && n > 1) {
    dispatch(Job{nullptr, nullptr, 0, &run});
    return;
  }
  // Inline execution on the calling thread, same cancel semantics.
  dynamic_worker(0, run);
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::dispatch(const Job& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    first_error_ = nullptr;
    pending_ = size_ - 1;  // helper chunks; chunk 0 runs here
    ++generation_;
  }
  start_cv_.notify_all();
  run_chunk(0, job_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

}  // namespace waveletic::util
