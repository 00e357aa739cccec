#include "util/workspace.hpp"

#include <algorithm>
#include <memory>
#include <new>

namespace waveletic::util {

std::span<double> Workspace::alloc(size_t n) {
  stats_.alloc_calls += 1;
  stats_.doubles_served += n;
  if (n == 0) return {};
  // Advance through retained slabs until one fits the request.
  while (slab_ < slabs_.size() && slabs_[slab_].capacity - used_ < n) {
    ++slab_;
    used_ = 0;
  }
  if (slab_ == slabs_.size()) {
    const size_t prev = slabs_.empty() ? 0 : slabs_.back().capacity;
    const size_t cap = std::max({n, kMinSlabDoubles, prev * 2});
    // for_overwrite: scratch is documented uninitialized — a
    // value-initializing new[] would memset every slab.
    slabs_.push_back({std::make_unique_for_overwrite<double[]>(cap), cap});
    stats_.slab_allocations += 1;
    stats_.slab_doubles += cap;
    used_ = 0;
  }
  double* base = slabs_[slab_].data.get() + used_;
  used_ += n;
  return {base, n};
}

std::span<size_t> Workspace::alloc_indices(size_t n) {
  static_assert(sizeof(size_t) == sizeof(double) &&
                alignof(size_t) <= alignof(double));
  auto* first = reinterpret_cast<size_t*>(alloc(n).data());
  std::uninitialized_default_construct_n(first, n);  // starts their lifetime
  return {std::launder(first), n};
}

Workspace& thread_scratch() noexcept {
  thread_local Workspace ws;
  return ws;
}

}  // namespace waveletic::util
