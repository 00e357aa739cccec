#pragma once

/// \file workspace.hpp
/// Bump arena of doubles for numeric scratch buffers — the backing
/// store of the allocation-free propagation hot path.
///
/// Ownership model: one Workspace per thread, reached through
/// thread_scratch().  Every fit draws its scratch from the arena of the
/// thread it runs on, so no caller threads an arena through an API.
/// `alloc()` bumps a cursor; `scope()` returns an RAII mark that
/// rewinds the cursor on destruction, so nested fits reuse the same
/// slabs.  Slabs are never freed before the Workspace dies and their
/// addresses are stable under moves, which lets views outlive
/// intermediate scopes within a fit — and a caller's live allocation
/// survive any fit it calls, since that fit rewinds only to its own
/// mark.
///
/// Not thread-safe: a Workspace belongs to exactly one thread.
///
/// The waveform layer re-exports this as wave::Workspace (kernels.hpp);
/// the la fitting layer draws its Gauss–Newton scratch from it too.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace waveletic::util {

class Workspace {
 public:
  struct Stats {
    uint64_t slab_allocations = 0;  ///< heap allocations performed
    uint64_t slab_doubles = 0;      ///< total doubles owned by slabs
    uint64_t alloc_calls = 0;       ///< alloc() invocations served
    uint64_t doubles_served = 0;    ///< total doubles handed out
  };

  Workspace() = default;
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Uninitialized scratch span of `n` doubles, valid until the
  /// enclosing Scope is destroyed (or forever when no scope is open).
  [[nodiscard]] std::span<double> alloc(size_t n);

  /// Uninitialized span of `n` indices (e.g. an LU permutation), carved
  /// from the same slabs as alloc() and reclaimed by the same scopes.
  [[nodiscard]] std::span<size_t> alloc_indices(size_t n);

  /// RAII cursor mark: destruction rewinds the arena to the state at
  /// construction, reclaiming (but not freeing) everything allocated
  /// inside.  Scopes must nest like stack frames.
  class Scope {
   public:
    explicit Scope(Workspace& ws) noexcept
        : ws_(&ws), slab_(ws.slab_), used_(ws.used_) {}
    ~Scope() {
      if (ws_ != nullptr) {
        ws_->slab_ = slab_;
        ws_->used_ = used_;
      }
    }
    Scope(Scope&& o) noexcept : ws_(o.ws_), slab_(o.slab_), used_(o.used_) {
      o.ws_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Workspace* ws_;
    size_t slab_;
    size_t used_;
  };
  [[nodiscard]] Scope scope() noexcept { return Scope(*this); }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Heap allocations performed so far — the number a warmed arena
  /// must stop increasing (asserted by bench_runtime and tests).
  [[nodiscard]] uint64_t heap_allocations() const noexcept {
    return stats_.slab_allocations;
  }

 private:
  struct Slab {
    std::unique_ptr<double[]> data;
    size_t capacity = 0;
  };

  static constexpr size_t kMinSlabDoubles = 8192;  // 64 KiB

  std::vector<Slab> slabs_;
  size_t slab_ = 0;  ///< index of the slab the cursor sits in
  size_t used_ = 0;  ///< doubles consumed in that slab
  Stats stats_;
};

/// The calling thread's scratch arena (thread_local, created empty on
/// first use and freed when the thread exits).  Open a scope before
/// allocating from it; results never depend on what the arena held.
[[nodiscard]] Workspace& thread_scratch() noexcept;

}  // namespace waveletic::util
