// Size-classed allocator for boxed spawn closures.
//
// A spawn builds its task record in the child's frame slot and allocates
// nothing (scheduler.hpp, DESIGN.md §4.7); only a closure too large or too
// aligned for the slot — nqueens, matmul, user code — is boxed in one block
// from this pool, which the child frees before it signals its join. The
// blocks come from the slab magazines of src/alloc (thread-local, no lock
// or CAS on the fast path); a block may be freed on a different worker than
// the one that allocated it, and simply migrates to the freeing worker's
// magazine. This layer adds four task size classes and their counters.
//
// Four size classes cover boxed closures up to 512 bytes; larger requests
// are still slab-served (the slab's classes reach 4 KiB, then a counted
// heap passthrough) but counted in an oversize row. size_class is
// branch-free (a bit_width on the rounded size), so the common path has no
// data-dependent branches before the slab pop.
//
// The pool keeps per-class alloc/free/reuse counters (relaxed atomics: each
// thread writes only its own counters; task_pool_totals() aggregates across
// threads, including threads that have already exited). "Reused" counts
// allocations the slab served from a recycled block. The global balance —
// allocs == frees the moment run() returns — is the leak oracle used by
// tests/task_pool_test.cpp and the stress harness: every boxing spawn
// allocates exactly one block and its child frees it before joining, so an
// imbalance means a leaked or double-freed closure.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <vector>

#include "alloc/slab.hpp"

namespace cilkpp::rt {

namespace pool_detail {

inline constexpr std::size_t class_sizes[] = {64, 128, 256, 512};
inline constexpr std::size_t num_classes = 4;
/// Counter row for requests above the largest class.
inline constexpr std::size_t oversize_row = num_classes;

/// Branch-free size→class map: 0..64 → 0, 65..128 → 1, 129..256 → 2,
/// 257..512 → 3, larger → ≥ num_classes (callers count any class out of
/// range in the oversize row). `| (size == 0)` keeps size 0 in class 0
/// without a wraparound; `| 63` floors the rounding at the smallest class.
inline std::size_t size_class(std::size_t size) {
  const std::size_t sz = size | static_cast<std::size_t>(size == 0);
  return static_cast<std::size_t>(std::bit_width((sz - 1) | 63)) - 6;
}

struct thread_counters;

/// Registry of every thread's counters, so totals can be aggregated
/// process-wide. A thread registers on first pool use and folds its
/// counters into `retired` when it exits.
struct pool_registry {
  std::mutex mu;
  std::vector<thread_counters*> threads;
  std::uint64_t retired_allocs[num_classes + 1] = {};
  std::uint64_t retired_frees[num_classes + 1] = {};
  std::uint64_t retired_reused[num_classes + 1] = {};
};

inline pool_registry& registry() {
  static pool_registry r;
  return r;
}

struct thread_counters {
  // Written only by the owning thread, read by task_pool_totals(); the
  // +1 row counts the oversized path.
  std::atomic<std::uint64_t> allocs[num_classes + 1] = {};
  std::atomic<std::uint64_t> frees[num_classes + 1] = {};
  std::atomic<std::uint64_t> reused[num_classes + 1] = {};

  thread_counters() {
    pool_registry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.threads.push_back(this);
  }

  ~thread_counters() {
    pool_registry& reg = registry();
    std::lock_guard lock(reg.mu);
    for (std::size_t c = 0; c <= num_classes; ++c) {
      reg.retired_allocs[c] += allocs[c].load(std::memory_order_relaxed);
      reg.retired_frees[c] += frees[c].load(std::memory_order_relaxed);
      reg.retired_reused[c] += reused[c].load(std::memory_order_relaxed);
    }
    std::erase(reg.threads, this);
  }
};

inline thread_counters& local_counters() {
  thread_local thread_counters counters;
  return counters;
}

inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace pool_detail

/// Allocates a task block of at least `size` bytes.
inline void* task_allocate(std::size_t size) {
  const std::size_t c = pool_detail::size_class(size);
  auto& counters = pool_detail::local_counters();
  if (c >= pool_detail::num_classes) {
    // Past the largest task class: still slab-served, but recorded here
    // too so task_pool_totals() shows what escaped the pool.
    pool_detail::bump(counters.allocs[pool_detail::oversize_row]);
    return alloc::slab_allocate(size);
  }
  pool_detail::bump(counters.allocs[c]);
  const alloc::slab_alloc_result r =
      alloc::slab_allocate_ex(pool_detail::class_sizes[c]);
  if (r.recycled) pool_detail::bump(counters.reused[c]);
  return r.p;
}

/// Returns a block obtained from task_allocate with the same `size`.
inline void task_deallocate(void* p, std::size_t size) noexcept {
  const std::size_t c = pool_detail::size_class(size);
  auto& counters = pool_detail::local_counters();
  if (c >= pool_detail::num_classes) {
    pool_detail::bump(counters.frees[pool_detail::oversize_row]);
    alloc::slab_deallocate(p, size);
    return;
  }
  pool_detail::bump(counters.frees[c]);
  alloc::slab_deallocate(p, pool_detail::class_sizes[c]);
}

/// Aggregated counters for one size class (or the oversize fallback).
struct task_pool_class_stats {
  std::size_t block_size = 0;  ///< 0 for the oversize row
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t reused = 0;  ///< allocations served from a recycled block
  /// Blocks allocated but not yet freed. Meaningful only process-wide:
  /// blocks migrate between threads, so a single thread's figure may be
  /// negative.
  std::int64_t live() const {
    return static_cast<std::int64_t>(allocs) - static_cast<std::int64_t>(frees);
  }
};

/// Process-wide task-pool statistics: live threads plus exited ones.
struct task_pool_stats {
  task_pool_class_stats classes[pool_detail::num_classes + 1];

  std::uint64_t total_allocs() const {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.allocs;
    return n;
  }
  std::uint64_t total_frees() const {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.frees;
    return n;
  }
  std::int64_t live() const {
    return static_cast<std::int64_t>(total_allocs()) -
           static_cast<std::int64_t>(total_frees());
  }
  /// Leak-balance oracle: true iff every allocated block has been freed.
  /// Holds whenever no computation is in flight: a child frees its boxed
  /// closure before it signals its join, so no block outlives run().
  bool balanced() const { return live() == 0; }
  /// Requests above the largest size class. Non-zero means some boxed
  /// closure outgrew the pool — it was still served (slab class or heap)
  /// and still counted, but the bench JSON flags it so a silently fat
  /// closure can't hide behind the pooled classes.
  std::uint64_t oversize_allocs() const {
    return classes[pool_detail::oversize_row].allocs;
  }
  std::uint64_t oversize_frees() const {
    return classes[pool_detail::oversize_row].frees;
  }
};

/// Snapshot of the pool counters across all threads that ever used the
/// pool. Counters are monotone, so concurrent use skews a snapshot but
/// never corrupts it; for the balance oracle, take it while quiescent.
inline task_pool_stats task_pool_totals() {
  using namespace pool_detail;
  task_pool_stats out;
  for (std::size_t c = 0; c < num_classes; ++c) {
    out.classes[c].block_size = class_sizes[c];
  }
  pool_registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (std::size_t c = 0; c <= num_classes; ++c) {
    out.classes[c].allocs = reg.retired_allocs[c];
    out.classes[c].frees = reg.retired_frees[c];
    out.classes[c].reused = reg.retired_reused[c];
    for (const thread_counters* t : reg.threads) {
      out.classes[c].allocs += t->allocs[c].load(std::memory_order_relaxed);
      out.classes[c].frees += t->frees[c].load(std::memory_order_relaxed);
      out.classes[c].reused += t->reused[c].load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace cilkpp::rt
