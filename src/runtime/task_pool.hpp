// Size-classed, thread-local allocator for boxed spawn closures.
//
// A spawn builds its task record in the child's frame slot and allocates
// nothing (scheduler.hpp, DESIGN.md §4.7); only a closure too large or too
// aligned for the slot — nqueens, matmul, user code — is boxed in one block
// from this pool, which the child frees before it signals its join. A
// global operator new costs a lock or a CAS in most allocators; this pool
// recycles blocks through thread-local free lists (a block may be freed on
// a different worker than the one that allocated it — blocks simply migrate
// to the freeing worker's list, which is fine because all blocks of a class
// are interchangeable).
//
// The free lists are intrusive: a freed block stores the next pointer in
// its own first word (every class size is ≥ 64 bytes, and the block's
// contents are dead after the task's destructor ran). Compared to the old
// std::vector<void*> buckets this removes the side array — and its growth
// reallocations — from the spawn path entirely: alloc is pop-head, free is
// push-head, both a couple of instructions on thread-local state.
//
// Four size classes cover boxed closures up to 512 bytes; larger requests
// fall back to operator new. size_class is
// branch-free (a bit_width on the rounded size), so the common path has no
// data-dependent branches before the freelist pop.
//
// The pool keeps per-class alloc/free/reuse counters (relaxed atomics: each
// thread writes only its own lists' counters; task_pool_totals() aggregates
// across threads, including threads that have already exited). The global
// balance — allocs == frees the moment run() returns — is the leak oracle
// used by tests/task_pool_test.cpp and the stress harness: every boxing
// spawn allocates exactly one block and its child frees it before joining,
// so an imbalance means a leaked or double-freed closure.
//
// With CILKPP_SLAB (the default) the block storage behind this interface is
// the slab magazines of src/alloc: the pool keeps its counter taxonomy and
// leak oracle (a slab block handed out for a closure still counts as one
// live block), but pop/push go through alloc::slab_allocate_ex, whose
// `recycled` bit feeds the same "reused" statistic the freelists tracked.
// -DCILKPP_SLAB=OFF compiles the original freelist bodies back in.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <new>
#include <vector>

#include "alloc/slab.hpp"

namespace cilkpp::rt {

namespace pool_detail {

inline constexpr std::size_t class_sizes[] = {64, 128, 256, 512};
inline constexpr std::size_t num_classes = 4;
/// Cap per class per thread: bounds pool memory at ~120 KiB per worker.
inline constexpr std::size_t max_cached = 128;
/// Counter row for the heap-fallback (oversized) path.
inline constexpr std::size_t oversize_row = num_classes;

/// Branch-free size→class map: 0..64 → 0, 65..128 → 1, 129..256 → 2,
/// 257..512 → 3, larger → ≥ num_classes (callers treat any class out of
/// range as the heap fallback). `| (size == 0)` keeps size 0 in class 0
/// without a wraparound; `| 63` floors the rounding at the smallest class.
inline std::size_t size_class(std::size_t size) {
  const std::size_t sz = size | static_cast<std::size_t>(size == 0);
  return static_cast<std::size_t>(std::bit_width((sz - 1) | 63)) - 6;
}

struct free_lists;

/// Registry of every thread's free lists, so totals can be aggregated
/// process-wide. A thread registers on first pool use and folds its
/// counters into `retired` when it exits.
struct pool_registry {
  std::mutex mu;
  std::vector<free_lists*> threads;
  std::uint64_t retired_allocs[num_classes + 1] = {};
  std::uint64_t retired_frees[num_classes + 1] = {};
  std::uint64_t retired_reused[num_classes + 1] = {};
};

inline pool_registry& registry() {
  static pool_registry r;
  return r;
}

/// A dead task block on a free list; the link lives in the block itself.
struct free_block {
  free_block* next;
};

struct free_lists {
  free_block* heads[num_classes] = {};
  std::size_t cached[num_classes] = {};  ///< list lengths, enforce max_cached
  // Written only by the owning thread, read by task_pool_totals(); the
  // +1 row counts the oversized heap-fallback path.
  std::atomic<std::uint64_t> allocs[num_classes + 1] = {};
  std::atomic<std::uint64_t> frees[num_classes + 1] = {};
  std::atomic<std::uint64_t> reused[num_classes + 1] = {};

  free_lists() {
    pool_registry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.threads.push_back(this);
  }

  ~free_lists() {
    for (free_block* head : heads) {
      while (head != nullptr) {
        free_block* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
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

inline free_lists& local_lists() {
  thread_local free_lists lists;
  return lists;
}

inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace pool_detail

/// Allocates a task block of at least `size` bytes.
inline void* task_allocate(std::size_t size) {
  const std::size_t c = pool_detail::size_class(size);
  auto& lists = pool_detail::local_lists();
  if (c >= pool_detail::num_classes) {
    // Past the largest task class: still slab-served (the slab's classes
    // reach 4 KiB, then a counted heap passthrough), but recorded here too
    // so task_pool_totals() shows what escaped the pool.
    pool_detail::bump(lists.allocs[pool_detail::oversize_row]);
#if CILKPP_SLAB_ENABLED
    return alloc::slab_allocate(size);
#else
    return ::operator new(size);
#endif
  }
  pool_detail::bump(lists.allocs[c]);
#if CILKPP_SLAB_ENABLED
  const alloc::slab_alloc_result r =
      alloc::slab_allocate_ex(pool_detail::class_sizes[c]);
  if (r.recycled) pool_detail::bump(lists.reused[c]);
  return r.p;
#else
  if (pool_detail::free_block* head = lists.heads[c]) {
    pool_detail::bump(lists.reused[c]);
    lists.heads[c] = head->next;
    --lists.cached[c];
    return head;
  }
  return ::operator new(pool_detail::class_sizes[c]);
#endif
}

/// Returns a block obtained from task_allocate with the same `size`.
inline void task_deallocate(void* p, std::size_t size) noexcept {
  const std::size_t c = pool_detail::size_class(size);
  auto& lists = pool_detail::local_lists();
  if (c >= pool_detail::num_classes) {
    pool_detail::bump(lists.frees[pool_detail::oversize_row]);
#if CILKPP_SLAB_ENABLED
    alloc::slab_deallocate(p, size);
#else
    ::operator delete(p);
#endif
    return;
  }
  pool_detail::bump(lists.frees[c]);
#if CILKPP_SLAB_ENABLED
  alloc::slab_deallocate(p, pool_detail::class_sizes[c]);
#else
  if (lists.cached[c] >= pool_detail::max_cached) {
    ::operator delete(p);
    return;
  }
  auto* block = static_cast<pool_detail::free_block*>(p);
  block->next = lists.heads[c];
  lists.heads[c] = block;
  ++lists.cached[c];
#endif
}

/// Aggregated counters for one size class (or the oversize fallback).
struct task_pool_class_stats {
  std::size_t block_size = 0;  ///< 0 for the oversize heap-fallback row
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t reused = 0;  ///< allocations served from a free list
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
    for (const free_lists* t : reg.threads) {
      out.classes[c].allocs += t->allocs[c].load(std::memory_order_relaxed);
      out.classes[c].frees += t->frees[c].load(std::memory_order_relaxed);
      out.classes[c].reused += t->reused[c].load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace cilkpp::rt
