// cilkpp_slab — the runtime's two-level internal allocator (cheetah's
// internal-malloc generalized; Bonwick's magazine design).
//
// Motivation (paper Sec. 3, the work-first principle): a spawn with a large
// closure boxes it in a slab block, every reducer touch may allocate a view,
// deep spines grow slot-arena chunks, and the spawn path must stay within
// the <2% serial-overhead budget. A system malloc costs a lock or CAS in the
// common case. The slab allocator removes the system allocator from the
// steady state entirely:
//
//   Level 1 — per-thread MAGAZINES. Each thread keeps, per size class, a
//   `loaded` and a `backup` magazine: fixed arrays of block pointers popped
//   and pushed LIFO with no synchronization at all (the thread owns them).
//   A free block's memory holds nothing — pointers live in the magazine, so
//   freed blocks are never written (helpful to ASan/valgrind and to
//   cache-residency of dead frames).
//
//   Level 2 — the global DEPOT. When both magazines run dry (or both fill
//   up), the thread exchanges a *whole magazine* with the depot under a
//   per-class mutex: one lock acquisition amortized over magazine_capacity
//   block operations. The depot refills empty magazines by carving blocks
//   out of 64 KiB slabs; slabs are retained until process teardown, so a
//   block's address is stable for the process lifetime and cross-thread
//   frees (a task stolen by worker B, freed by B, allocated by A) simply
//   migrate blocks between magazines.
//
// Layout discipline (certified by tests/alloc_test.cpp with cilk::memlens):
// slab payloads start at a 64-byte boundary and every class size is a
// multiple of 64, so distinct blocks NEVER share a cache line — two workers'
// task frames cannot false-share by construction. The slab header occupies
// the first line alone.
//
// Consumers: boxed spawn closures, slot_arena chunks, reducer views, trace
// rings and stress pools all allocate here.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#include "support/assert.hpp"

namespace cilkpp::alloc {

/// Block size classes. Multiples of 64 so block boundaries are cache-line
/// boundaries; geometric so any request wastes < 2x. Covers every runtime
/// object: boxed spawn closures (64–512), slot_arena chunks (~1–2 KiB),
/// reducer views (usually 64), stress pool rows (64 each).
inline constexpr std::size_t class_sizes[] = {64,  128,  256, 512,
                                              1024, 2048, 4096};
inline constexpr std::size_t num_classes = 7;
/// Counter row for requests above the largest class (heap passthrough).
inline constexpr std::size_t oversize_row = num_classes;
/// Blocks exchanged with the depot per lock acquisition.
inline constexpr std::size_t magazine_capacity = 32;
/// One carve unit. 64 KiB = 1023 blocks of 64B after the header line.
inline constexpr std::size_t slab_bytes = 64 * 1024;
/// Payload alignment: every block starts on a cache line.
inline constexpr std::size_t block_align = 64;

/// Branch-free size→class map: 0..64 → 0, 65..128 → 1, …, 2049..4096 → 6,
/// larger → ≥ num_classes. `| (size == 0)` keeps size 0 in class 0 without a
/// wraparound; `| 63` floors the rounding at the smallest class.
inline std::size_t size_class(std::size_t size) {
  const std::size_t sz = size | static_cast<std::size_t>(size == 0);
  return static_cast<std::size_t>(std::bit_width((sz - 1) | 63)) - 6;
}

/// A magazine: a bounded LIFO of free blocks of one class. Owned by exactly
/// one thread while loaded/backup; handed over whole at the depot (the next
/// pointer links depot stacks). `fresh` tracks how many blocks at the
/// BOTTOM of the stack were carved from a slab and never yet handed out —
/// pops above that watermark are recycled blocks (the "recycled" statistic
/// the benches and tests track).
struct magazine {
  magazine* next = nullptr;
  std::uint32_t count = 0;
  std::uint32_t fresh = 0;  ///< blocks[0..fresh) never left the allocator
  void* blocks[magazine_capacity];
};

/// Per-thread allocator counters. Heap-allocated on a thread's first slab
/// use and registered for the process lifetime (never freed), so totals and
/// per-worker stats snapshots can read them after the thread exited without
/// use-after-free; all rows are monotone relaxed atomics written only by
/// the owning thread.
struct slab_thread_counters {
  std::atomic<std::uint64_t> allocs[num_classes + 1] = {};
  std::atomic<std::uint64_t> frees[num_classes + 1] = {};
  /// Allocations served with a recycled (previously freed) block.
  std::atomic<std::uint64_t> recycled[num_classes + 1] = {};
  /// Full magazines grabbed from the depot (cold misses, amortized).
  std::atomic<std::uint64_t> magazine_refills{0};
  /// Full magazines handed back to the depot (cap overflow, thread exit).
  std::atomic<std::uint64_t> magazine_returns{0};
  /// Slabs the depot carved to serve this thread's refills. Slabs are
  /// never returned before teardown, so the process-wide sum is also the
  /// live-slab gauge.
  std::atomic<std::uint64_t> slabs_created{0};
  /// The next-older block in the thread registry (slab.cpp); set once,
  /// under the registry lock, before the block is published.
  slab_thread_counters* next = nullptr;
};

namespace detail {

struct thread_cache;

/// Registers `tc` as the calling thread's cache and returns its (immortal)
/// counters block; flushes magazines back to the depot on thread exit.
slab_thread_counters* register_thread(thread_cache* tc);
void unregister_thread(thread_cache* tc) noexcept;

/// Depot exchange (per-class mutex; one call per magazine_capacity block
/// ops). refill returns a magazine with count > 0, carving a new slab if
/// the full-stack is empty; both consume/produce whole magazines.
magazine* depot_refill(std::size_t cls, magazine* empty,
                       slab_thread_counters* counters);
magazine* depot_return(std::size_t cls, magazine* full,
                       slab_thread_counters* counters);

void* oversize_allocate(std::size_t size, std::size_t align);
void oversize_deallocate(void* p, std::size_t size, std::size_t align) noexcept;

/// One thread's magazines, one pair per class. All fast-path state — no
/// atomics, no sharing; the depot is touched only through the two exchange
/// calls above.
struct thread_cache {
  magazine* loaded[num_classes] = {};
  magazine* backup[num_classes] = {};
  slab_thread_counters* counters = nullptr;

  thread_cache() { counters = register_thread(this); }
  ~thread_cache() { unregister_thread(this); }

  thread_cache(const thread_cache&) = delete;
  thread_cache& operator=(const thread_cache&) = delete;

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  /// Pops a block of class `cls`; sets `recycled` iff the block had been
  /// freed before (vs carved fresh from a slab).
  void* pop(std::size_t cls, bool& recycled) {
    magazine* m = loaded[cls];
    if (m == nullptr || m->count == 0) {
      magazine* b = backup[cls];
      if (b != nullptr && b->count != 0) {
        backup[cls] = m;  // rotate: the backup still holds blocks
        loaded[cls] = m = b;
      } else {
        // Both dry: trade the SPARE magazine for a full one and demote the
        // empty loaded to backup — the cache must end the exchange holding
        // two magazines, or alternating alloc/free runs that straddle a
        // magazine boundary would cross the depot on every run (Bonwick's
        // loaded/previous invariant). One lock, magazine_capacity blocks.
        bump(counters->magazine_refills);
        magazine* full = depot_refill(cls, b, counters);
        backup[cls] = m;
        loaded[cls] = m = full;
      }
    }
    const std::uint32_t idx = --m->count;
    if (idx < m->fresh) {
      m->fresh = idx;
      recycled = false;
    } else {
      recycled = true;
    }
    return m->blocks[idx];
  }

  /// Pushes a freed block of class `cls`.
  void push(std::size_t cls, void* p) {
    magazine* m = loaded[cls];
    if (m == nullptr || m->count == magazine_capacity) {
      magazine* b = backup[cls];
      if (b != nullptr && b->count < magazine_capacity) {
        backup[cls] = m;  // rotate: the backup still has room
        loaded[cls] = m = b;
      } else if (m != nullptr && b != nullptr) {
        // Both full: the older (backup) magazine goes to the depot, the
        // just-filled loaded rotates into its place, and the returned empty
        // shell takes the pushes — keeping the two hottest magazines local
        // (same invariant as pop's exchange). One lock per capacity blocks.
        bump(counters->magazine_returns);
        magazine* shell = depot_return(cls, b, counters);
        backup[cls] = m;
        loaded[cls] = m = shell;
      } else {
        // One or no magazines yet (first operation on this thread/class is
        // a free — a block migrated in): take an empty shell, keep whatever
        // full magazine exists as the backup.
        magazine* shell = depot_return(cls, nullptr, counters);
        backup[cls] = m;
        loaded[cls] = m = shell;
      }
    }
    m->blocks[m->count++] = p;
  }
};

inline thread_cache& local_cache() {
  thread_local thread_cache cache;
  return cache;
}

}  // namespace detail

/// Result of slab_allocate_ex: the block plus whether it was recycled (a
/// previously freed block, as opposed to fresh slab memory or the heap).
struct slab_alloc_result {
  void* p;
  bool recycled;
};

/// Allocates at least `size` bytes, 64-byte aligned for sizes ≤ 4096.
/// Never touches ::operator new at steady state (only on depot slab carves
/// and for oversize requests, both counted).
inline slab_alloc_result slab_allocate_ex(std::size_t size) {
  const std::size_t cls = size_class(size);
  detail::thread_cache& tc = detail::local_cache();
  if (cls >= num_classes) {
    detail::thread_cache::bump(tc.counters->allocs[oversize_row]);
    return {detail::oversize_allocate(size, 0), false};
  }
  detail::thread_cache::bump(tc.counters->allocs[cls]);
  bool recycled = false;
  void* p = tc.pop(cls, recycled);
  if (recycled) detail::thread_cache::bump(tc.counters->recycled[cls]);
  return {p, recycled};
}

inline void* slab_allocate(std::size_t size) {
  return slab_allocate_ex(size).p;
}

/// Returns a block obtained from slab_allocate with the same `size`. Safe
/// from any thread (blocks migrate into the freeing thread's magazines).
inline void slab_deallocate(void* p, std::size_t size) noexcept {
  const std::size_t cls = size_class(size);
  detail::thread_cache& tc = detail::local_cache();
  if (cls >= num_classes) {
    detail::thread_cache::bump(tc.counters->frees[oversize_row]);
    detail::oversize_deallocate(p, size, 0);
    return;
  }
  detail::thread_cache::bump(tc.counters->frees[cls]);
  tc.push(cls, p);
}

/// Aligned variants for callers whose element alignment may exceed the
/// default heap alignment (the stress pools' alignas(64) rows, boxed spawn
/// closures). Class blocks are always 64-byte aligned, so only the oversize
/// passthrough needs the explicit alignment; `align` must not exceed 64 for
/// classed sizes.
inline void* slab_allocate_aligned(std::size_t size, std::size_t align) {
  CILKPP_ASSERT(align <= block_align || size_class(size) >= num_classes,
                "slab class blocks guarantee only 64-byte alignment");
  const std::size_t cls = size_class(size);
  if (cls < num_classes) return slab_allocate(size);
  detail::thread_cache& tc = detail::local_cache();
  detail::thread_cache::bump(tc.counters->allocs[oversize_row]);
  return detail::oversize_allocate(size, align);
}

inline void slab_deallocate_aligned(void* p, std::size_t size,
                                    std::size_t align) noexcept {
  const std::size_t cls = size_class(size);
  if (cls < num_classes) {
    slab_deallocate(p, size);
    return;
  }
  detail::thread_cache& tc = detail::local_cache();
  detail::thread_cache::bump(tc.counters->frees[oversize_row]);
  detail::oversize_deallocate(p, size, align);
}

/// The calling thread's counter block (registered on first use; immortal).
/// The scheduler stores this per worker to fold allocator activity into
/// worker_stats.
inline const slab_thread_counters* slab_local_counters() {
  return detail::local_cache().counters;
}

/// Aggregated counters for one size class (or the oversize row).
struct slab_class_stats {
  std::size_t block_size = 0;  ///< 0 for the oversize heap-passthrough row
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t recycled = 0;
  std::int64_t live() const {
    return static_cast<std::int64_t>(allocs) - static_cast<std::int64_t>(frees);
  }
};

/// Process-wide slab statistics (all threads that ever used the allocator,
/// exited or not — counter blocks are immortal).
struct slab_stats {
  slab_class_stats classes[num_classes + 1];
  std::uint64_t magazine_refills = 0;
  std::uint64_t magazine_returns = 0;
  /// Slabs carved and still held (slabs are only released at teardown).
  std::uint64_t slabs_live = 0;
  /// Magazine shells the depot ever allocated (also never released early).
  std::uint64_t magazines_live = 0;
  /// Every ::operator new the allocator issued: slab carves + magazine
  /// shells + oversize passthroughs. FLAT at steady state — the bench
  /// asserts the delta across a warmed-up measurement phase is zero.
  std::uint64_t system_allocs = 0;

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
  std::int64_t live_blocks() const {
    return static_cast<std::int64_t>(total_allocs()) -
           static_cast<std::int64_t>(total_frees());
  }
  /// Leak oracle (blocks parked in magazines/depot count as free). Only
  /// meaningful while no computation is in flight.
  bool balanced() const { return live_blocks() == 0; }
};

/// Snapshot across every registered thread plus the depot. Counters are
/// monotone; concurrent use skews a snapshot but never corrupts it.
slab_stats slab_totals();

/// std-compatible allocator handing out slab blocks — drop-in for the
/// vectors backing trace rings and stress pools. Rounds requests into the
/// size classes (≤ 4096 bytes) and passes larger buffers through to the
/// aligned heap path, both counted. Honors alignof(T) above the default
/// heap alignment (the stress pools' rows are alignas(64)).
template <typename T>
struct slab_std_allocator {
  using value_type = T;

  slab_std_allocator() = default;
  template <typename U>
  slab_std_allocator(const slab_std_allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(slab_allocate_aligned(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    slab_deallocate_aligned(p, n * sizeof(T), alignof(T));
  }

  template <typename U>
  bool operator==(const slab_std_allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace cilkpp::alloc
