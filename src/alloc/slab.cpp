// The slab depot: level 2 of the two-level allocator (see slab.hpp).
//
// All depot state is per size class behind a per-class mutex — but the
// mutex is off the hot path by construction: a thread reaches the depot
// once per magazine_capacity block operations, and the exchange itself is
// O(1) pointer splicing (whole magazines move between stacks; blocks are
// never touched individually under the lock except when carving a fresh
// magazine out of a slab).
#include "alloc/slab.hpp"

#include <cstring>
#include <mutex>

namespace cilkpp::alloc {
namespace detail {

namespace {

/// A carved 64 KiB region. The header owns the first cache line alone;
/// payload blocks start at offset block_align, so block boundaries are
/// line boundaries for every class.
struct alignas(block_align) slab_header {
  slab_header* next = nullptr;
};
static_assert(sizeof(slab_header) <= block_align);

struct depot_class {
  std::mutex mu;
  magazine* full = nullptr;    ///< stack of magazines with blocks
  magazine* empty = nullptr;   ///< stack of drained shells
  slab_header* slabs = nullptr;  ///< every slab ever carved (teardown list)
  std::size_t bump = 0;          ///< carve offset into the head slab
  std::uint64_t slabs_created = 0;
  std::uint64_t magazines_created = 0;

  ~depot_class() {
    // Teardown only: threads are gone (thread_local caches destruct before
    // function-local statics on the main thread; pool threads are joined).
    auto free_stack = [](magazine* m) {
      while (m != nullptr) {
        magazine* next = m->next;
        delete m;
        m = next;
      }
    };
    free_stack(full);
    free_stack(empty);
    while (slabs != nullptr) {
      slab_header* next = slabs->next;
      ::operator delete(slabs, std::align_val_t{block_align});
      slabs = next;
    }
  }
};

struct depot {
  depot_class classes[num_classes];
};

// Thread registry: every thread's counter block, newest first. Blocks are
// immortal, so slab_totals() and worker-stats snapshots may read a thread's
// counters after it exited. The list is what keeps them reachable to the
// end of the process: its head is a constant-initialized static with no
// destructor, so unlike a container in the depot it is still intact when
// LeakSanitizer looks for unreachable blocks at exit.
std::mutex registry_mu;
slab_thread_counters* registry_head = nullptr;  // guarded by registry_mu

depot& the_depot() {
  static depot d;
  return d;
}

/// Carves up to magazine_capacity fresh blocks of `cls` into `m`.
/// Caller holds d.mu. Allocates a new slab when the head slab is exhausted
/// (the only ::operator new on the classed path, counted per thread).
void carve_into(depot_class& d, std::size_t cls, magazine* m,
                slab_thread_counters* counters) {
  const std::size_t bsize = class_sizes[cls];
  std::uint32_t n = 0;
  while (n < magazine_capacity) {
    if (d.slabs == nullptr || d.bump + bsize > slab_bytes) {
      if (n != 0) break;  // partial magazine is fine; don't carve eagerly
      void* raw = ::operator new(slab_bytes, std::align_val_t{block_align});
      auto* s = new (raw) slab_header;
      s->next = d.slabs;
      d.slabs = s;
      d.bump = block_align;  // the header line is not handed out
      ++d.slabs_created;
      counters->slabs_created.store(
          counters->slabs_created.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    }
    m->blocks[n++] = reinterpret_cast<char*>(d.slabs) + d.bump;
    d.bump += bsize;
  }
  m->count = n;
  m->fresh = n;
}

magazine* new_magazine(depot_class& d) {
  ++d.magazines_created;
  return new magazine;
}

}  // namespace

magazine* depot_refill(std::size_t cls, magazine* drained,
                       slab_thread_counters* counters) {
  depot_class& d = the_depot().classes[cls];
  std::lock_guard lock(d.mu);
  if (drained != nullptr) {
    drained->next = d.empty;
    d.empty = drained;
  }
  if (magazine* m = d.full) {
    d.full = m->next;
    m->next = nullptr;
    return m;
  }
  magazine* m;
  if (d.empty != nullptr) {
    m = d.empty;
    d.empty = m->next;
    m->next = nullptr;
  } else {
    m = new_magazine(d);
  }
  carve_into(d, cls, m, counters);
  return m;
}

magazine* depot_return(std::size_t cls, magazine* full,
                       slab_thread_counters*) {
  depot_class& d = the_depot().classes[cls];
  std::lock_guard lock(d.mu);
  if (full != nullptr) {
    full->next = d.full;
    d.full = full;
  }
  magazine* m;
  if (d.empty != nullptr) {
    m = d.empty;
    d.empty = m->next;
    m->next = nullptr;
  } else {
    m = new_magazine(d);
  }
  return m;
}

slab_thread_counters* register_thread(thread_cache*) {
  auto* counters = new slab_thread_counters;  // immortal, see slab.hpp
  std::lock_guard lock(registry_mu);
  counters->next = registry_head;
  registry_head = counters;
  return counters;
}

void unregister_thread(thread_cache* tc) noexcept {
  // Flush every magazine back to the depot so the blocks stay allocatable
  // by other threads. Partially filled magazines go on the full stack —
  // refill handles any count > 0; a fully drained one goes on empty.
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    for (magazine* m : {tc->loaded[cls], tc->backup[cls]}) {
      if (m == nullptr) continue;
      depot_class& d = the_depot().classes[cls];
      std::lock_guard lock(d.mu);
      if (m->count != 0) {
        m->next = d.full;
        d.full = m;
      } else {
        m->next = d.empty;
        d.empty = m;
      }
    }
    tc->loaded[cls] = nullptr;
    tc->backup[cls] = nullptr;
  }
  // tc->counters intentionally stays registered and alive.
}

void* oversize_allocate(std::size_t size, std::size_t align) {
  if (align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    return ::operator new(size, std::align_val_t{align});
  }
  return ::operator new(size);
}

void oversize_deallocate(void* p, std::size_t, std::size_t align) noexcept {
  if (align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    ::operator delete(p, std::align_val_t{align});
    return;
  }
  ::operator delete(p);
}

}  // namespace detail

slab_stats slab_totals() {
  using namespace detail;
  slab_stats out;
  for (std::size_t c = 0; c < num_classes; ++c) {
    out.classes[c].block_size = class_sizes[c];
  }
  {
    std::lock_guard lock(registry_mu);
    for (const slab_thread_counters* t = registry_head; t != nullptr;
         t = t->next) {
      for (std::size_t c = 0; c <= num_classes; ++c) {
        out.classes[c].allocs += t->allocs[c].load(std::memory_order_relaxed);
        out.classes[c].frees += t->frees[c].load(std::memory_order_relaxed);
        out.classes[c].recycled +=
            t->recycled[c].load(std::memory_order_relaxed);
      }
      out.magazine_refills +=
          t->magazine_refills.load(std::memory_order_relaxed);
      out.magazine_returns +=
          t->magazine_returns.load(std::memory_order_relaxed);
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    auto& d = the_depot().classes[c];
    std::lock_guard lock(d.mu);
    out.slabs_live += d.slabs_created;
    out.magazines_live += d.magazines_created;
  }
  out.system_allocs =
      out.slabs_live + out.magazines_live +
      out.classes[oversize_row].allocs;
  return out;
}

}  // namespace cilkpp::alloc
