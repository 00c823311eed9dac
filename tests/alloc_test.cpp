// cilkpp_slab certification (DESIGN.md §4.11): size-class geometry, the
// magazine automaton's batching and retention invariants, cross-thread block
// migration, leak balance under the schedule-fuzz chaos sweep, and the
// memlens layout certificate — slab-served blocks can never false-share a
// cache line, checked on both SP engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "cilkscreen/screen_context.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "stress/chaos.hpp"
#include "memlens/analyzer.hpp"
#include "memlens/report.hpp"

namespace cilkpp {
namespace {

// --- Size-class geometry ---------------------------------------------------

TEST(SlabGeometry, SizeClassMap) {
  EXPECT_EQ(alloc::size_class(0), 0u);
  EXPECT_EQ(alloc::size_class(1), 0u);
  EXPECT_EQ(alloc::size_class(64), 0u);
  EXPECT_EQ(alloc::size_class(65), 1u);
  EXPECT_EQ(alloc::size_class(128), 1u);
  EXPECT_EQ(alloc::size_class(129), 2u);
  EXPECT_EQ(alloc::size_class(4096), alloc::num_classes - 1);
  EXPECT_GE(alloc::size_class(4097), alloc::num_classes);  // oversize
  // Every class size serves exactly the sizes that map to it.
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    EXPECT_EQ(alloc::size_class(alloc::class_sizes[c]), c);
    EXPECT_EQ(alloc::size_class(alloc::class_sizes[c] / 2 + 1), c);
  }
  // Exhaustive against "smallest class that fits": the branch-free
  // bit_width formula must agree at every size up to past the last class.
  for (std::size_t size = 0; size <= 4200; ++size) {
    std::size_t expected = alloc::num_classes;
    for (std::size_t c = 0; c < alloc::num_classes; ++c) {
      if (size <= alloc::class_sizes[c]) {
        expected = c;
        break;
      }
    }
    if (expected == alloc::num_classes) {
      EXPECT_GE(alloc::size_class(size), alloc::num_classes) << "size " << size;
    } else {
      EXPECT_EQ(alloc::size_class(size), expected) << "size " << size;
    }
  }
}

TEST(SlabGeometry, ClassSizesAreCacheLineMultiples) {
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    EXPECT_EQ(alloc::class_sizes[c] % alloc::block_align, 0u)
        << "class " << c;
  }
}

TEST(SlabGeometry, BlocksAreLineAlignedAndDisjoint) {
  constexpr int n = 64;
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    const std::size_t sz = alloc::class_sizes[c];
    std::vector<void*> blocks;
    for (int i = 0; i < n; ++i) blocks.push_back(alloc::slab_allocate(sz));
    std::vector<std::uintptr_t> addrs;
    for (void* p : blocks) {
      const auto a = reinterpret_cast<std::uintptr_t>(p);
      EXPECT_EQ(a % alloc::block_align, 0u);
      addrs.push_back(a);
    }
    // Pairwise disjoint at block granularity: no two live blocks overlap,
    // and since sizes are line multiples and starts line-aligned, no two
    // live blocks share a cache line either.
    std::sort(addrs.begin(), addrs.end());
    for (std::size_t i = 1; i < addrs.size(); ++i) {
      EXPECT_GE(addrs[i] - addrs[i - 1], sz);
    }
    for (void* p : blocks) alloc::slab_deallocate(p, sz);
  }
}

// --- Magazine batching and retention ---------------------------------------

/// Refills are amortized: draining n blocks costs ~n/capacity depot trips.
TEST(SlabMagazines, RefillBatching) {
  constexpr std::size_t sz = 256;
  constexpr std::size_t n = alloc::magazine_capacity * 8;
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t refills0 =
      tc->magazine_refills.load(std::memory_order_relaxed);
  std::vector<void*> held;
  for (std::size_t i = 0; i < n; ++i) held.push_back(alloc::slab_allocate(sz));
  const std::uint64_t refills =
      tc->magazine_refills.load(std::memory_order_relaxed) - refills0;
  // n blocks cannot arrive in fewer than n/capacity magazines; the +2 slack
  // covers the partially-drained magazines at both ends of the window.
  EXPECT_GE(refills + 2, n / alloc::magazine_capacity);
  EXPECT_LE(refills, n / alloc::magazine_capacity + 2);
  for (void* p : held) alloc::slab_deallocate(p, sz);
}

/// The loaded/backup pair retains two magazines, so LIFO churn that
/// straddles a magazine boundary stays OUT of the depot at steady state
/// (the Bonwick invariant; without it every churn cycle costs two locks).
TEST(SlabMagazines, SteadyStateChurnNeverTouchesDepot) {
  constexpr std::size_t sz = 512;
  constexpr int depth = static_cast<int>(alloc::magazine_capacity) + 11;
  void* p[depth];
  // Warm: one churn cycle populates loaded+backup for this class.
  for (int i = 0; i < depth; ++i) p[i] = alloc::slab_allocate(sz);
  for (int i = depth - 1; i >= 0; --i) alloc::slab_deallocate(p[i], sz);
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t refills0 =
      tc->magazine_refills.load(std::memory_order_relaxed);
  const std::uint64_t returns0 =
      tc->magazine_returns.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (int i = 0; i < depth; ++i) p[i] = alloc::slab_allocate(sz);
    for (int i = depth - 1; i >= 0; --i) alloc::slab_deallocate(p[i], sz);
  }
  EXPECT_EQ(tc->magazine_refills.load(std::memory_order_relaxed), refills0);
  EXPECT_EQ(tc->magazine_returns.load(std::memory_order_relaxed), returns0);
}

/// Freeing far more than the cache can hold returns whole magazines.
TEST(SlabMagazines, ReturnBatching) {
  constexpr std::size_t sz = 128;
  constexpr std::size_t n = alloc::magazine_capacity * 8;
  std::vector<void*> held;
  for (std::size_t i = 0; i < n; ++i) held.push_back(alloc::slab_allocate(sz));
  const alloc::slab_thread_counters* tc = alloc::slab_local_counters();
  const std::uint64_t returns0 =
      tc->magazine_returns.load(std::memory_order_relaxed);
  for (void* p : held) alloc::slab_deallocate(p, sz);
  const std::uint64_t returns =
      tc->magazine_returns.load(std::memory_order_relaxed) - returns0;
  // 8 magazines' worth freed; two stay cached (loaded + backup).
  EXPECT_GE(returns + 3, n / alloc::magazine_capacity);
  EXPECT_LE(returns, n / alloc::magazine_capacity);
}

// --- Cross-thread migration ------------------------------------------------

/// A block allocated here and freed on another thread (a stolen task frame's
/// lifecycle) migrates through the depot and stays balanced; the memory is
/// then re-servable on this thread.
TEST(SlabMigration, CrossThreadFreeBalances) {
  constexpr std::size_t sz = 256;
  constexpr std::size_t n = alloc::magazine_capacity * 4;
  const auto before = alloc::slab_totals();
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < n; ++i) {
    blocks.push_back(alloc::slab_allocate(sz));
  }
  std::thread other([&] {
    for (void* p : blocks) alloc::slab_deallocate(p, sz);
  });
  other.join();
  const auto after = alloc::slab_totals();
  EXPECT_EQ(after.total_allocs() - before.total_allocs(), n);
  EXPECT_EQ(after.total_frees() - before.total_frees(), n);
  EXPECT_TRUE(after.balanced());
  // The migrated blocks are depot inventory again: a fresh burst on this
  // thread must not carve new slabs for this class.
  const std::uint64_t slabs0 = after.slabs_live;
  for (std::size_t i = 0; i < n; ++i) {
    blocks[i] = alloc::slab_allocate(sz);
  }
  for (void* p : blocks) alloc::slab_deallocate(p, sz);
  EXPECT_EQ(alloc::slab_totals().slabs_live, slabs0);
}

// --- Leak balance under chaos ----------------------------------------------

/// Every task frame, slot-arena chunk and reducer view allocated by a
/// chaos-perturbed parallel run is freed by the time the scheduler is torn
/// down, for every seed — the slab-level leak oracle of the stress suite.
TEST(SlabChaos, EightSeedSweepStaysBalanced) {
  constexpr std::uint64_t n = 1200;
  const std::uint64_t expected = n * (n - 1) / 2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::atomic<std::uint64_t> sum{0};
    {
      // Declared before the scheduler: the policy must outlive it.
      stress::seeded_chaos chaos(seed, 4);
      rt::scheduler sched(4);
      sched.install_chaos(&chaos);
      sched.run([&](rt::context& ctx) {
        rt::parallel_for(
            ctx, std::uint64_t{0}, n,
            [&](std::uint64_t i) {
              sum.fetch_add(i, std::memory_order_relaxed);
            },
            /*grain=*/1);
      });
      sched.remove_chaos();
    }
    EXPECT_EQ(sum.load(), expected) << "chaos seed " << seed;
    EXPECT_TRUE(alloc::slab_totals().balanced()) << "chaos seed " << seed;
  }
}
// --- Memlens layout certificate --------------------------------------------

template <typename D>
class SlabMemlens : public ::testing::Test {
 protected:
  using Ctx = screen::basic_screen_context<D>;
};
using Engines = ::testing::Types<screen::detector, screen::order_detector>;
TYPED_TEST_SUITE(SlabMemlens, Engines);

/// The false-sharing-freedom claim, measured rather than asserted: register
/// live slab blocks of every class as runtime-owned regions (zero `padding`
/// records — no two blocks share a line) and write two of them from
/// logically parallel strands (zero `false_sharing` records).
TYPED_TEST(SlabMemlens, SlabServedBlocksAreFalseSharingFree) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);

  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t c = 0; c < alloc::num_classes; ++c) {
    for (int i = 0; i < 16; ++i) {
      blocks.emplace_back(alloc::slab_allocate(alloc::class_sizes[c]),
                          alloc::class_sizes[c]);
    }
  }
  screen::run_under_detector(d, [&](Ctx& ctx) {
    for (auto [p, sz] : blocks) ctx.note_lens_region(p, sz, "slab block");
    // Two sibling strands hammer different blocks of the smallest class —
    // the pattern that false-shares when an allocator packs two 64-byte
    // objects into one line.
    auto* a = static_cast<std::uint64_t*>(blocks[0].first);
    auto* b = static_cast<std::uint64_t*>(blocks[1].first);
    ctx.spawn([&](Ctx& c) {
      c.note_write(a, sizeof(*a), "worker A frame");
      *a = 1;
    });
    ctx.spawn([&](Ctx& c) {
      c.note_write(b, sizeof(*b), "worker B frame");
      *b = 2;
    });
    ctx.sync();
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());
  EXPECT_TRUE(ml.clean())
      << memlens::render_lenses(ml.records(), d.procedures());
  for (auto [p, sz] : blocks) alloc::slab_deallocate(p, sz);
}

// --- Block reuse and per-class statistics ---------------------------------

TEST(SlabBlocks, LifoReusesBlocksInStackOrder) {
  // A freed block goes on top of its thread's loaded magazine, so blocks of
  // one class come back newest-first — also for a smaller request that
  // rounds into the same class.
  void* a = alloc::slab_allocate(64);
  void* b = alloc::slab_allocate(64);
  void* c = alloc::slab_allocate(48);
  ASSERT_NE(a, b);
  ASSERT_NE(b, c);
  alloc::slab_deallocate(a, 64);
  alloc::slab_deallocate(b, 64);
  alloc::slab_deallocate(c, 48);
  EXPECT_EQ(alloc::slab_allocate(40), c);
  EXPECT_EQ(alloc::slab_allocate(64), b);
  EXPECT_EQ(alloc::slab_allocate(64), a);
  alloc::slab_deallocate(a, 64);
  alloc::slab_deallocate(b, 64);
  alloc::slab_deallocate(c, 40);
}

TEST(SlabBlocks, SizeClassesAreIndependent) {
  void* small = alloc::slab_allocate(64);
  void* big = alloc::slab_allocate(300);
  EXPECT_NE(small, big);
  alloc::slab_deallocate(small, 64);
  void* big2 = alloc::slab_allocate(257);  // 512 class: not the 64 block
  EXPECT_NE(big2, small);
  alloc::slab_deallocate(big, 300);
  alloc::slab_deallocate(big2, 257);
}

TEST(SlabStats, CountsAllocsAndFreesPerClass) {
  const alloc::slab_stats before = alloc::slab_totals();
  void* p = alloc::slab_allocate(64);   // class 0
  void* q = alloc::slab_allocate(200);  // class 2 (256)
  alloc::slab_deallocate(p, 64);
  alloc::slab_deallocate(q, 200);
  const alloc::slab_stats after = alloc::slab_totals();
  EXPECT_EQ(after.classes[0].block_size, 64u);
  EXPECT_EQ(after.classes[2].block_size, 256u);
  EXPECT_EQ(after.classes[0].allocs, before.classes[0].allocs + 1);
  EXPECT_EQ(after.classes[0].frees, before.classes[0].frees + 1);
  EXPECT_EQ(after.classes[2].allocs, before.classes[2].allocs + 1);
  EXPECT_EQ(after.classes[2].frees, before.classes[2].frees + 1);
}

TEST(SlabStats, RecycledCountedWhenServedFromAMagazine) {
  // Warm the 128-byte class, then allocate again: the second allocation is
  // the block just freed, and counts as recycled.
  void* warm = alloc::slab_allocate(100);
  alloc::slab_deallocate(warm, 100);
  const alloc::slab_stats before = alloc::slab_totals();
  void* p = alloc::slab_allocate(128);
  const alloc::slab_stats after = alloc::slab_totals();
  EXPECT_EQ(p, warm);
  EXPECT_EQ(after.classes[1].recycled, before.classes[1].recycled + 1);
  alloc::slab_deallocate(p, 128);
}

TEST(SlabStats, OversizeRequestsCountedOnOversizeRow) {
  constexpr std::size_t big = 10000;  // above the largest class
  const alloc::slab_stats before = alloc::slab_totals();
  void* p = alloc::slab_allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, big);  // fully usable
  const alloc::slab_stats mid = alloc::slab_totals();
  alloc::slab_deallocate(p, big);
  const alloc::slab_stats after = alloc::slab_totals();
  const alloc::slab_class_stats& row = after.classes[alloc::oversize_row];
  EXPECT_EQ(row.block_size, 0u);  // heap passthrough, no fixed class size
  EXPECT_EQ(row.allocs, before.classes[alloc::oversize_row].allocs + 1);
  EXPECT_EQ(row.frees, before.classes[alloc::oversize_row].frees + 1);
  EXPECT_EQ(mid.live_blocks(), before.live_blocks() + 1);
  EXPECT_EQ(after.live_blocks(), before.live_blocks());
}

TEST(SlabStats, LiveTracksOutstandingBlocks) {
  const alloc::slab_stats before = alloc::slab_totals();
  void* a = alloc::slab_allocate(64);
  void* b = alloc::slab_allocate(64);
  EXPECT_EQ(alloc::slab_totals().live_blocks(), before.live_blocks() + 2);
  alloc::slab_deallocate(a, 64);
  EXPECT_EQ(alloc::slab_totals().live_blocks(), before.live_blocks() + 1);
  alloc::slab_deallocate(b, 64);
  EXPECT_EQ(alloc::slab_totals().live_blocks(), before.live_blocks());
}

}  // namespace
}  // namespace cilkpp
