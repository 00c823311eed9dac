// Task-pool statistics and the leak-balance oracle (the allocator behind
// spawns whose closure is too large for its frame slot): per-class
// alloc/free/reuse accounting, the oversize heap fallback, and global
// balance the moment a run returns.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"

namespace {

using namespace cilkpp::rt;

task_pool_stats snap() { return task_pool_totals(); }

std::uint64_t tree_sum(context& ctx, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t a = 0;
  ctx.spawn([&a, depth](context& child) { a = tree_sum(child, depth - 1); });
  const std::uint64_t b = tree_sum(ctx, depth - 1);
  ctx.sync();
  return a + b;
}

/// tree_sum whose spawn closure carries a payload too large for a frame
/// slot, so every spawn boxes its closure in one task_pool block.
std::uint64_t boxed_tree_sum(context& ctx, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t a = 0;
  std::array<std::uint64_t, 16> payload{};
  payload[0] = 1;
  ctx.spawn([&a, depth, payload](context& child) {
    a = payload[0] * boxed_tree_sum(child, depth - 1);
  });
  const std::uint64_t b = boxed_tree_sum(ctx, depth - 1);
  ctx.sync();
  return a + b;
}

TEST(TaskPoolSizeClass, BranchFreeMapMatchesClassBoundaries) {
  using pool_detail::size_class;
  // Exact boundaries of {64, 128, 256, 512}: the branch-free bit_width
  // formula must agree with "smallest class that fits" at every edge.
  EXPECT_EQ(size_class(0), 0u);
  EXPECT_EQ(size_class(1), 0u);
  EXPECT_EQ(size_class(63), 0u);
  EXPECT_EQ(size_class(64), 0u);
  EXPECT_EQ(size_class(65), 1u);
  EXPECT_EQ(size_class(128), 1u);
  EXPECT_EQ(size_class(129), 2u);
  EXPECT_EQ(size_class(256), 2u);
  EXPECT_EQ(size_class(257), 3u);
  EXPECT_EQ(size_class(512), 3u);
  EXPECT_GE(size_class(513), pool_detail::num_classes);  // heap fallback
  EXPECT_GE(size_class(4096), pool_detail::num_classes);
  // Exhaustive against the reference definition over the pooled range.
  for (std::size_t size = 0; size <= 600; ++size) {
    std::size_t expected = pool_detail::num_classes;
    for (std::size_t c = 0; c < pool_detail::num_classes; ++c) {
      if (size <= pool_detail::class_sizes[c]) {
        expected = c;
        break;
      }
    }
    EXPECT_EQ(size_class(size), expected) << "size " << size;
  }
}

TEST(TaskPoolFreelist, IntrusiveLifoReusesBlocksInStackOrder) {
  // The freed block itself stores the next pointer, so the list must hand
  // blocks back newest-first with no side storage.
  void* a = task_allocate(64);
  void* b = task_allocate(64);
  void* c = task_allocate(64);
  ASSERT_NE(a, b);
  ASSERT_NE(b, c);
  task_deallocate(a, 64);
  task_deallocate(b, 64);
  task_deallocate(c, 64);
  EXPECT_EQ(task_allocate(64), c);
  EXPECT_EQ(task_allocate(64), b);
  EXPECT_EQ(task_allocate(64), a);
  task_deallocate(a, 64);
  task_deallocate(b, 64);
  task_deallocate(c, 64);
}

TEST(TaskPoolStats, CountsAllocsAndFreesPerClass) {
  const task_pool_stats before = snap();
  void* p = task_allocate(64);  // class 0
  void* q = task_allocate(200); // class 2 (256)
  task_deallocate(p, 64);
  task_deallocate(q, 200);
  const task_pool_stats after = snap();
  EXPECT_EQ(after.classes[0].block_size, 64u);
  EXPECT_EQ(after.classes[2].block_size, 256u);
  EXPECT_EQ(after.classes[0].allocs, before.classes[0].allocs + 1);
  EXPECT_EQ(after.classes[0].frees, before.classes[0].frees + 1);
  EXPECT_EQ(after.classes[2].allocs, before.classes[2].allocs + 1);
  EXPECT_EQ(after.classes[2].frees, before.classes[2].frees + 1);
}

TEST(TaskPoolStats, ReuseCountedWhenServedFromFreeList) {
  // Warm the 128-byte list, then allocate again: the second allocation must
  // be served from the list and counted as a reuse.
  void* warm = task_allocate(100);
  task_deallocate(warm, 100);
  const task_pool_stats before = snap();
  void* p = task_allocate(128);
  const task_pool_stats after = snap();
  EXPECT_EQ(p, warm);  // LIFO recycling hands back the same block
  EXPECT_EQ(after.classes[1].reused, before.classes[1].reused + 1);
  task_deallocate(p, 128);
}

TEST(TaskPoolStats, OversizeRequestsCountedOnFallbackRow) {
  const task_pool_stats before = snap();
  void* p = task_allocate(4096);
  const task_pool_stats mid = snap();
  task_deallocate(p, 4096);
  const task_pool_stats after = snap();
  const auto& row = after.classes[pool_detail::num_classes];
  EXPECT_EQ(row.block_size, 0u);  // heap fallback, no fixed class size
  EXPECT_EQ(row.allocs, before.classes[pool_detail::num_classes].allocs + 1);
  EXPECT_EQ(row.frees, before.classes[pool_detail::num_classes].frees + 1);
  EXPECT_EQ(mid.live(), before.live() + 1);
  EXPECT_EQ(after.live(), before.live());
}

TEST(TaskPoolStats, LiveTracksOutstandingBlocks) {
  const task_pool_stats before = snap();
  void* a = task_allocate(64);
  void* b = task_allocate(64);
  EXPECT_EQ(snap().live(), before.live() + 2);
  task_deallocate(a, 64);
  EXPECT_EQ(snap().live(), before.live() + 1);
  task_deallocate(b, 64);
  EXPECT_EQ(snap().live(), before.live());
}

/// Runs body(frame) in a called frame of the root of a two-worker
/// scheduler whose only thief is held busy while one task waits in the
/// root's deque: the deque then holds P − 1 tasks at every spawn body
/// makes, so each of them runs as a call.
template <typename Body>
void run_with_thief_held(scheduler& sched, Body body) {
  ASSERT_EQ(sched.num_workers(), 2u);
  std::atomic<bool> thief_busy{false};
  std::atomic<bool> release{false};
  sched.run([&](context& ctx) {
    ctx.spawn([&](context&) {
      thief_busy.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    while (!thief_busy.load()) std::this_thread::yield();
    ctx.spawn([](context&) {});  // pushed: the deque is empty after the steal
    ctx.call(body);
    release.store(true);
  });
}

TEST(TaskPoolStats, BalancedAfterSchedulerRuns) {
  // The pool contract: a closure that fits in its frame slot takes no pool
  // block; a larger one takes exactly one block per pushed spawn and none
  // for a spawn that runs as a call; and the child frees its block before
  // it signals its join — so the pool is balanced the moment run()
  // returns, no matter which worker freed which block.
  scheduler sched(4);
  constexpr unsigned depth = 10;
  const task_pool_stats before = snap();
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t sum =
        sched.run([](context& ctx) { return tree_sum(ctx, depth); });
    EXPECT_EQ(sum, std::uint64_t{1} << depth);
    EXPECT_TRUE(snap().balanced());
  }
  const task_pool_stats mid = snap();
  EXPECT_EQ(mid.total_allocs(), before.total_allocs())
      << "in-slot spawns took pool blocks";

  for (int round = 0; round < 4; ++round) {
    const std::uint64_t sum =
        sched.run([](context& ctx) { return boxed_tree_sum(ctx, depth); });
    EXPECT_EQ(sum, std::uint64_t{1} << depth);
    const task_pool_stats now = snap();
    EXPECT_TRUE(now.balanced())
        << now.total_allocs() << " allocs vs " << now.total_frees()
        << " frees";
  }

  // Exactly one block per pushed spawn: a frame that syncs after at most
  // P − 1 spawns pushes every one (its children spawn nothing, so each
  // batch starts on an empty deque).
  const std::array<std::uint64_t, 16> payload{};
  auto boxed_leaf = [payload](context&) { (void)payload; };
  static_assert(!spawns_in_slot<decltype(boxed_leaf)>);
  const task_pool_stats pushed_before = snap();
  constexpr unsigned batches = 50;
  sched.run([&](context& ctx) {
    for (unsigned b = 0; b < batches; ++b) {
      for (unsigned i = 0; i + 1 < sched.num_workers(); ++i) {
        ctx.spawn(boxed_leaf);
      }
      ctx.sync();
    }
  });
  const task_pool_stats pushed_after = snap();
  EXPECT_EQ(pushed_after.total_allocs() - pushed_before.total_allocs(),
            batches * (sched.num_workers() - 1));
  EXPECT_TRUE(pushed_after.balanced());

  // No block for a spawn that runs as a call: all 2^depth − 1 spawns of a
  // boxed tree, with the only thief held busy.
  scheduler duo(2);
  const task_pool_stats inline_before = snap();
  for (int round = 0; round < 4; ++round) {
    std::uint64_t sum = 0;
    run_with_thief_held(duo, [&](context& frame) {
      sum = boxed_tree_sum(frame, depth);
    });
    EXPECT_EQ(sum, std::uint64_t{1} << depth);
  }
  const task_pool_stats inline_after = snap();
  EXPECT_EQ(inline_after.total_allocs(), inline_before.total_allocs());
  EXPECT_TRUE(inline_after.balanced());
}

TEST(TaskPoolStats, BalanceSurvivesExceptionUnwinds) {
  scheduler sched(2);
  for (int round = 0; round < 8; ++round) {
    try {
      sched.run([&](context& ctx) {
        ctx.spawn([](context& child) { (void)tree_sum(child, 6); });
        ctx.spawn([](context& child) { (void)boxed_tree_sum(child, 6); });
        ctx.spawn([](context&) { throw std::runtime_error("boom"); });
        ctx.sync();
      });
      FAIL() << "exception did not propagate";
    } catch (const std::runtime_error&) {
    }
    EXPECT_TRUE(snap().balanced()) << "round " << round;
  }
}

}  // namespace
