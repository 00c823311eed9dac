// Tests for the work-stealing runtime: spawn/sync semantics, exception
// propagation through syncs (paper Sec. 1: "full support for C++
// exceptions"), parallel_for, the serial-elision engine, and scheduler
// statistics. Worker counts above the physical core count are intentional:
// oversubscription shakes out interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <list>
#include <memory>
#include <numeric>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hyper/reducer.hpp"
#include "runtime/mutex.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "runtime/slot_arena.hpp"
#include "runtime/task_pool.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

namespace cilkpp::rt {
namespace {

int serial_fib(int n) { return n < 2 ? n : serial_fib(n - 1) + serial_fib(n - 2); }

int fib(context& ctx, int n) {
  if (n < 2) return n;
  int a = 0;
  ctx.spawn([&a, n](context& child) { a = fib(child, n - 1); });
  const int b = fib(ctx, n - 2);
  ctx.sync();
  return a + b;
}

class SchedulerFib : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerFib, MatchesSerial) {
  scheduler sched(GetParam());
  const int result = sched.run([](context& ctx) { return fib(ctx, 18); });
  EXPECT_EQ(result, serial_fib(18));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerFib,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Scheduler, SingleWorkerRunsInline) {
  scheduler sched(1);
  EXPECT_EQ(sched.num_workers(), 1u);
  int side_effect = 0;
  int seen_by_continuation = -1;
  std::thread::id child_thread;
  std::uint64_t child_depth = 0;
  sched.run([&](context& ctx) {
    ctx.spawn([&](context& child) {
      side_effect = 7;
      child_thread = std::this_thread::get_id();
      child_depth = child.depth();
    });
    // No thief exists, so the child ran as a call: its effect is visible
    // to the continuation before the sync.
    seen_by_continuation = side_effect;
    ctx.sync();
  });
  EXPECT_EQ(side_effect, 7);
  EXPECT_EQ(seen_by_continuation, 7);
  EXPECT_EQ(child_thread, std::this_thread::get_id());
  EXPECT_EQ(child_depth, 1u);
  // Counted as a spawn and as an executed task, and never queued.
  const worker_stats s = sched.stats();
  EXPECT_EQ(s.spawns, 1u);
  EXPECT_EQ(s.tasks_executed, 1u);
  EXPECT_EQ(s.peak_deque, 0u);
  EXPECT_EQ(s.max_frame_depth, 1u);
  EXPECT_EQ(s.peak_live_frames, 2u);  // the root and the child
}

// --- One worker: every spawn runs as a call, in serial order. ---

TEST(SingleWorker, SpawnedChildRunsBeforeItsContinuation) {
  scheduler sched(1);
  std::vector<int> order;
  sched.run([&](context& ctx) {
    ctx.spawn([&](context& child) {
      order.push_back(1);
      child.spawn([&](context&) { order.push_back(2); });
      order.push_back(3);
    });
    order.push_back(4);
    ctx.sync();
    order.push_back(5);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SingleWorker, LeafGrainsRunBeforeTheirContinuation) {
  scheduler sched(1);
  std::vector<int> order;
  const auto body = [&](int i) { order.push_back(i); };
  sched.run([&](context& ctx) {
    ctx.spawn_leaf(0, 3, body);
    ctx.spawn_leaf(3, 6, body);
    order.push_back(-1);
    ctx.sync();
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, -1}));
  // The body(i) lowering of parallel_for: every grain in index order.
  std::vector<int> seen;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 1000, [&](int i) { seen.push_back(i); }, 4);
  });
  std::vector<int> expected(1000);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

TEST(SingleWorker, BatchedJobsRunInSubmissionOrder) {
  // job_server's dispatch shape: one run() whose root spawns every job of
  // a batch and joins them at its implicit sync.
  scheduler sched(1);
  std::vector<std::function<void(context&)>> batch;
  std::vector<int> order;
  for (int k = 0; k < 16; ++k) {
    batch.push_back([&order, k](context& ctx) {
      order.push_back(k);
      ctx.spawn([&order, k](context&) { order.push_back(100 + k); });
    });
  }
  sched.run([&](context& ctx) {
    for (const auto& job : batch) {
      const auto* jp = &job;
      ctx.spawn([jp](context& child) { (*jp)(child); });
    }
  });
  std::vector<int> expected;
  for (int k = 0; k < 16; ++k) {
    expected.push_back(k);
    expected.push_back(100 + k);
  }
  EXPECT_EQ(order, expected);
}

TEST(SingleWorker, ChildExceptionIsHeldUntilTheNextSync) {
  scheduler sched(1);
  std::vector<std::string> log;
  sched.run([&](context& ctx) {
    ctx.spawn([&](context&) {
      log.push_back("child1");
      throw std::runtime_error("first");
    });
    log.push_back("continuation1");  // the throw did not stop the parent
    ctx.spawn([&](context&) {
      log.push_back("child2");
      throw std::runtime_error("second");
    });
    log.push_back("continuation2");
    try {
      ctx.sync();
    } catch (const std::runtime_error& e) {
      log.push_back(std::string("sync:") + e.what());  // serially earliest
    }
    ctx.sync();  // the held exception was taken by the first sync
    log.push_back("after");
  });
  EXPECT_EQ(log, (std::vector<std::string>{"child1", "continuation1", "child2",
                                           "continuation2", "sync:first",
                                           "after"}));
  // A grandchild's exception reaches its grandparent through the child's
  // implicit sync, and a body(i) grain's through the next sync too.
  log.clear();
  EXPECT_THROW(sched.run([&](context& ctx) {
                 ctx.spawn([&](context& child) {
                   child.spawn([](context&) { throw std::logic_error("inner"); });
                   log.push_back("child continues");
                 });
                 log.push_back("root continues");
                 ctx.sync();
                 log.push_back("unreachable");
               }),
               std::logic_error);
  EXPECT_EQ(log, (std::vector<std::string>{"child continues", "root continues"}));
  int after_leaf = 0;
  const auto throwing = [](int i) {
    if (i == 1) throw std::out_of_range("grain");
  };
  EXPECT_THROW(sched.run([&](context& ctx) {
                 ctx.spawn_leaf(0, 2, throwing);
                 after_leaf = 1;
                 ctx.sync();
               }),
               std::out_of_range);
  EXPECT_EQ(after_leaf, 1);
  // The scheduler is still usable.
  EXPECT_EQ(sched.run([](context& ctx) { return fib(ctx, 15); }), serial_fib(15));
}

TEST(SingleWorker, MutableClosureRunsOnACopy) {
  scheduler sched(1);
  std::vector<int> calls;
  auto counter = [n = 0, &calls](context&) mutable { calls.push_back(++n); };
  sched.run([&](context& ctx) {
    ctx.spawn(counter);
    ctx.spawn(counter);
    ctx.sync();
  });
  // Each spawn ran its own copy, so neither saw the other's increment.
  EXPECT_EQ(calls, (std::vector<int>{1, 1}));
}

TEST(Scheduler, DefaultWorkerCountIsPositive) {
  scheduler sched;
  EXPECT_GE(sched.num_workers(), 1u);
}

TEST(Scheduler, RunReturnsValuesOfAnyType) {
  scheduler sched(2);
  const std::string s =
      sched.run([](context&) { return std::string("hello"); });
  EXPECT_EQ(s, "hello");
  sched.run([](context&) {});  // void works too
}

TEST(Scheduler, SequentialRunsReuseWorkers) {
  scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    const int r = sched.run([round](context& ctx) { return fib(ctx, 10) + round; });
    EXPECT_EQ(r, serial_fib(10) + round);
  }
}

TEST(Scheduler, ManySpawnsFromOneFrame) {
  // The Sec. 3.1 spawn-loop shape: one frame spawns n children, one sync.
  scheduler sched(4);
  constexpr int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.run([&](context& ctx) {
    for (int i = 0; i < n; ++i) {
      ctx.spawn([&hits, i](context&) { hits[i].fetch_add(1); });
    }
    ctx.sync();
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Scheduler, SyncIsLocalToTheFrame) {
  // A sync in a called child frame must not wait for the parent's children.
  scheduler sched(4);
  std::atomic<int> order{0};
  int parent_child_seen_at = -1;
  sched.run([&](context& ctx) {
    std::atomic<bool> parent_child_done{false};
    ctx.spawn([&](context&) {
      parent_child_done.store(true);
      order.fetch_add(1);
    });
    ctx.call([&](context& callee) {
      callee.spawn([&](context&) { order.fetch_add(1); });
      callee.sync();  // joins only callee's child
      // No assertion on parent_child_done here (it may or may not have run) —
      // the point is this sync cannot deadlock waiting for the parent's child.
      parent_child_seen_at = order.load();
    });
    ctx.sync();
    EXPECT_TRUE(parent_child_done.load());
  });
  EXPECT_GE(parent_child_seen_at, 1);
  EXPECT_EQ(order.load(), 2);
}

TEST(Scheduler, NestedCallsReturnValues) {
  scheduler sched(2);
  const int v = sched.run([](context& ctx) {
    return ctx.call([](context& inner) {
      return inner.call([](context&) { return 21; }) * 2;
    });
  });
  EXPECT_EQ(v, 42);
}

TEST(Scheduler, DeepSpawnChain) {
  // Each frame spawns one child that recurses: depth stresses frame
  // bookkeeping rather than breadth.
  scheduler sched(3);
  std::function<void(context&, int, std::atomic<int>&)> deep =
      [&](context& ctx, int depth, std::atomic<int>& count) {
        count.fetch_add(1);
        if (depth == 0) return;
        ctx.spawn([&, depth](context& c) { deep(c, depth - 1, count); });
        ctx.sync();
      };
  std::atomic<int> count{0};
  sched.run([&](context& ctx) { deep(ctx, 500, count); });
  EXPECT_EQ(count.load(), 501);
}

// --- Exceptions. ---

TEST(Exceptions, ChildExceptionRethrownAtSync) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw std::runtime_error("child"); });
                 ctx.sync();
               }),
               std::runtime_error);
}

TEST(Exceptions, ExceptionCarriesMessage) {
  scheduler sched(2);
  try {
    sched.run([](context& ctx) {
      ctx.spawn([](context&) { throw std::runtime_error("boom-42"); });
      ctx.sync();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-42");
  }
}

TEST(Exceptions, ImplicitSyncAtRunEndRethrows) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw std::logic_error("late"); });
                 // no explicit sync: run()'s implicit sync must deliver it
               }),
               std::logic_error);
}

TEST(Exceptions, BodyExceptionJoinsChildrenFirst) {
  scheduler sched(4);
  std::atomic<int> children_done{0};
  EXPECT_THROW(sched.run([&](context& ctx) {
                 for (int i = 0; i < 50; ++i) {
                   ctx.spawn([&](context&) { children_done.fetch_add(1); });
                 }
                 throw std::runtime_error("body");
               }),
               std::runtime_error);
  // All spawned children completed before run() returned.
  EXPECT_EQ(children_done.load(), 50);
}

TEST(Exceptions, EarliestChildExceptionWins) {
  scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    try {
      sched.run([](context& ctx) {
        ctx.spawn([](context&) { throw std::runtime_error("first"); });
        ctx.spawn([](context&) { throw std::runtime_error("second"); });
        ctx.sync();
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      // Serially earliest spawn's exception is delivered regardless of the
      // order in which the children actually failed.
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(Exceptions, SchedulerUsableAfterException) {
  scheduler sched(4);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.spawn([](context&) { throw 1; });
                 ctx.sync();
               }),
               int);
  const int v = sched.run([](context& ctx) { return fib(ctx, 12); });
  EXPECT_EQ(v, serial_fib(12));
}

TEST(Exceptions, ThrownFromCalledFrame) {
  scheduler sched(2);
  EXPECT_THROW(sched.run([](context& ctx) {
                 ctx.call([](context& inner) {
                   inner.spawn([](context&) { throw std::runtime_error("x"); });
                   inner.sync();
                 });
               }),
               std::runtime_error);
}

// --- parallel_for. ---

class ParallelFor : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFor, TouchesEveryIndexExactlyOnce) {
  scheduler sched(4);
  constexpr int n = 5000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, n, [&](int i) { hits[i].fetch_add(1); }, GetParam());
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(Grains, ParallelFor,
                         ::testing::Values(0u, 1u, 7u, 64u, 100000u));

TEST(ParallelForBasics, EmptyAndSingletonRanges) {
  scheduler sched(2);
  int count = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 5, 5, [&](int) { ++count; });
    parallel_for(ctx, 5, 4, [&](int) { ++count; });
    parallel_for(ctx, 5, 6, [&](int i) { count += i; });
  });
  EXPECT_EQ(count, 5);
}

TEST(ParallelForBasics, FillsArrayLikeFig1MainLoop) {
  // Fig. 1, line 26: cilk_for filling a[i] = sin(i).
  scheduler sched(4);
  constexpr int n = 100;
  std::vector<double> a(n, 0.0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, n, [&](int i) { a[i] = i * 0.5; });
  });
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(a[i], i * 0.5);
}

TEST(ParallelForEdges, GrainLargerThanRangeRunsSeriallyWithoutSpawns) {
  // The splitter only spawns while more than `grain` iterations remain, so
  // a grain exceeding the trip count must degenerate to a plain loop.
  scheduler sched(2);
  sched.reset_stats();
  std::vector<int> hits(10, 0);
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 10, [&](int i) { hits[i]++; }, 1000);
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, SingleElementWithHugeGrain) {
  scheduler sched(2);
  sched.reset_stats();
  int seen = -1;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 41, 42, [&](int i) { seen = i; }, 1u << 30);
  });
  EXPECT_EQ(seen, 41);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, EmptyRangeNeverInvokesBodyOrSpawns) {
  scheduler sched(2);
  sched.reset_stats();
  int count = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 0, [&](int) { ++count; }, 4);
    parallel_for(ctx, 9, 3, [&](int) { ++count; }, 4);  // reversed range
  });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sched.stats().spawns, 0u);
}

TEST(ParallelForEdges, BodyThrowsOnSerialGrainPath) {
  // grain > range: the throw unwinds through the loop's call frame, not a
  // spawned task, exercising the other exception delivery path.
  scheduler sched(2);
  int executed = 0;
  EXPECT_THROW(
      sched.run([&](context& ctx) {
        parallel_for(ctx, 0, 8,
                     [&](int i) {
                       ++executed;
                       if (i == 3) throw std::runtime_error("serial-path");
                     },
                     64);
      }),
      std::runtime_error);
  EXPECT_EQ(executed, 4);  // iterations run in order up to the throw
  EXPECT_EQ(sched.run([](context&) { return 3; }), 3);  // still usable
}

TEST(ParallelForEdges, SpawningLeafBodyOnSmallRangeIsAwaited) {
  // Regression: the serial n <= grain fast path applies only to the body(i)
  // form. The body(leaf, i) form is allowed to spawn, and those spawns must
  // attach to a loop frame whose implicit sync awaits them — inlined on the
  // caller's strand they would escape the loop and still be running when
  // parallel_for returns.
  scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    sched.run([&](context& ctx) {
      std::atomic<bool> done{false};
      parallel_for(ctx, 0, 1, [&](context& leaf, int) {
        leaf.spawn([&done](context&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          done.store(true, std::memory_order_release);
        });
      });
      EXPECT_TRUE(done.load(std::memory_order_acquire));
    });
  }
}

TEST(ParallelForBasics, DefaultGrainRule) {
  EXPECT_EQ(default_grain(100, 4), 3u);       // 100/32
  EXPECT_EQ(default_grain(10, 4), 1u);        // never zero
  EXPECT_EQ(default_grain(1 << 20, 4), 2048u);  // capped at 2048
}

// --- Serial elision engine. ---

int serial_engine_fib(serial_context& ctx, int n) {
  if (n < 2) return n;
  int a = 0;
  ctx.spawn([&a, n](serial_context& child) { a = serial_engine_fib(child, n - 1); });
  const int b = serial_engine_fib(ctx, n - 2);
  ctx.sync();
  return a + b;
}

TEST(SerialElision, SameAnswerAsRuntime) {
  serial_context root;
  EXPECT_EQ(serial_engine_fib(root, 15), serial_fib(15));
}

TEST(SerialElision, AccountAccumulatesAcrossSpawnsAndCalls) {
  serial_context root;
  root.account(5);
  root.spawn([](serial_context& c) { c.account(10); });
  root.call([](serial_context& c) {
    c.account(20);
    return 0;
  });
  root.sync();
  EXPECT_EQ(root.accounted_work(), 35u);
}

TEST(SerialElision, ParallelForIsPlainLoop) {
  serial_context root;
  std::vector<int> hits(100, 0);
  parallel_for(root, 0, 100, [&](int i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

// --- Statistics. ---

TEST(Stats, SpawnsCountedAndStealsBounded) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 15); });
  const worker_stats s = sched.stats();
  // fib(15) spawns once per internal call of fib(n), n in [2, 15].
  EXPECT_GT(s.spawns, 0u);
  EXPECT_EQ(s.tasks_executed, s.spawns);  // every spawned task ran exactly once
  EXPECT_LE(s.steals, s.tasks_executed);
  EXPECT_GT(s.max_frame_depth, 5u);
}

TEST(Stats, ResetClearsCounters) {
  scheduler sched(2);
  sched.run([](context& ctx) { (void)fib(ctx, 10); });
  sched.reset_stats();
  EXPECT_EQ(sched.stats().spawns, 0u);
  EXPECT_EQ(sched.stats().tasks_executed, 0u);
}

TEST(Stats, PerWorkerBreakdownSumsToTotal) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 16); });
  const auto per = sched.per_worker_stats();
  ASSERT_EQ(per.size(), 4u);
  worker_stats sum;
  for (const auto& w : per) sum.merge(w);
  EXPECT_EQ(sum.spawns, sched.stats().spawns);
  EXPECT_EQ(sum.steals, sched.stats().steals);
}

TEST(Stats, StealProvenanceSumsToSteals) {
  scheduler sched(4);
  sched.reset_stats();
  sched.run([](context& ctx) { (void)fib(ctx, 20); });
  const auto per = sched.per_worker_stats();
  ASSERT_EQ(per.size(), 4u);
  std::uint64_t total_by_victim = 0;
  for (std::size_t w = 0; w < per.size(); ++w) {
    ASSERT_EQ(per[w].steals_by_victim.size(), 4u);
    // Nobody steals from themselves, and each thief's per-victim counts
    // add up to exactly its successful steals.
    EXPECT_EQ(per[w].steals_by_victim[w], 0u);
    std::uint64_t row = 0;
    for (std::uint64_t c : per[w].steals_by_victim) row += c;
    EXPECT_EQ(row, per[w].steals);
    total_by_victim += row;
  }
  EXPECT_EQ(total_by_victim, sched.stats().steals);
  // The merged aggregate view carries the same provenance totals.
  worker_stats sum;
  for (const auto& w : per) sum.merge(w);
  std::uint64_t merged = 0;
  for (std::uint64_t c : sum.steals_by_victim) merged += c;
  EXPECT_EQ(merged, sum.steals);
}

// --- More edge cases. ---

TEST(EdgeCases, ExceptionInsideParallelForBody) {
  scheduler sched(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      sched.run([&](context& ctx) {
        parallel_for(ctx, 0, 1000, [&](int i) {
          executed.fetch_add(1);
          if (i == 500) throw std::runtime_error("body");
        }, 16);
      }),
      std::runtime_error);
  // Some iterations ran; the scheduler survived and remains usable.
  EXPECT_GT(executed.load(), 0);
  const int ok = sched.run([](context&) { return 7; });
  EXPECT_EQ(ok, 7);
}

TEST(EdgeCases, RunReturnsMoveOnlyType) {
  scheduler sched(2);
  auto p = sched.run([](context& ctx) {
    auto result = std::make_unique<int>(0);
    int a = 0;
    ctx.spawn([&a](context&) { a = 21; });
    ctx.sync();
    *result = 2 * a;
    return result;
  });
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 42);
}

TEST(EdgeCases, MutableLambdaStateStaysWithTask) {
  scheduler sched(4);
  std::atomic<int> total{0};
  sched.run([&](context& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.spawn([counter = i, &total](context&) mutable {
        ++counter;  // task-private mutable state
        total.fetch_add(counter);
      });
    }
    ctx.sync();
  });
  EXPECT_EQ(total.load(), 100 * 101 / 2);
}

TEST(EdgeCases, HugeFineGrainedParallelFor) {
  // 200k grain-1 iterations: stresses task allocation, deque growth, and
  // the lazy-splitting spine without deep stacks.
  scheduler sched(4);
  std::atomic<std::int64_t> sum{0};
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 200000, [&](int i) {
      if ((i & 1023) == 0) sum.fetch_add(i);
    }, 1);
  });
  std::int64_t expected = 0;
  for (int i = 0; i < 200000; i += 1024) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(EdgeCases, SpawnFromManyNestedCalledFrames) {
  scheduler sched(2);
  std::function<int(context&, int)> nest = [&](context& ctx, int depth) -> int {
    if (depth == 0) return 1;
    return ctx.call([&](context& inner) {
      int child = 0;
      inner.spawn([&](context& c) { child = nest(c, depth - 1); });
      inner.sync();
      return child + 1;
    });
  };
  EXPECT_EQ(sched.run([&](context& ctx) { return nest(ctx, 100); }), 101);
}

TEST(EdgeCases, ManyWorkersOversubscribedSmoke) {
  // 32 workers on however few cores this host has: correctness only.
  scheduler sched(32);
  const int r = sched.run([](context& ctx) { return fib(ctx, 16); });
  EXPECT_EQ(r, serial_fib(16));
  EXPECT_EQ(sched.num_workers(), 32u);
}

// --- Pedigrees and deterministic parallel RNG. ---
// (The rank-list machinery compiles out with -DCILKPP_PEDIGREE=OFF.)
#if CILKPP_PEDIGREE_ENABLED

// Collect (strand_id, first dprng draw) along a fixed spawn tree.
void collect_ids(context& ctx, int depth,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>& out,
                 std::mutex& mu) {
  {
    std::lock_guard lock(mu);
    out.emplace_back(ctx.strand_id(), ctx.dprng_draw());
  }
  if (depth == 0) return;
  ctx.spawn([&, depth](context& c) { collect_ids(c, depth - 1, out, mu); });
  collect_ids(ctx, depth - 1, out, mu);
  ctx.sync();
}

TEST(Pedigree, StrandIdsIdenticalAcrossWorkerCountsAndRuns) {
  auto run_once = [](unsigned workers) {
    scheduler sched(workers);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;
    std::mutex mu;
    sched.run([&](context& ctx) { collect_ids(ctx, 6, ids, mu); });
    std::sort(ids.begin(), ids.end());  // collection order is racy; ids aren't
    return ids;
  };
  const auto reference = run_once(1);
  EXPECT_FALSE(reference.empty());
  for (unsigned workers : {2u, 4u, 8u}) {
    EXPECT_EQ(run_once(workers), reference) << workers << " workers";
  }
  EXPECT_EQ(run_once(4), run_once(4));  // repeat runs too
}

TEST(Pedigree, StrandsBeforeAndAfterSpawnDiffer) {
  scheduler sched(2);
  sched.run([](context& ctx) {
    const auto before = ctx.strand_id();
    ctx.spawn([](context&) {});
    const auto after = ctx.strand_id();
    EXPECT_NE(before, after);
    ctx.sync();
    EXPECT_NE(after, ctx.strand_id());  // sync starts another strand
  });
}

TEST(Pedigree, SiblingsAndParentHaveDistinctIds) {
  scheduler sched(4);
  std::atomic<std::uint64_t> a{0}, b{0};
  std::uint64_t parent_id = 0;
  sched.run([&](context& ctx) {
    parent_id = ctx.strand_id();
    ctx.spawn([&](context& c) { a.store(c.strand_id()); });
    ctx.spawn([&](context& c) { b.store(c.strand_id()); });
    ctx.sync();
  });
  EXPECT_NE(a.load(), b.load());
  EXPECT_NE(a.load(), parent_id);
  EXPECT_NE(b.load(), parent_id);
}

TEST(Pedigree, DprngDrawsAdvanceWithinAStrand) {
  scheduler sched(1);
  sched.run([](context& ctx) {
    const auto d1 = ctx.dprng_draw();
    const auto d2 = ctx.dprng_draw();
    const auto d3 = ctx.dprng_draw();
    EXPECT_NE(d1, d2);
    EXPECT_NE(d2, d3);
    EXPECT_NE(d1, d3);
  });
}

TEST(Pedigree, DprngStreamIsDeterministic) {
  auto draws = [](unsigned workers) {
    scheduler sched(workers);
    return sched.run([](context& ctx) {
      std::vector<std::uint64_t> v;
      for (int i = 0; i < 5; ++i) v.push_back(ctx.dprng_draw());
      ctx.spawn([&](context& c) { v.push_back(c.dprng_draw()); });
      ctx.sync();
      v.push_back(ctx.dprng_draw());
      return v;
    });
  };
  EXPECT_EQ(draws(1), draws(4));
}

#endif  // CILKPP_PEDIGREE_ENABLED

// --- Task pool. ---

TEST(TaskPool, RecyclesBlocksWithinAThread) {
  void* first = task_allocate(48);
  task_deallocate(first, 48);
  void* second = task_allocate(40);  // same 64-byte class: reuses the block
  EXPECT_EQ(second, first);
  task_deallocate(second, 40);
}

TEST(TaskPool, SizeClassesAreIndependent) {
  void* small = task_allocate(64);
  void* big = task_allocate(300);
  EXPECT_NE(small, big);
  task_deallocate(small, 64);
  void* big2 = task_allocate(257);  // 512-class: must not take the 64 block
  EXPECT_NE(big2, small);
  task_deallocate(big, 300);
  task_deallocate(big2, 257);
}

TEST(TaskPool, OversizedRequestsFallBackToHeap) {
  void* huge = task_allocate(10000);
  ASSERT_NE(huge, nullptr);
  std::memset(huge, 0xab, 10000);  // fully usable
  task_deallocate(huge, 10000);
}

TEST(TaskPool, SurvivesHeavyChurnAcrossWorkers) {
  // Tasks are allocated on the spawning worker and freed on the executing
  // one; heavy cross-worker churn must neither leak (ASan build) nor crash.
  scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> n{0};
    sched.run([&](context& ctx) {
      for (int i = 0; i < 5000; ++i) {
        ctx.spawn([&n](context&) { n.fetch_add(1); });
      }
      ctx.sync();
    });
    EXPECT_EQ(n.load(), 5000);
  }
}

// --- cilk::mutex. ---

TEST(Mutex, CountsAcquisitions) {
  mutex m;
  m.lock();
  m.unlock();
  {
    std::lock_guard guard(m);
  }
  EXPECT_EQ(m.acquisitions(), 2u);
  EXPECT_EQ(m.contended_acquisitions(), 0u);
  m.reset_counters();
  EXPECT_EQ(m.acquisitions(), 0u);
}

TEST(Mutex, TryLockFailsWhenHeld) {
  mutex m;
  m.lock();
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

TEST(Mutex, ContentionDetectedUnderParallelUse) {
  scheduler sched(4);
  mutex m;
  std::uint64_t shared = 0;
  sched.run([&](context& ctx) {
    parallel_for(ctx, 0, 20000, [&](int) {
      std::lock_guard guard(m);
      ++shared;
    }, /*grain=*/16);
  });
  EXPECT_EQ(shared, 20000u);
  EXPECT_EQ(m.acquisitions(), 20000u);
  // With more than one worker the lock should have been contended at least
  // occasionally (not asserted strictly — a 1-core box may serialize).
}

// --- slot_arena: the stable-address storage under the lock-free join
// (DESIGN.md §4). A child holds a raw frame_slot* across its whole
// execution, so append must never move existing slots. ---

TEST(SlotArena, AddressesStableAcrossGrowth) {
  slot_arena a;
  std::vector<frame_slot*> addrs;
  for (int i = 0; i < 200; ++i) {
    addrs.push_back(a.append(/*is_child=*/true));
    // Every address handed out so far must still be the i-th slot: appends
    // (including chunk growth) never relocate earlier slots.
    std::vector<frame_slot*> seen;
    if (i == 0 || i == 1 || i == 2 || i == 17 || i == 199) {
      a.for_each([&](frame_slot& s) { seen.push_back(&s); });
      ASSERT_EQ(seen, addrs);
    }
  }
  EXPECT_EQ(a.size(), 200u);
  EXPECT_TRUE(a.has_children());
  EXPECT_EQ(a.last(), addrs.back());
  // All distinct.
  std::vector<frame_slot*> sorted = addrs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SlotArena, ChunksReusedAcrossEpochs) {
  slot_arena a;
  std::vector<frame_slot*> first_epoch;
  for (int i = 0; i < 100; ++i) first_epoch.push_back(a.append(true));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_children());
  EXPECT_EQ(a.last(), nullptr);
  // The next epoch walks the same inline slots and retained chunks: every
  // append returns the identical address, with no allocator traffic.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.append(i % 2 == 0), first_epoch[static_cast<std::size_t>(i)]);
  }
}

TEST(SlotArena, ResetCleanDropsStructureInPlace) {
  slot_arena a;
  std::vector<frame_slot*> addrs;
  for (int i = 0; i < 40; ++i) addrs.push_back(a.append(true));
  EXPECT_TRUE(a.all_children());
  a.reset_clean();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_children());
  for (int i = 0; i < 40; ++i) {
    frame_slot* s = a.append(false);
    EXPECT_EQ(s, addrs[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(s->is_child);  // append refreshes the stale mark
  }
  EXPECT_FALSE(a.all_children());
}

// --- Exception safety of view ownership transfers: a user reduce or absorb
// may throw; every view must still be destroyed exactly once. ---

struct counting_view final : view_base {
  explicit counting_view(int* live) : live(live) { ++*live; }
  ~counting_view() override { --*live; }
  int* live;
};

struct throwing_hyper final : hyperobject_base {
  throwing_hyper(int* live, bool throw_on_reduce, bool throw_on_absorb)
      : live(live),
        throw_on_reduce(throw_on_reduce),
        throw_on_absorb(throw_on_absorb) {}

  std::unique_ptr<view_base> identity_view() const override {
    return std::make_unique<counting_view>(live);
  }
  void reduce_views(view_base&, view_base&) const override {
    if (throw_on_reduce) throw std::runtime_error("reduce boom");
  }
  void absorb_final(std::unique_ptr<view_base>) override {
    if (throw_on_absorb) throw std::runtime_error("absorb boom");
  }

  int* live;
  bool throw_on_reduce;
  bool throw_on_absorb;
};

TEST(ViewOwnership, ThrowingReduceInFoldDoesNotDoubleFree) {
  // fold_view_maps must transfer each right view to a single owner before
  // the (potentially throwing) reduce runs: on a throw, both maps unwind,
  // and a view still listed in both would be deleted twice.
  int live = 0;
  throwing_hyper a(&live, false, false);
  throwing_hyper b(&live, true, false);  // second entry reduced: throws
  throwing_hyper c(&live, false, false);
  {
    view_map left, right;
    left.insert_new(&a, std::make_unique<counting_view>(&live));
    left.insert_new(&b, std::make_unique<counting_view>(&live));
    right.insert_new(&a, std::make_unique<counting_view>(&live));
    right.insert_new(&b, std::make_unique<counting_view>(&live));
    right.insert_new(&c, std::make_unique<counting_view>(&live));
    ASSERT_EQ(live, 5);
    EXPECT_THROW(fold_view_maps(left, std::move(right)), std::runtime_error);
    // a's right view was reduced and destroyed; b's was destroyed during
    // the throw; c's was never reached and still sits in right. Both left
    // views survive.
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);  // every view destroyed exactly once
}

TEST(ViewOwnership, ThrowingAbsorbAtRootDoesNotDoubleFree) {
  // finish_root hands each final view to absorb_final; if the user reduce
  // inside throws, the run's unwinding destroys the remaining view map,
  // which must not re-delete the view just handed over.
  int live = 0;
  throwing_hyper h(&live, false, true);
  scheduler sched(2);
  EXPECT_THROW(sched.run([&](context& ctx) { (void)ctx.hyper_view(h); }),
               std::runtime_error);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(sched.run([](context&) { return 7; }), 7);  // still usable
}

// --- Wide fan-out through the lock-free join: 10^5 children of ONE frame,
// with reducer traffic and two throwing children. Exercises chunked arena
// growth, slot-content delivery from helpers, serial-order folding, and
// the serially-earliest-exception rule, all in a single sync. ---

TEST(WideFanout, HundredThousandChildrenReducersAndEarliestException) {
  constexpr int n = 100'000;
  constexpr int throw_a = 60'000;  // serially later — must lose
  constexpr int throw_b = 25'000;  // serially earliest — must win
  scheduler sched(4);
  cilk::reducer<cilk::hyper::opadd<std::uint64_t>> sum;
  try {
    sched.run([&](context& ctx) {
      for (int i = 0; i < n; ++i) {
        ctx.spawn([&sum, i](context& child) {
          sum.view(child) += 1;  // before the throw: no update may be lost
          if (i == throw_a || i == throw_b) {
            throw std::runtime_error("child " + std::to_string(i));
          }
        });
      }
      ctx.sync();
    });
    FAIL() << "expected the sync to rethrow a child exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), ("child " + std::to_string(throw_b)).c_str());
  }
  // finish_root_abandoned still absorbs completed strands' views.
  EXPECT_EQ(sum.value(), static_cast<std::uint64_t>(n));
}

TEST(WideFanout, RepeatedWideSyncsReuseArenaChunks) {
  // The steady-state of a parallel_for spine: fold, spawn wide again. The
  // arena must reuse its chunks across epochs and the pool its blocks; the
  // leak oracle (allocs == frees) must hold afterwards.
  scheduler sched(2);
  std::atomic<std::uint64_t> total{0};
  sched.run([&](context& ctx) {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 1000; ++i) {
        ctx.spawn([&total](context&) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
      ctx.sync();
    }
  });
  EXPECT_EQ(total.load(), 50'000u);
}

// --- Work-first spawn path: a child that is never stolen costs no pool
// block (its record lives in its frame slot) and no atomic RMW. ---

/// An engine whose spawn only checks, at compile time, that the runtime
/// would build the closure's record in its frame slot. Instantiating a
/// workload over it checks the workload's own spawn closures (their
/// captures, hence their layout, do not depend on the engine).
struct slot_probe {
  template <typename Fn>
  void spawn(Fn&&) {
    static_assert(spawns_in_slot<Fn>, "closure would take a pool block");
  }
  template <typename Fn>
  void call(Fn&& fn) {
    fn(*this);
  }
  void sync() {}
  void account(std::uint64_t) {}
};

[[maybe_unused]] constexpr auto* fib_closure_probe =
    &workloads::fib<slot_probe>;
[[maybe_unused]] constexpr auto* qsort_closure_probe =
    &workloads::qsort<slot_probe, double*>;
// parallel_for's halving closure, in both body forms and for narrow and
// wide indices (its captures are two indices, the grain and the body's
// address, whatever the body).
[[maybe_unused]] constexpr auto* pfor_int_probe =
    &rt::parallel_for<slot_probe, int, void (*)(int)>;
[[maybe_unused]] constexpr auto* pfor_u64_probe =
    &rt::parallel_for<slot_probe, std::uint64_t, void (*)(std::uint64_t)>;
[[maybe_unused]] constexpr auto* pfor_ctx_int_probe =
    &rt::parallel_for<slot_probe, int, void (*)(slot_probe&, int)>;
[[maybe_unused]] constexpr auto* pfor_ctx_u64_probe =
    &rt::parallel_for<slot_probe, std::uint64_t,
                      void (*)(slot_probe&, std::uint64_t)>;
static_assert(fits_in_slot<leaf_record<std::function<void(int)>, std::uint64_t>>,
              "spawn_leaf records refer to the body instead of copying it");

std::uint64_t pool_allocs() { return task_pool_totals().total_allocs(); }

TEST(SpawnPath, InSlotSpawnsTakeNoPoolBlocks) {
  scheduler sched(1);
  const int fib25 = serial_fib(25);
  sched.run([&](context& ctx) {  // warm-up: arena chunks, deque, slab
    for (int i = 0; i < 1000; ++i) {
      ctx.spawn([](context&) {});
      ctx.sync();
    }
    EXPECT_EQ(fib(ctx, 20), serial_fib(20));
  });
  const std::uint64_t before = pool_allocs();
  sched.run([&](context& ctx) {
    for (int i = 0; i < 10'000; ++i) {
      ctx.spawn([](context&) {});
      ctx.sync();
    }
  });
  EXPECT_EQ(pool_allocs(), before) << "empty spawn+sync pair loop";
  const std::uint64_t fib_spawns_before = sched.stats().spawns;
  const std::uint64_t value = sched.run([](context& ctx) {
    return workloads::fib(ctx, 25, 0);
  });
  EXPECT_EQ(value, static_cast<std::uint64_t>(fib25));
  EXPECT_GT(sched.stats().spawns, fib_spawns_before);
  EXPECT_EQ(pool_allocs(), before) << "fib(25)";
  EXPECT_TRUE(task_pool_totals().balanced());
}

TEST(SpawnPath, OversizedClosureTakesOnePoolBlockPerSpawn) {
  scheduler sched(4);
  std::array<std::uint64_t, 32> payload{};
  payload.fill(1);
  std::atomic<std::uint64_t> sum{0};
  auto big = [&sum, payload](context&) {
    sum.fetch_add(payload[31], std::memory_order_relaxed);
  };
  static_assert(!spawns_in_slot<decltype(big)>);
  const task_pool_stats before = task_pool_totals();
  sched.run([&](context& ctx) {
    for (int i = 0; i < 100; ++i) ctx.spawn(big);
    ctx.sync();
  });
  const task_pool_stats after = task_pool_totals();
  EXPECT_EQ(sum.load(), 100u);
  EXPECT_EQ(after.total_allocs() - before.total_allocs(), 100u);
  EXPECT_EQ(after.total_frees() - before.total_frees(), 100u);
  EXPECT_TRUE(after.balanced());
}

struct copy_error : std::runtime_error {
  copy_error() : std::runtime_error("closure copy failed") {}
};

/// A closure whose copy constructor throws; `Pad` bytes of payload decide
/// whether its record lives in the slot or boxes it in a pool block.
template <std::size_t Pad>
struct throwing_copy {
  throwing_copy() = default;
  throwing_copy(const throwing_copy&) { throw copy_error(); }
  void operator()(context&) const {}
  std::array<char, Pad> payload{};
};

class ThrowingClosureCopy : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(Workers, ThrowingClosureCopy, ::testing::Values(1u, 4u));

TEST_P(ThrowingClosureCopy, ReachesTheCallerWithoutAHang) {
  static_assert(spawns_in_slot<throwing_copy<1>>);
  static_assert(!spawns_in_slot<throwing_copy<512>>);
  scheduler sched(GetParam());
  const task_pool_stats before = task_pool_totals();
  const throwing_copy<1> small;
  const throwing_copy<512> large;
  // The spawn throws out of the root body: run()'s unwinding epilogue must
  // have nothing to wait for.
  EXPECT_THROW(sched.run([&](context& ctx) { ctx.spawn(small); }), copy_error);
  EXPECT_THROW(sched.run([&](context& ctx) { ctx.spawn(large); }), copy_error);
  // Thrown beside real children and caught in the frame: the failed
  // spawn's slot stays pristine between two delivering children, and the
  // frame's sync still folds them in serial order.
  cilk::reducer<cilk::hyper::list_append<int>> order;
  sched.run([&](context& ctx) {
    ctx.spawn([&](context& child) { order.view(child).push_back(1); });
    EXPECT_THROW(ctx.spawn(small), copy_error);
    EXPECT_THROW(ctx.spawn(large), copy_error);
    ctx.spawn([&](context& child) { order.view(child).push_back(2); });
    ctx.sync();
  });
  EXPECT_EQ(order.value(), (std::list<int>{1, 2}));
  const task_pool_stats after = task_pool_totals();
  EXPECT_TRUE(after.balanced());
  // Two boxes when the spawns push records; a one-worker scheduler runs
  // each child on a copy of its closure on the stack, which needs no box.
  EXPECT_EQ(after.total_allocs() - before.total_allocs(),
            GetParam() == 1 ? 0u : 2u);
  // The scheduler is still usable.
  EXPECT_EQ(sched.run([](context& ctx) { return fib(ctx, 15); }), serial_fib(15));
}

}  // namespace
}  // namespace cilkpp::rt
