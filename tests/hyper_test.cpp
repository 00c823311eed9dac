// Tests for reducer hyperobjects (paper Sec. 5).
//
// The crucial property, quoted from the paper: "Cilk++ carefully maintains
// the proper ordering so that the resulting list contains the identical
// elements in the same order as in a serial execution." The determinism
// sweeps below check exactly that, across worker counts and repeated runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <list>
#include <numeric>
#include <memory>
#include <stdexcept>
#include <string>
#include <cmath>
#include <vector>

#include "alloc/slab.hpp"
#include "hyper/holder.hpp"
#include "hyper/monoid.hpp"
#include "hyper/reducer.hpp"
#include "hyper/reducers.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "stress/chaos.hpp"

namespace cilkpp::hyper {
namespace {

using rt::context;
using rt::scheduler;
using rt::serial_context;

// --- Monoid laws (property tests). ---

template <typename M>
void check_monoid_laws(std::vector<typename M::value_type> samples) {
  using V = typename M::value_type;
  // Identity: e ⊗ x == x and x ⊗ e == x.
  for (const V& x : samples) {
    V left = M::identity();
    M::reduce(left, V(x));
    V right = V(x);
    M::reduce(right, M::identity());
    EXPECT_EQ(left, x);
    EXPECT_EQ(right, x);
  }
  // Associativity: (a ⊗ b) ⊗ c == a ⊗ (b ⊗ c).
  for (const V& a : samples)
    for (const V& b : samples)
      for (const V& c : samples) {
        V lhs = V(a);
        M::reduce(lhs, V(b));
        M::reduce(lhs, V(c));
        V bc = V(b);
        M::reduce(bc, V(c));
        V rhs = V(a);
        M::reduce(rhs, std::move(bc));
        EXPECT_EQ(lhs, rhs);
      }
}

TEST(MonoidLaws, OpAdd) { check_monoid_laws<opadd<int>>({-3, 0, 7, 100}); }
TEST(MonoidLaws, OpMul) { check_monoid_laws<opmul<long>>({1, 2, -5, 3}); }
TEST(MonoidLaws, OpAnd) {
  check_monoid_laws<opand<unsigned>>({0u, 0xffu, 0xf0u, 0x3cu});
}
TEST(MonoidLaws, OpOr) { check_monoid_laws<opor<unsigned>>({0u, 1u, 8u, 0xffu}); }
TEST(MonoidLaws, OpXor) { check_monoid_laws<opxor<unsigned>>({0u, 5u, 9u}); }
TEST(MonoidLaws, OpMin) { check_monoid_laws<opmin<int>>({3, -2, 100, 3}); }
TEST(MonoidLaws, OpMax) { check_monoid_laws<opmax<int>>({3, -2, 100, 3}); }
TEST(MonoidLaws, StringConcat) {
  check_monoid_laws<string_concat>({"", "a", "bc", "ddd"});
}
TEST(MonoidLaws, ListAppend) {
  check_monoid_laws<list_append<int>>({{}, {1}, {2, 3}, {4, 5, 6}});
}
TEST(MonoidLaws, VectorAppend) {
  check_monoid_laws<vector_append<int>>({{}, {1}, {2, 3}});
}

TEST(MonoidLaws, MinIndexKeepsEarliestTie) {
  using M = opmin_index<int, int>;
  M::value_type a{.value = 5, .index = 2, .valid = true};
  M::value_type b{.value = 5, .index = 9, .valid = true};
  M::reduce(a, std::move(b));
  EXPECT_EQ(a.index, 2);  // serially earliest occurrence wins ties
  M::value_type empty = M::identity();
  M::reduce(empty, M::value_type{.value = 1, .index = 4, .valid = true});
  EXPECT_TRUE(empty.valid);
  EXPECT_EQ(empty.index, 4);
}

// --- Sum reducer under the real scheduler. ---

class ReducerSum : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReducerSum, ParallelForSumMatches) {
  scheduler sched(GetParam());
  reducer<opadd<std::int64_t>> sum;
  constexpr int n = 100000;
  sched.run([&](context& ctx) {
    rt::parallel_for(ctx, 0, n,
                     [&](context& leaf, int i) { sum.view(leaf) += i; }, 64);
  });
  EXPECT_EQ(sum.value(), static_cast<std::int64_t>(n) * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ReducerSum,
                         ::testing::Values(1u, 2u, 4u, 8u));

// NOTE: the body above takes the leaf frame's context — the required idiom
// for reducer access inside parallel_for; fetching a view through an outer
// frame's context would share one view across concurrent strands.

TEST(Reducer, ViewAccessedThroughLeafContexts) {
  scheduler sched(4);
  reducer<opadd<std::int64_t>> sum;
  std::function<void(context&, int)> walk = [&](context& ctx, int depth) {
    sum.view(ctx) += 1;
    if (depth == 0) return;
    ctx.spawn([&walk, depth](context& child) { walk(child, depth - 1); });
    walk(ctx, depth - 1);
    ctx.sync();
  };
  sched.run([&](context& ctx) { walk(ctx, 12); });
  EXPECT_EQ(sum.value(), (1 << 13) - 1);  // nodes of a depth-12 binary tree
}

TEST(Reducer, InitialValueStaysLeftmost) {
  scheduler sched(4);
  reducer<string_concat> text(std::string("start:"));
  sched.run([&](context& ctx) {
    ctx.spawn([&](context& c) { text.view(c) += "A"; });
    text.view(ctx) += "B";
    ctx.sync();
  });
  // Serial order: spawn's child runs before the continuation in the elision.
  EXPECT_EQ(text.value(), "start:AB");
}

TEST(Reducer, TakeResetsToIdentity) {
  reducer<opadd<int>> sum;
  scheduler sched(2);
  sched.run([&](context& ctx) { sum.view(ctx) += 41; });
  EXPECT_EQ(sum.take(), 41);
  EXPECT_EQ(sum.value(), 0);
  sched.run([&](context& ctx) { sum.view(ctx) += 1; });
  EXPECT_EQ(sum.value(), 1);
}

// --- Ordered reduction: the paper's headline reducer guarantee. ---

// The Fig. 5/7 tree walk: emit every node's label, left subtree spawned.
struct tree_node {
  int label;
  std::unique_ptr<tree_node> left, right;
};

std::unique_ptr<tree_node> build_tree(int& next_label, int depth) {
  if (depth < 0) return nullptr;
  auto node = std::make_unique<tree_node>();
  node->left = build_tree(next_label, depth - 1);
  node->label = next_label++;
  node->right = build_tree(next_label, depth - 1);
  return node;
}

void walk_runtime(context& ctx, const tree_node* x,
                  reducer<list_append<int>>& out) {
  if (!x) return;
  out.view(ctx).push_back(x->label);
  ctx.spawn([&out, left = x->left.get()](context& c) {
    walk_runtime(c, left, out);
  });
  walk_runtime(ctx, x->right.get(), out);
  ctx.sync();
}

void walk_serial(serial_context& ctx, const tree_node* x,
                 reducer<list_append<int>>& out) {
  if (!x) return;
  out.view(ctx).push_back(x->label);
  ctx.spawn([&out, left = x->left.get()](serial_context& c) {
    walk_serial(c, left, out);
  });
  walk_serial(ctx, x->right.get(), out);
  ctx.sync();
}

class OrderedReduction : public ::testing::TestWithParam<unsigned> {};

TEST_P(OrderedReduction, ListMatchesSerialExecutionOrder) {
  int next = 0;
  const auto tree = build_tree(next, 7);  // 255 nodes

  // Ground truth: the serial elision's order.
  reducer<list_append<int>> serial_out;
  serial_context serial_root;
  walk_serial(serial_root, tree.get(), serial_out);
  const std::list<int> expected = serial_out.take();
  EXPECT_EQ(expected.size(), 255u);

  // Parallel runs must produce the identical sequence, every time.
  scheduler sched(GetParam());
  for (int round = 0; round < 5; ++round) {
    reducer<list_append<int>> out;
    sched.run([&](context& ctx) { walk_runtime(ctx, tree.get(), out); });
    EXPECT_EQ(out.value(), expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, OrderedReduction,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(OrderedReductionMore, StringConcatAcrossParallelFor) {
  // Non-commutative monoid through the cilk_for lowering: result must be
  // the in-order concatenation regardless of scheduling.
  std::string expected;
  for (int i = 0; i < 200; ++i) expected += static_cast<char>('a' + i % 26);

  scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    reducer<string_concat> text;
    sched.run([&](context& ctx) {
      rt::parallel_for(ctx, 0, 200, [&](context& leaf, int i) {
        text.view(leaf) += static_cast<char>('a' + i % 26);
      }, 8);
    });
    EXPECT_EQ(text.value(), expected) << "round " << round;
  }
}

TEST(OrderedReductionMore, InterleavedSpawnsAndContinuationUpdates) {
  // Updates alternate: continuation, child, continuation, child …
  // Serial order is u0 c0 u1 c1 u2; fold must reassemble exactly that.
  scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    reducer<string_concat> text;
    sched.run([&](context& ctx) {
      text.view(ctx) += "u0.";
      ctx.spawn([&](context& c) { text.view(c) += "c0."; });
      text.view(ctx) += "u1.";
      ctx.spawn([&](context& c) { text.view(c) += "c1."; });
      text.view(ctx) += "u2.";
      ctx.sync();
    });
    // Serial elision order: u0, then c0 (spawn = call), then u1, c1, u2.
    EXPECT_EQ(text.value(), "u0.c0.u1.c1.u2.") << "round " << round;
  }
}

TEST(OrderedReductionMore, CalledFrameUpdatesFoldInPlace) {
  scheduler sched(2);
  reducer<string_concat> text;
  sched.run([&](context& ctx) {
    text.view(ctx) += "a";
    ctx.call([&](context& callee) { text.view(callee) += "b"; });
    text.view(ctx) += "c";
  });
  EXPECT_EQ(text.value(), "abc");
}

// --- One worker: every frame updates the leftmost value in place (Sec. 5:
// a view is created only after a steal, and a one-worker scheduler has no
// thief). ---

/// Addition whose identity() counts the views the runtime creates.
struct counting_add {
  using value_type = std::int64_t;
  static inline std::atomic<std::uint64_t> identities{0};
  static value_type identity() {
    identities.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  static void reduce(value_type& left, value_type&& right) { left += right; }
};

// --- The fold's association at P > 1. ---

/// A deliberately non-associative "monoid": reducing two non-empty views
/// brackets them, [l|r], so the result spells out the association the fold
/// used. The empty string is still the identity.
struct bracket {
  using value_type = std::string;
  static std::string identity() { return {}; }
  static void reduce(std::string& left, std::string&& right) {
    if (right.empty()) return;
    if (left.empty()) {
      left = std::move(right);
      return;
    }
    left = "[" + left + "|" + right + "]";
  }
};

/// A fib-shaped spawn tree whose continuation recurses on the same frame,
/// as fib_spawn's does. Some strands skip the reducer, and every fourth
/// child never touches it (nor do the grandchildren it spawns).
void bracket_fib(context& ctx, reducer<bracket>& r, unsigned n) {
  if (n < 2) {
    if (n == 1) r.view(ctx) += 'l';
    return;
  }
  if (n % 3 != 0) r.view(ctx) += static_cast<char>('a' + n);
  if (n % 4 == 1) {
    ctx.spawn([n](context& c) {
      for (unsigned i = 0; i < n % 3; ++i) c.spawn([](context&) {});
    });
  } else {
    ctx.spawn([&r, n](context& c) { bracket_fib(c, r, n - 1); });
  }
  if (n % 2 == 0) r.view(ctx) += static_cast<char>('A' + n);
  bracket_fib(ctx, r, n - 2);
  ctx.sync();
  if (n % 5 == 0) r.view(ctx) += 's';
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FoldAssociation, PinnedAcrossWorkerCountsAndSchedules) {
  // At P > 1 every strand keeps its own views and a frame folds them along
  // its slots, so the association is a property of the spawn tree alone:
  // whether a child was pushed, stolen or run as a call, and whether it
  // touched the reducer, must not move a bracket. The pinned hash is the
  // string every run gave when every P > 1 spawn was pushed.
  std::string first;
  for (const unsigned workers : {2u, 4u}) {
    for (const std::uint64_t seed : {0u, 1u, 2u, 3u, 4u, 5u}) {
      stress::seeded_chaos chaos(seed, workers);  // seed 0: no perturbation
      scheduler sched(workers);
      sched.install_chaos(&chaos);
      reducer<bracket> r;
      sched.run([&](context& ctx) { bracket_fib(ctx, r, 16); });
      if (first.empty()) first = r.value();
      EXPECT_EQ(r.value(), first) << "workers=" << workers << " seed=" << seed;
      EXPECT_EQ(fnv1a(r.value()), 0x0ecaf95bf4b308eeULL)
          << "workers=" << workers << " seed=" << seed;
    }
  }
}

TEST(SingleWorkerViews, NoAccessMakesAView) {
  scheduler sched(1);
  reducer<counting_add> sum;  // its leftmost value took one identity
  const std::uint64_t before = counting_add::identities.load();
  sched.run([&](context& ctx) {
    ctx.spawn([&](context& c) {
      sum.view(c) += 1;
      c.spawn([&](context& g) { sum.view(g) += 1; });
      c.sync();
      sum.view(c) += 1;
    });
    ctx.call([&](context& c) { sum.view(c) += 1; });
    rt::parallel_for(ctx, 0, 1000,
                     [&](context& leaf, int) { sum.view(leaf) += 1; }, 7);
    sum.view(ctx) += 1;
    ctx.sync();
  });
  EXPECT_EQ(counting_add::identities.load() - before, 0u);
  EXPECT_EQ(sum.value(), 1005);
}

// SNIPPETS.md Snippet 1's shape (cheetah's ilist_dac): a list is appended
// to only at the leaves of a divide-and-conquer recursion whose right half
// continues in the same frame.
void ilist_dac(context& ctx, int lo, int hi, int base,
               reducer<list_append<int>>& out) {
  if (hi - lo < base) {
    for (int i = lo; i < hi; ++i) out.view(ctx).push_back(i);
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  ctx.spawn([&out, lo, mid, base](context& c) { ilist_dac(c, lo, mid, base, out); });
  ilist_dac(ctx, mid, hi, base, out);
  ctx.sync();
}

class ListAtTheLeaves : public ::testing::TestWithParam<unsigned> {};

TEST_P(ListAtTheLeaves, KeepsSerialOrder) {
  constexpr int n = 20000;
  std::list<int> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  scheduler sched(GetParam());
  for (int round = 0; round < 3; ++round) {
    reducer<list_append<int>> out;
    sched.run([&](context& ctx) { ilist_dac(ctx, 0, n, 4, out); });
    EXPECT_EQ(out.value(), expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ListAtTheLeaves, ::testing::Values(1u, 4u));

class ThrowingCalledFrame : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThrowingCalledFrame, KeepsItsUpdates) {
  // Updates made before a throw are kept, as the serial elision keeps them
  // and as a throwing spawned child delivers them: at one worker every
  // frame updates the root's view directly, so at P > 1 a called frame —
  // a parallel_for's loop frame too — folds its views into its caller on
  // the way out.
  scheduler sched(GetParam());
  reducer<opadd<int>> sum;
  sched.run([&](context& ctx) {
    try {
      ctx.call([&](context& f) {
        sum.view(f) += 1;
        throw std::runtime_error("call");
      });
    } catch (const std::runtime_error&) {
    }
    try {
      rt::parallel_for(ctx, 0, 100,
                       [&](context& leaf, int i) {
                         sum.view(leaf) += 1;
                         if (i == 50) throw std::runtime_error("loop");
                       },
                       1);
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_EQ(sum.value(), 101);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThrowingCalledFrame, ::testing::Values(1u, 4u));

TEST(SingleWorkerViews, CollectOfALocalReducerReturnsEveryUpdate) {
  scheduler sched(1);
  reducer<list_append<int>> outer;
  std::list<int> collected;
  std::list<int> collected_in_child;
  sched.run([&](context& ctx) {
    outer.view(ctx).push_back(0);
    ctx.call([&](context& f) {
      reducer<list_append<int>> local;
      f.spawn([&](context& c) { local.view(c).push_back(1); });
      local.view(f).push_back(2);
      outer.view(f).push_back(1);
      rt::parallel_for(f, 3, 10,
                       [&](context& leaf, int i) { local.view(leaf).push_back(i); }, 2);
      f.sync();
      collected = local.collect(f);
    });
    ctx.spawn([&](context& c) {
      reducer<list_append<int>> local;
      c.spawn([&](context& g) { local.view(g).push_back(7); });
      local.view(c).push_back(8);
      c.sync();
      collected_in_child = local.collect(c);
    });
    outer.view(ctx).push_back(2);
  });
  EXPECT_EQ(collected, (std::list<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(collected_in_child, (std::list<int>{7, 8}));
  // Collecting one reducer leaves the others' shared views in place.
  EXPECT_EQ(outer.value(), (std::list<int>{0, 1, 2}));
}

// --- The strand's segment cache: one pointer to the frame's current
// segment, scanned inline, so any number of reducers stays cached. ---

/// BC's claim loop (graph::betweenness): every iteration updates one
/// reducer, and then one of two others, by a bit of a hash of i.
template <typename Ctx>
void claim_loop(Ctx& ctx, reducer<opadd<std::uint64_t>>& hist,
                reducer<vector_append<std::uint32_t>>& next,
                reducer<vector_append<std::uint32_t>>& still) {
  rt::parallel_for(
      ctx, std::uint32_t{0}, std::uint32_t{5000},
      [&](Ctx& leaf, std::uint32_t i) {
        hist.view(leaf) += i % 7 + 1;
        if (((i * 2654435761u) >> 29) & 1u) {
          next.view(leaf).push_back(i);
        } else {
          still.view(leaf).push_back(i);
        }
      },
      16);
}

struct claimed {
  std::uint64_t hist = 0;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> still;
  bool operator==(const claimed&) const = default;
};

/// Runs claim_loop twice in ctx's frame: once on reducers that outlive the
/// run, once on local ones it collects, as betweenness does per level.
template <typename Ctx>
claimed claim_twice(Ctx& ctx, reducer<opadd<std::uint64_t>>& hist,
                    reducer<vector_append<std::uint32_t>>& next,
                    reducer<vector_append<std::uint32_t>>& still) {
  claim_loop(ctx, hist, next, still);
  reducer<opadd<std::uint64_t>> local_hist;
  reducer<vector_append<std::uint32_t>> local_next;
  reducer<vector_append<std::uint32_t>> local_still;
  claim_loop(ctx, local_hist, local_next, local_still);
  claimed out;
  out.next = local_next.collect(ctx);
  out.hist = local_hist.collect(ctx);
  out.still = local_still.collect(ctx);
  return out;
}

TEST(SegmentCache, ThreeReducersPerLeafMatchTheElision) {
  reducer<opadd<std::uint64_t>> hist;
  reducer<vector_append<std::uint32_t>> next;
  reducer<vector_append<std::uint32_t>> still;
  serial_context root;
  const claimed local = claim_twice(root, hist, next, still);
  const claimed expected{hist.take(), next.take(), still.take()};
  ASSERT_EQ(local, expected);
  ASSERT_FALSE(expected.next.empty());
  ASSERT_FALSE(expected.still.empty());
  for (const unsigned workers : {1u, 2u, 4u}) {
    scheduler sched(workers);
    for (int round = 0; round < 3; ++round) {
      const claimed got_local = sched.run(
          [&](context& ctx) { return claim_twice(ctx, hist, next, still); });
      const claimed got{hist.take(), next.take(), still.take()};
      EXPECT_EQ(got, expected) << "workers=" << workers << " round=" << round;
      EXPECT_EQ(got_local, expected) << "workers=" << workers << " round=" << round;
    }
  }
}

TEST(SegmentCache, OneWorkerChildHolderStartsFromThePrototype) {
  // The child's reducer access must not leave it with a cached segment
  // that holds the root's holder view.
  scheduler sched(1);
  holder<std::string> scratch(std::string("seed"));
  reducer<opadd<int>> sum;
  std::string child_saw;
  sched.run([&](context& ctx) {
    scratch.view(ctx) = "root";
    ctx.spawn([&](context& c) {
      sum.view(c) += 1;
      child_saw = scratch.view(c);
      scratch.view(c) = "child";
    });
    EXPECT_EQ(scratch.view(ctx), "seed");  // the continuation is a new strand
  });
  EXPECT_EQ(child_saw, "seed");
  EXPECT_EQ(sum.value(), 1);
}

class SegmentCacheAtP : public ::testing::TestWithParam<unsigned> {};

TEST_P(SegmentCacheAtP, UpdatesAfterACollectLand) {
  scheduler sched(GetParam());
  reducer<opadd<int>> kept;
  int collected = 0;
  int collected_in_call = 0;
  sched.run([&](context& ctx) {
    reducer<opadd<int>> local;
    ctx.spawn([&](context& c) {
      local.view(c) += 1;
      kept.view(c) += 1;
    });
    local.view(ctx) += 2;
    kept.view(ctx) += 2;
    ctx.sync();
    local.view(ctx) += 4;
    kept.view(ctx) += 4;
    collected = local.collect(ctx);
    // The same strand, after the collect: both updates must land.
    local.view(ctx) += 8;
    kept.view(ctx) += 8;
    collected += local.collect(ctx);
    ctx.call([&](context& f) {
      reducer<opadd<int>> mine;
      mine.view(f) += 16;
      kept.view(f) += 16;
      collected_in_call = mine.collect(f);
      mine.view(f) += 32;
      kept.view(f) += 32;
      collected_in_call += mine.collect(f);
    });
  });
  EXPECT_EQ(collected, 15);
  EXPECT_EQ(collected_in_call, 48);
  EXPECT_EQ(kept.value(), 63);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SegmentCacheAtP, ::testing::Values(1u, 2u, 4u));

// --- A throwing reduce: the fold ends, drops every view once, and its
// exception surfaces at the sync that ran it, like a child's. ---

/// Addition that throws when both operands are non-zero, counting throws.
struct throws_on_both {
  using value_type = int;
  static inline std::atomic<int> throws{0};
  static int identity() { return 0; }
  static void reduce(int& left, int&& right) {
    if (left != 0 && right != 0) {
      throws.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("reduce");
    }
    left += right;
  }
};

/// Leaves a view before a child, the child's view, and one after it: the
/// next fold of ctx's frame reduces the first two and throws.
void update_spawn_update(context& ctx, reducer<throws_on_both>& r) {
  r.view(ctx) += 1;
  ctx.spawn([&r](context& c) { r.view(c) += 1; });
  r.view(ctx) += 1;
}

class ThrowingReduce : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThrowingReduce, SurfacesAtTheSyncThatFolds) {
  scheduler sched(GetParam());
  {  // An explicit sync rethrows it; the next sync finds nothing to fold.
    throws_on_both::throws = 0;
    reducer<throws_on_both> r;
    bool caught = false;
    sched.run([&](context& ctx) {
      update_spawn_update(ctx, r);
      try {
        ctx.sync();
      } catch (const std::runtime_error&) {
        caught = true;
      }
      r.view(ctx) += 1;
      ctx.sync();
    });
    EXPECT_TRUE(caught);
    EXPECT_EQ(throws_on_both::throws.load(), 1);
    EXPECT_EQ(r.value(), 1);  // only the update made after the failed fold
  }
  {  // The root's implicit sync: run() rethrows it.
    throws_on_both::throws = 0;
    reducer<throws_on_both> r;
    EXPECT_THROW(sched.run([&](context& ctx) { update_spawn_update(ctx, r); }),
                 std::runtime_error);
    EXPECT_EQ(throws_on_both::throws.load(), 1);
    EXPECT_EQ(r.value(), 0);
  }
  {  // A called frame ends, then rethrows it from the call.
    throws_on_both::throws = 0;
    reducer<throws_on_both> r;
    bool caught = false;
    sched.run([&](context& ctx) {
      try {
        ctx.call([&](context& f) { update_spawn_update(f, r); });
      } catch (const std::runtime_error&) {
        caught = true;
      }
    });
    EXPECT_TRUE(caught);
    EXPECT_EQ(throws_on_both::throws.load(), 1);
    EXPECT_EQ(r.value(), 0);
  }
  {  // A spawned frame hands it to its parent as a child exception…
    throws_on_both::throws = 0;
    reducer<throws_on_both> r;
    bool caught = false;
    sched.run([&](context& ctx) {
      ctx.spawn([&](context& c) { update_spawn_update(c, r); });
      try {
        ctx.sync();
      } catch (const std::runtime_error&) {
        caught = true;
      }
    });
    EXPECT_TRUE(caught);
    EXPECT_EQ(throws_on_both::throws.load(), 1);
    EXPECT_EQ(r.value(), 0);
  }
  {  // …and the spawned body's own exception still wins.
    throws_on_both::throws = 0;
    reducer<throws_on_both> r;
    bool body_won = false;
    sched.run([&](context& ctx) {
      ctx.spawn([&](context& c) {
        update_spawn_update(c, r);
        throw std::logic_error("body");
      });
      try {
        ctx.sync();
      } catch (const std::logic_error&) {
        body_won = true;
      }
    });
    EXPECT_TRUE(body_won);
    EXPECT_EQ(throws_on_both::throws.load(), 1);
  }
  EXPECT_EQ(sched.run([](context&) { return 7; }), 7);  // still usable
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThrowingReduce, ::testing::Values(2u, 4u));

// A reduce that throws while the root absorbs its final views drops only
// its own view: every other view is still absorbed, and run() rethrows the
// body's exception if there is one, and otherwise the reduce's. At P = 1 a
// reducer has no view to absorb.
class ThrowingAbsorb : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThrowingAbsorb, KeepsTheOtherReducersUpdate) {
  scheduler sched(GetParam());
  for (const bool body_throws : {false, true}) {
    SCOPED_TRACE(body_throws ? "the body throws" : "the body returns");
    throws_on_both::throws = 0;
    // first's leftmost value is not zero, so absorbing the root's view of
    // it throws; the root touches it first, so its view is absorbed first.
    reducer<throws_on_both> first(1);
    reducer<throws_on_both> second;
    const std::int64_t live_before = alloc::slab_totals().live_blocks();
    try {
      sched.run([&](context& ctx) {
        first.view(ctx) += 1;
        second.view(ctx) += 1;
        if (body_throws) throw std::logic_error("body");
      });
      ADD_FAILURE() << "run() returned";
    } catch (const std::logic_error&) {
      EXPECT_TRUE(body_throws);
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(body_throws);
      EXPECT_STREQ(e.what(), "reduce");
    }
    EXPECT_EQ(throws_on_both::throws.load(), 1);
    EXPECT_EQ(first.value(), 1);  // the throwing reduce's view is dropped
    EXPECT_EQ(second.value(), 1);
    EXPECT_EQ(alloc::slab_totals().live_blocks(), live_before);
    EXPECT_EQ(sched.run([](context&) { return 7; }), 7);  // still usable
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThrowingAbsorb, ::testing::Values(2u, 4u));

// --- Multiple reducers in one computation. ---

TEST(Reducer, IndependentReducersDoNotInterfere) {
  scheduler sched(4);
  reducer<opadd<std::int64_t>> sum;
  reducer<opmax<int>> biggest;
  reducer<vector_append<int>> evens;
  sched.run([&](context& ctx) {
    rt::parallel_for(ctx, 0, 10000, [&](context& leaf, int i) {
      sum.view(leaf) += i;
      if (i % 2 == 0) evens.view(leaf).push_back(i);
      auto& m = biggest.view(leaf);
      if (i > m) m = i;
    }, 32);
  });
  EXPECT_EQ(sum.value(), 10000LL * 9999 / 2);
  EXPECT_EQ(biggest.value(), 9999);
  ASSERT_EQ(evens.value().size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(evens.value()[i], 2 * i);
}

// --- Named reducers and reducer_ostream. ---

TEST(NamedReducers, CilkStyleAliasesWork) {
  scheduler sched(4);
  reducer_opadd<std::int64_t> sum;
  reducer_max<int> peak;
  reducer_min_index<int, int> lowest;
  sched.run([&](context& ctx) {
    rt::parallel_for(ctx, 0, 1000, [&](context& leaf, int i) {
      sum.view(leaf) += i;
      auto& m = peak.view(leaf);
      if (i > m) m = i;
      auto& mi = lowest.view(leaf);
      const int key = (i * 37) % 1000;
      if (!mi.valid || key < mi.value) {
        mi = {.value = key, .index = i, .valid = true};
      }
    }, 16);
  });
  EXPECT_EQ(sum.value(), 999LL * 1000 / 2);
  EXPECT_EQ(peak.value(), 999);
  EXPECT_TRUE(lowest.value().valid);
  EXPECT_EQ(lowest.value().value, 0);
  EXPECT_EQ((lowest.value().index * 37) % 1000, 0);
}

TEST(ReducerOstream, OutputAppearsInSerialOrder) {
  std::ostringstream sink;
  reducer_ostream out(sink);
  scheduler sched(4);
  for (int round = 0; round < 3; ++round) {
    sched.run([&](context& ctx) {
      rt::parallel_for(ctx, 0, 50, [&](context& leaf, int i) {
        out.view(leaf) << i << ";";
      }, 4);
    });
    out.flush();
    std::string expected;
    for (int i = 0; i < 50; ++i) expected += std::to_string(i) + ";";
    EXPECT_EQ(sink.str(), expected) << "round " << round;
    sink.str("");
  }
}

TEST(NamedReducers, StatsAccumulatorReducer) {
  // Parallel Welford statistics: count/min/max exact, mean/variance within
  // floating-point reassociation tolerance of the serial pass.
  scheduler sched(4);
  reducer<stats_accumulate> stats;
  constexpr int n = 50000;
  sched.run([&](context& ctx) {
    rt::parallel_for(ctx, 0, n, [&](context& leaf, int i) {
      stats.view(leaf).add(std::sin(static_cast<double>(i)));
    }, 64);
  });
  accumulator serial;
  for (int i = 0; i < n; ++i) serial.add(std::sin(static_cast<double>(i)));
  EXPECT_EQ(stats.value().count(), serial.count());
  EXPECT_DOUBLE_EQ(stats.value().min(), serial.min());
  EXPECT_DOUBLE_EQ(stats.value().max(), serial.max());
  EXPECT_NEAR(stats.value().mean(), serial.mean(), 1e-9);
  EXPECT_NEAR(stats.value().variance(), serial.variance(), 1e-6);
}

// --- Serial engines see the leftmost value directly. ---

TEST(Reducer, SerialEngineViewsAreTheValueItself) {
  reducer<opadd<int>> sum(10);
  serial_context root;
  sum.view(root) += 5;
  root.spawn([&](serial_context& c) { sum.view(c) += 7; });
  EXPECT_EQ(sum.value(), 22);  // immediately visible: no views were split
}

// --- Holder. ---

TEST(Holder, ScratchIsIsolatedPerStrand) {
  scheduler sched(4);
  holder<std::vector<int>> scratch;
  reducer<opadd<std::int64_t>> checksum;
  sched.run([&](context& ctx) {
    rt::parallel_for(ctx, 0, 1000, [&](context& leaf, int i) {
      auto& buf = scratch.view(leaf);
      buf.clear();  // safe: private to this strand
      for (int k = 0; k < 10; ++k) buf.push_back(i + k);
      std::int64_t s = 0;
      for (int v : buf) s += v;
      checksum.view(leaf) += s;
    }, 16);
  });
  // Each iteration contributes 10i + 45.
  EXPECT_EQ(checksum.value(), 10LL * (999 * 1000 / 2) + 45LL * 1000);
}

TEST(Holder, KeepLastObservesSeriallyLastWrite) {
  // keep_last: after the run, the holder holds what the serially last
  // strand wrote — regardless of actual execution order.
  scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    holder<int, holder_policy::keep_last> h;
    sched.run([&](context& ctx) {
      rt::parallel_for(ctx, 0, 100, [&](context& leaf, int i) {
        h.view(leaf) = i;  // each strand writes its index
      }, 4);
    });
    EXPECT_EQ(h.last_value(), 99) << "round " << round;
  }
}

TEST(Holder, KeepLastThroughSpawns) {
  for (const unsigned workers : {1u, 3u}) {
    scheduler sched(workers);
    holder<std::string, holder_policy::keep_last> h;
    sched.run([&](context& ctx) {
      ctx.spawn([&](context& c) { h.view(c) = "child1"; });
      ctx.spawn([&](context& c) { h.view(c) = "child2"; });
      h.view(ctx) = "continuation";  // serially last updater of this frame
      ctx.sync();
    });
    EXPECT_EQ(h.last_value(), "continuation") << "workers=" << workers;
  }
}

TEST(Holder, PrototypeSeedsFreshViews) {
  // Every strand starts from the prototype, even after a serially earlier
  // strand wrote its own view: on one worker, where each child runs to
  // completion before its continuation, as on two and four. The child may
  // leave the holder untouched: its spawn still ends the strand before it.
  for (const bool child_touches : {true, false}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      scheduler sched(workers);
      holder<std::string> h(std::string("seed"));
      std::atomic<int> seeded{0};
      int continuations_seeded = 0;
      sched.run([&](context& ctx) {
        for (int i = 0; i < 20; ++i) {
          if (child_touches) {
            ctx.spawn([&](context& c) {
              std::string& v = h.view(c);
              if (v == "seed") seeded.fetch_add(1);
              v = "child";
            });
          } else {
            ctx.spawn([](context&) {});
          }
          // The continuation after a spawn is a new strand too.
          std::string& v = h.view(ctx);
          if (v == "seed") ++continuations_seeded;
          v = "continuation";
        }
        ctx.sync();
      });
      EXPECT_EQ(seeded.load(), child_touches ? 20 : 0)
          << "workers=" << workers << " child_touches=" << child_touches;
      EXPECT_EQ(continuations_seeded, 20)
          << "workers=" << workers << " child_touches=" << child_touches;
    }
  }
}

TEST(Holder, ChildViewsKeepReducerOrderOnOneWorker) {
  // On one worker a child's holder view waits in a child slot of its
  // parent. In the root that slot ends the shared reducer segment, so a
  // reducer's updates span several root segments; in a called frame they
  // stay in one, which collect() takes. Both keep serial order.
  scheduler sched(1);
  holder<int> scratch;
  reducer<list_append<int>> order;
  std::list<int> local_order;
  auto body = [&](context& ctx, reducer<list_append<int>>& r) {
    for (int i = 0; i < 10; ++i) {
      ctx.spawn([&, i](context& c) {
        scratch.view(c) = i;
        r.view(c).push_back(2 * i);
      });
      r.view(ctx).push_back(2 * i + 1);
    }
    ctx.sync();
  };
  sched.run([&](context& ctx) {
    body(ctx, order);
    ctx.call([&](context& frame) {
      reducer<list_append<int>> local;
      body(frame, local);
      local_order = local.collect(frame);
    });
  });
  std::list<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order.value(), expected);
  EXPECT_EQ(local_order, expected);
}

}  // namespace
}  // namespace cilkpp::hyper
