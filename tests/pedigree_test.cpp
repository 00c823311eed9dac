// Tests for src/pedigree: rank-list semantics, the hash chain, cross-engine
// strand identity (runtime vs elision vs both cilkscreen engines vs replay),
// the pedigree-seeded DPRNG, and single-strand replay pruning.
#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cilkscreen/screen_context.hpp"
#include "pedigree/dprng.hpp"
#include "pedigree/pedigree.hpp"
#include "pedigree/replay.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"

namespace {

using namespace cilkpp;

// --- The pedigree value type. ---

TEST(PedigreeType, ToStringParseRoundtrip) {
  for (const ped::pedigree& p :
       {ped::pedigree{}, ped::pedigree{{0}}, ped::pedigree{{0, 0}},
        ped::pedigree{{3, 1, 4, 1, 5, 9, 2, 6}},
        ped::pedigree{{0xffffffffffffffffULL, 0}}}) {
    EXPECT_EQ(ped::parse(ped::to_string(p)), p) << ped::to_string(p);
  }
}

TEST(PedigreeType, ParseAcceptsBareAndSpacedForms) {
  const ped::pedigree want{{1, 2, 3}};
  EXPECT_EQ(ped::parse("<1,2,3>"), want);
  EXPECT_EQ(ped::parse("1,2,3"), want);
  EXPECT_EQ(ped::parse("1 2 3"), want);
  EXPECT_EQ(ped::parse("< 1, 2, 3 >"), want);
}

TEST(PedigreeType, ParseMalformedIsEmpty) {
  EXPECT_TRUE(ped::parse("").empty());
  EXPECT_TRUE(ped::parse("<>").empty());
  EXPECT_TRUE(ped::parse("nonsense").empty());
  EXPECT_TRUE(ped::parse("<1,x,3>").empty());
}

TEST(PedigreeType, BeforeIsSerialStrandOrder) {
  // A frame's strand at rank r runs before the child it spawns at r, which
  // runs before the continuation at r+1: <0> < <0,0> < <0,5> < <1>.
  const ped::pedigree a{{0}}, child{{0, 0}}, deep{{0, 5}}, cont{{1}};
  EXPECT_TRUE(ped::before(a, child));
  EXPECT_TRUE(ped::before(child, deep));
  EXPECT_TRUE(ped::before(deep, cont));
  EXPECT_FALSE(ped::before(cont, a));
  EXPECT_FALSE(ped::before(a, a));  // irreflexive
}

TEST(PedigreeType, IsPrefix) {
  const ped::pedigree root{{0}}, sub{{0, 3}}, other{{1}};
  EXPECT_TRUE(ped::is_prefix(ped::pedigree{}, root));
  EXPECT_TRUE(ped::is_prefix(root, sub));
  EXPECT_TRUE(ped::is_prefix(sub, sub));
  EXPECT_FALSE(ped::is_prefix(sub, root));
  EXPECT_FALSE(ped::is_prefix(other, sub));
}

// --- proc_pedigrees: the analyzers' bookkeeping obeys the rank rules. ---

TEST(ProcPedigrees, RankRulesMatchTheSpec) {
  ped::proc_pedigrees peds;
  EXPECT_EQ(peds.strand(0), (ped::pedigree{{0}}));  // root's first strand
  peds.on_child(0, 1);                              // spawn or call
  EXPECT_EQ(peds.strand(1), (ped::pedigree{{0, 0}}));  // child extends <0>
  EXPECT_EQ(peds.strand(0), (ped::pedigree{{1}}));     // continuation
  peds.on_sync(0);
  EXPECT_EQ(peds.strand(0), (ped::pedigree{{2}}));  // post-sync strand
  peds.on_child(0, 2);
  EXPECT_EQ(peds.strand(2), (ped::pedigree{{2, 0}}));
}

TEST(ProcPedigrees, HashShortcutsMatchMaterializedHash) {
  ped::proc_pedigrees peds;
  peds.on_child(0, 1);
  peds.on_child(1, 2);
  peds.on_sync(1);
  for (std::uint32_t p : {0u, 1u, 2u}) {
    EXPECT_EQ(peds.strand_hash(p), ped::hash(peds.strand(p)));
    EXPECT_EQ(peds.strand_hash_at(p, 7), ped::hash(peds.strand_at(p, 7)));
  }
}

// --- The DPRNG. ---

TEST(Dprng, StreamMatchesProcPedigreeDraws) {
  ped::proc_pedigrees peds;
  peds.on_child(0, 1);
  ped::dprng_stream s(peds.strand(1));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.next(), peds.draw(1));
}

TEST(Dprng, DrawAtIsRandomAccess) {
  ped::dprng_stream a(ped::pedigree{{0, 2, 1}});
  ped::dprng_stream b(ped::pedigree{{0, 2, 1}});
  std::vector<std::uint64_t> seq;
  for (int i = 0; i < 10; ++i) seq.push_back(a.next());
  for (int i = 9; i >= 0; --i) {
    EXPECT_EQ(b.draw_at(static_cast<std::uint64_t>(i) + 1), seq[i]);
  }
}

TEST(Dprng, UserSeedForksTheStream) {
  const ped::pedigree p{{0, 1}};
  ped::dprng_stream plain(p);
  ped::dprng_stream seeded(p, 42);
  EXPECT_NE(plain.next(), seeded.next());
}

TEST(Dprng, BelowIsInRangeAndUnitIsInUnitInterval) {
  ped::dprng_stream s(ped::pedigree{{5}});
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(s.below(17), 17u);
    const double u = s.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

#if CILKPP_PEDIGREE_ENABLED

// --- Cross-engine strand identity. ---

// A fixed spawn/call/sync tree with parallel_for loops, generic over the
// engine context. Records (strand_id, first draw) at every visit, in every
// body(ctx, i) iteration and on the strand after each loop; order of
// collection is schedule-dependent under the runtime, so comparisons sort
// first. Every loop passes an explicit grain except the one-iteration
// loops, whose default grain is 1 on every engine at every worker count.
template <typename Ctx>
void walk(Ctx& ctx, int depth,
          std::vector<std::pair<std::uint64_t, std::uint64_t>>& out,
          std::mutex& mu) {
  const auto note = [&](Ctx& c) {
    std::lock_guard lock(mu);
    out.emplace_back(c.strand_id(), c.dprng_draw());
  };
  note(ctx);
  if (depth == 0) return;
  ctx.spawn([&, depth](Ctx& c) { walk(c, depth - 1, out, mu); });
  ctx.call([&, depth](Ctx& c) { walk(c, depth - 1, out, mu); });
  ctx.sync();
  note(ctx);
  if (depth % 2 == 0) return;  // loops at every other level keep it small
  // Grain 1 and 3 split; grain 8 exceeds the range (one grain, no split).
  // 40 iterations at grain 1 also halve before the body(i) leaf burst.
  for (const std::uint64_t grain : {1u, 3u, 8u}) {
    parallel_for(ctx, 0, 5, [&](Ctx& c, int) { note(c); }, grain);
    note(ctx);
    parallel_for(ctx, 0, 5, [](int) {}, grain);
    note(ctx);
    parallel_for(ctx, 0, 40, [](int) {}, grain);
    note(ctx);
  }
  parallel_for(ctx, 0, 4, [](int) {}, 8);  // body(i) within one grain
  note(ctx);
  parallel_for(ctx, 0, 1, [](int) {});
  note(ctx);
  parallel_for(ctx, 0, 1, [&](Ctx& c, int) { note(c); });
  note(ctx);
}

using id_draws = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

id_draws sorted(id_draws v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CrossEngine, AllEnginesAssignIdenticalStrandIdsAndDraws) {
  constexpr int depth = 5;
  std::mutex mu;

  id_draws serial;
  {
    rt::serial_context ctx;
    walk(ctx, depth, serial, mu);
  }
  ASSERT_FALSE(serial.empty());
  serial = sorted(std::move(serial));

  for (unsigned workers : {1u, 4u}) {
    id_draws rt_ids;
    rt::scheduler sched(workers);
    sched.run([&](rt::context& ctx) { walk(ctx, depth, rt_ids, mu); });
    EXPECT_EQ(sorted(std::move(rt_ids)), serial) << workers << " workers";
  }

  {
    id_draws ids;
    screen::detector d;
    screen::run_under_detector(
        d, [&](screen::screen_context& ctx) { walk(ctx, depth, ids, mu); });
    EXPECT_EQ(sorted(std::move(ids)), serial) << "SP-bags engine";
  }
  {
    id_draws ids;
    screen::order_detector d;
    screen::run_under_detector(
        d, [&](screen::order_context& ctx) { walk(ctx, depth, ids, mu); });
    EXPECT_EQ(sorted(std::move(ids)), serial) << "SP-order engine";
  }
  {
    id_draws ids;
    ped::replay_context ctx;  // full replay, no pruning
    walk(ctx, depth, ids, mu);
    EXPECT_EQ(sorted(std::move(ids)), serial) << "replay engine";
  }
}

TEST(CrossEngine, RuntimePedigreeHashIsStrandId) {
  rt::scheduler sched(2);
  sched.run([](rt::context& ctx) {
    EXPECT_EQ(ped::hash(ctx.pedigree()), ctx.strand_id());
    ctx.spawn([](rt::context& c) {
      EXPECT_EQ(ped::hash(c.pedigree()), c.strand_id());
    });
    ctx.sync();
    EXPECT_EQ(ped::hash(ctx.pedigree()), ctx.strand_id());
  });
}

TEST(CrossEngine, ScreenPedigreeMatchesRuntimePedigree) {
  // The same tree position gets the same rank list under the runtime and
  // under a screen engine — compare materialized pedigrees, not just hashes.
  std::vector<ped::pedigree> rt_leaves;
  std::mutex mu;
  rt::scheduler sched(1);
  sched.run([&](rt::context& ctx) {
    ctx.spawn([&](rt::context& c) {
      std::lock_guard lock(mu);
      rt_leaves.push_back(c.pedigree());
    });
    ctx.spawn([&](rt::context& c) {
      std::lock_guard lock(mu);
      rt_leaves.push_back(c.pedigree());
    });
    ctx.sync();
  });

  std::vector<ped::pedigree> scr_leaves;
  screen::detector d;
  screen::run_under_detector(d, [&](screen::screen_context& ctx) {
    ctx.spawn(
        [&](screen::screen_context& c) { scr_leaves.push_back(c.pedigree()); });
    ctx.spawn(
        [&](screen::screen_context& c) { scr_leaves.push_back(c.pedigree()); });
    ctx.sync();
  });

  auto order = [](const ped::pedigree& a, const ped::pedigree& b) {
    return ped::before(a, b);
  };
  std::sort(rt_leaves.begin(), rt_leaves.end(), order);
  std::sort(scr_leaves.begin(), scr_leaves.end(), order);
  EXPECT_EQ(rt_leaves, scr_leaves);
}

// --- Single-strand replay. ---

// The replay walker: spawn-heavy tree with per-frame work accounting and a
// noted write at every leaf.
void replay_tree(ped::replay_context& ctx, int depth, std::uint64_t* sink) {
  ctx.account(1);
  if (depth == 0) {
    ctx.note_write(sink, sizeof *sink, "leaf");
    *sink += 1;
    return;
  }
  for (int i = 0; i < 2; ++i) {
    ctx.spawn([&, depth](ped::replay_context& c) {
      replay_tree(c, depth - 1, sink);
    });
  }
  ctx.sync();
}

TEST(Replay, FullReplayExecutesEverything) {
  std::uint64_t sink = 0;
  ped::replay_context ctx;
  replay_tree(ctx, 6, &sink);
  EXPECT_EQ(sink, 64u);  // all 2^6 leaves ran
  EXPECT_TRUE(ctx.reached());  // no target: trivially reached
  EXPECT_EQ(ctx.frames_skipped(), 0u);
}

TEST(Replay, PrunedReplayReachesTargetAndSkipsOffPathWork) {
  // Capture a deep leaf's pedigree from a full replay…
  ped::pedigree target;
  std::uint64_t sink = 0;
  std::uint64_t full_work = 0;
  {
    ped::replay_context full;
    full.set_write_observer(
        [&](const ped::replay_context::write_event& e) { target = e.ped; });
    replay_tree(full, 6, &sink);
    full_work = full.executed_work();
  }
  ASSERT_FALSE(target.empty());

  // …then replay only that strand: it must be reached, with most of the
  // tree skipped and strictly less work executed.
  sink = 0;
  ped::replay_context pruned(target);
  replay_tree(pruned, 6, &sink);
  EXPECT_TRUE(pruned.reached());
  EXPECT_EQ(sink, 1u);  // exactly the target leaf wrote
  EXPECT_GT(pruned.frames_skipped(), 0u);
  EXPECT_LT(pruned.executed_work(), full_work);
}

TEST(Replay, ReplayedStrandKeepsItsPedigreeAndDraws) {
  // The pruned replay must assign the target strand the SAME pedigree and
  // the same dprng stream as the full run — pruning consumes ranks for
  // skipped children without renaming anything.
  ped::pedigree target;
  std::uint64_t full_draw = 0;
  std::uint64_t sink = 0;
  {
    ped::replay_context full;
    full.set_write_observer([&](const ped::replay_context::write_event& e) {
      target = e.ped;
      full_draw = ped::dprng_stream(e.ped).next();
    });
    replay_tree(full, 5, &sink);
  }
  ped::pedigree replayed;
  std::uint64_t replay_draw = 0;
  ped::replay_context pruned(target);
  pruned.set_write_observer([&](const ped::replay_context::write_event& e) {
    replayed = e.ped;
    replay_draw = ped::dprng_stream(e.ped).next();
  });
  sink = 0;
  replay_tree(pruned, 5, &sink);
  EXPECT_EQ(replayed, target);
  EXPECT_EQ(replay_draw, full_draw);
}

TEST(Replay, TargetNotInProgramIsNotReached) {
  std::uint64_t sink = 0;
  ped::replay_context ctx(ped::pedigree{{99, 99, 99}});
  replay_tree(ctx, 4, &sink);
  EXPECT_FALSE(ctx.reached());
  EXPECT_EQ(sink, 0u);  // nothing on that spine exists
}

#endif  // CILKPP_PEDIGREE_ENABLED

}  // namespace
