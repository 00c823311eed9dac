// Tests for cilk::lint — the lock-discipline analyzer (src/lint).
//
// The engine-facing tests run TYPED over both SP engines (SP-bags detector
// and the SP-order engine): the analyzer's verdicts must agree wherever
// both engines are exact, and the serial-ABBA suppression in particular
// must hold under BOTH (2-lock cycles always have the current strand as one
// endpoint, so even SP-bags' conservative pair predicate never fires).
// Analyzer-direct and rendering tests use a synthetic strand id.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "hyper/reducers.hpp"
#include "lint/analyzer.hpp"
#include "lint/mutex_census.hpp"
#include "lint/report.hpp"
#include "runtime/mutex.hpp"

namespace cilkpp {
namespace {

// --- Analyzer in isolation (synthetic strands; compiled in all configs) ---

const auto always_parallel = [](const int&) { return true; };
const auto never_parallel = [](const int&) { return false; };
const auto pairs_parallel = [](const int&, const int&) { return true; };
const auto pairs_serial = [](const int&, const int&) { return false; };

TEST(LintAnalyzer, TwoLockCycleReportedWithParallelStrands) {
  lint::analyzer<int> la;
  la.on_acquire(1, 1, 0, always_parallel, pairs_parallel);
  la.on_acquire(1, 1, 1, always_parallel, pairs_parallel);  // edge 0 -> 1
  la.on_release(1, 1);
  la.on_release(1, 0);
  la.on_acquire(2, 2, 1, always_parallel, pairs_parallel);
  la.on_acquire(2, 2, 0, always_parallel, pairs_parallel);  // closes 1 -> 0
  la.on_release(2, 0);
  la.on_release(2, 1);
  la.finish();
  ASSERT_EQ(la.records().size(), 1u);
  const lint::lint_record& r = la.records().front();
  EXPECT_EQ(r.kind, lint::lint_kind::deadlock_cycle);
  EXPECT_EQ(r.cycle, (std::vector<screen::lock_id>{0, 1}));
  EXPECT_EQ(r.first_proc, 1u);
  EXPECT_EQ(r.second_proc, 2u);
}

TEST(LintAnalyzer, SerialStrandsSuppressTwoLockCycle) {
  lint::analyzer<int> la;
  la.on_acquire(1, 1, 0, never_parallel, pairs_serial);
  la.on_acquire(1, 1, 1, never_parallel, pairs_serial);
  la.on_release(1, 1);
  la.on_release(1, 0);
  la.on_acquire(2, 2, 1, never_parallel, pairs_serial);
  la.on_acquire(2, 2, 0, never_parallel, pairs_serial);
  la.on_release(2, 0);
  la.on_release(2, 1);
  la.finish();
  EXPECT_TRUE(la.clean());
  EXPECT_GE(la.stats().suppressed_serial, 1u);
  EXPECT_EQ(la.stats().suppressed_gate, 0u);
}

TEST(LintAnalyzer, SerialPairSuppressesThreeLockCycle) {
  // Three distinct strands build a -> b -> c -> a. Each remembered site is
  // parallel with the CURRENT strand, but the two remembered sites are
  // serially ordered with each other (pair() = false): no schedule
  // deadlocks, so nothing may be reported.
  lint::analyzer<int> la;
  la.on_acquire(1, 1, 0, always_parallel, pairs_serial);
  la.on_acquire(1, 1, 1, always_parallel, pairs_serial);  // 0 -> 1
  la.on_release(1, 1);
  la.on_release(1, 0);
  la.on_acquire(2, 2, 1, always_parallel, pairs_serial);
  la.on_acquire(2, 2, 2, always_parallel, pairs_serial);  // 1 -> 2
  la.on_release(2, 2);
  la.on_release(2, 1);
  la.on_acquire(3, 3, 2, always_parallel, pairs_serial);
  la.on_acquire(3, 3, 0, always_parallel, pairs_serial);  // closes 2 -> 0
  la.on_release(3, 0);
  la.on_release(3, 2);
  la.finish();
  EXPECT_TRUE(la.clean());
  EXPECT_GE(la.stats().suppressed_serial, 1u);
}

TEST(LintAnalyzer, CycleAtMaxLengthReportedBeyondItNot) {
  const auto ring = [](unsigned n) {
    lint::analyzer<int> la;
    for (unsigned i = 0; i < n; ++i) {
      const int s = static_cast<int>(i) + 1;
      la.on_acquire(s, s, i, always_parallel, pairs_parallel);
      la.on_acquire(s, s, (i + 1) % n, always_parallel, pairs_parallel);
      la.on_release(s, (i + 1) % n);
      la.on_release(s, i);
    }
    la.finish();
    return la.records().size();
  };
  EXPECT_EQ(ring(lint::analyzer<int>::max_cycle_locks), 1u);
  EXPECT_EQ(ring(lint::analyzer<int>::max_cycle_locks + 1), 0u);
}

TEST(LintAnalyzer, EdgeSiteCapacitySpillsAreCounted) {
  lint::analyzer<int> la;
  const std::size_t cap = lint::analyzer<int>::edge_site_capacity;
  for (std::size_t i = 0; i < cap + 2; ++i) {
    const int s = static_cast<int>(i) + 1;
    la.on_acquire(s, static_cast<screen::proc_id>(s), 0, never_parallel,
                  pairs_serial);
    la.on_acquire(s, static_cast<screen::proc_id>(s), 1, never_parallel,
                  pairs_serial);
    la.on_release(static_cast<screen::proc_id>(s), 1);
    la.on_release(static_cast<screen::proc_id>(s), 0);
  }
  la.finish();
  EXPECT_EQ(la.stats().edge_sites, cap);
  EXPECT_EQ(la.stats().edge_spills, 2u);
  EXPECT_EQ(la.stats().edges, 1u);
}

TEST(LintAnalyzer, RepeatedViolationsDeduplicateToOneRecord) {
  lint::analyzer<int> la;
  la.on_acquire(1, 1, 0, never_parallel, pairs_serial);
  la.on_boundary(lint::boundary::spawn, 1);
  la.on_boundary(lint::boundary::spawn, 1);  // same site again
  la.on_release(1, 0);
  la.on_unmatched_release(1, 0);
  la.on_unmatched_release(1, 0);
  la.finish();
  ASSERT_EQ(la.records().size(), 2u);
  EXPECT_EQ(la.records()[0].kind, lint::lint_kind::lock_across_spawn);
  EXPECT_EQ(la.records()[1].kind, lint::lint_kind::unmatched_release);
  EXPECT_EQ(la.stats().boundaries_checked, 2u);
}

// --- Rendering (hand-built records against a hand-built tree) ---

TEST(LintReport, MessageShapes) {
  screen::proc_tree t;
  const screen::proc_id root = t.add_root();
  const screen::proc_id s1 = t.add_spawn(root);
  const screen::proc_id s2 = t.add_spawn(root);

  lint::lint_record dl;
  dl.kind = lint::lint_kind::deadlock_cycle;
  dl.cycle = {0, 1};
  dl.lock = 0;
  dl.first_proc = s1;
  dl.second_proc = s2;
  EXPECT_EQ(lint::render_lint(dl, t),
            "potential deadlock: lock 0 -> lock 1 -> lock 0 "
            "between root/spawn#1 and root/spawn#2");

  lint::lint_record across;
  across.kind = lint::lint_kind::lock_across_sync;
  across.lock = 3;
  across.first_proc = s1;
  across.second_proc = root;
  EXPECT_EQ(lint::render_lint(across, t),
            "lock 3 acquired by root/spawn#1 still held at sync in root");

  lint::lint_record rel;
  rel.kind = lint::lint_kind::unmatched_release;
  rel.lock = 2;
  rel.first_proc = s2;
  rel.second_proc = s2;
  EXPECT_EQ(lint::render_lint(rel, t),
            "lock 2 released by root/spawn#2 without a matching acquisition");

  lint::lint_record esc;
  esc.kind = lint::lint_kind::view_escape;
  esc.address = 0x10;
  esc.first_proc = s1;
  esc.second_proc = root;
  esc.first_label = "sum";
  EXPECT_EQ(lint::render_lint(esc, t),
            "reducer view (sum) at 0x10 obtained by root/spawn#1 "
            "observed raw by root");
}

// --- The analyzer attached to a real SP engine, typed over both ---

template <typename D>
class LintEngine : public ::testing::Test {
 protected:
  using Ctx = screen::basic_screen_context<D>;
  using Mutex = screen::basic_screen_mutex<D>;
};
using Engines = ::testing::Types<screen::detector, screen::order_detector>;
TYPED_TEST_SUITE(LintEngine, Engines);

TYPED_TEST(LintEngine, ParallelAbbaReportsOneCycleWithBothEndpoints) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d), b(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      a.lock(c); b.lock(c); b.unlock(c); a.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      b.lock(c); a.lock(c); a.unlock(c); b.unlock(c);
    });
    ctx.sync();
  });
  la.finish();
  ASSERT_EQ(la.records().size(), 1u);
  const lint::lint_record& r = la.records().front();
  EXPECT_EQ(r.kind, lint::lint_kind::deadlock_cycle);
  EXPECT_EQ(r.cycle, (std::vector<screen::lock_id>{a.id(), b.id()}));
  // Both endpoints carry spawn-path provenance.
  const std::string msg = lint::render_lint(r, d.procedures());
  EXPECT_NE(msg.find("between root/spawn#1 and root/spawn#2"),
            std::string::npos)
      << msg;
  EXPECT_FALSE(d.found_races());
}

TYPED_TEST(LintEngine, SerialAbbaIsNotReported) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d), b(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      a.lock(c); b.lock(c); b.unlock(c); a.unlock(c);
    });
    ctx.sync();  // orders the two acquisition strands
    ctx.spawn([&](Ctx& c) {
      b.lock(c); a.lock(c); a.unlock(c); b.unlock(c);
    });
    ctx.sync();
  });
  la.finish();
  EXPECT_TRUE(la.clean()) << lint::render_lints(la.records(), d.procedures());
  EXPECT_GE(la.stats().suppressed_serial, 1u);
}

TYPED_TEST(LintEngine, GateLockSuppressesParallelAbba) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex g(d), a(d), b(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      g.lock(c); a.lock(c); b.lock(c);
      b.unlock(c); a.unlock(c); g.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      g.lock(c); b.lock(c); a.lock(c);
      a.unlock(c); b.unlock(c); g.unlock(c);
    });
    ctx.sync();
  });
  la.finish();
  EXPECT_TRUE(la.clean()) << lint::render_lints(la.records(), d.procedures());
  EXPECT_GE(la.stats().suppressed_gate, 1u);
}

TYPED_TEST(LintEngine, ThreeLockCycleAcrossThreeStrands) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d), b(d), c(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& s) {
      a.lock(s); b.lock(s); b.unlock(s); a.unlock(s);
    });
    ctx.spawn([&](Ctx& s) {
      b.lock(s); c.lock(s); c.unlock(s); b.unlock(s);
    });
    ctx.spawn([&](Ctx& s) {
      c.lock(s); a.lock(s); a.unlock(s); c.unlock(s);
    });
    ctx.sync();
  });
  la.finish();
  ASSERT_EQ(la.records().size(), 1u);
  const lint::lint_record& r = la.records().front();
  EXPECT_EQ(r.kind, lint::lint_kind::deadlock_cycle);
  EXPECT_EQ(r.cycle, (std::vector<screen::lock_id>{a.id(), b.id(), c.id()}));
}

TYPED_TEST(LintEngine, LockHeldAcrossSpawnAndSync) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    a.lock(ctx);
    ctx.spawn([](Ctx&) {});
    ctx.sync();
    a.unlock(ctx);
  });
  la.finish();
  ASSERT_EQ(la.records().size(), 2u);
  EXPECT_EQ(la.records()[0].kind, lint::lint_kind::lock_across_spawn);
  EXPECT_EQ(la.records()[1].kind, lint::lint_kind::lock_across_sync);
  EXPECT_EQ(la.records()[0].lock, a.id());
}

TYPED_TEST(LintEngine, LockHeldAroundAOneGrainLoopCrossesNothing) {
  // A body(i) range within one grain runs inline on the caller's strand,
  // as on the runtime: no loop frame, so no spawn or sync under the lock.
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d);
  int iterations = 0;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    a.lock(ctx);
    screen::parallel_for(ctx, 0, 1, [&](int) { ++iterations; });
    a.unlock(ctx);
  });
  la.finish();
  EXPECT_EQ(iterations, 1);
  EXPECT_TRUE(la.clean()) << lint::render_lints(la.records(), d.procedures());
  EXPECT_EQ(d.stats().procedures, 1u);  // the root only
}

TYPED_TEST(LintEngine, LockHeldAroundASplitLoop) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    a.lock(ctx);
    screen::parallel_for(ctx, 0, 8, [](int) {}, 2);
    a.unlock(ctx);
  });
  la.finish();
  ASSERT_EQ(la.records().size(), 2u)
      << lint::render_lints(la.records(), d.procedures());
  EXPECT_EQ(la.records()[0].kind, lint::lint_kind::lock_across_spawn);
  EXPECT_EQ(la.records()[1].kind, lint::lint_kind::lock_across_sync);
  EXPECT_EQ(la.records()[0].lock, a.id());
}

TYPED_TEST(LintEngine, SpawnedChildAbandonsItsLock) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { a.lock(c); });  // returns still holding a
    ctx.sync();
  });
  la.finish();
  // The abandoned lock is ALSO still held at the parent's sync; both render.
  ASSERT_EQ(la.records().size(), 2u);
  EXPECT_EQ(la.records()[0].kind, lint::lint_kind::lock_across_sync);
  EXPECT_EQ(la.records()[1].kind, lint::lint_kind::abandoned_lock);
  EXPECT_EQ(la.records()[1].lock, a.id());
  const std::string msg = lint::render_lint(la.records()[1], d.procedures());
  EXPECT_NE(msg.find("root/spawn#1"), std::string::npos) << msg;
}

TYPED_TEST(LintEngine, DoubleReleaseIsALintNotAnAbort) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  typename TestFixture::Mutex a(d);
  screen::run_under_detector(d, [&](Ctx& ctx) {
    a.lock(ctx);
    a.unlock(ctx);
    a.unlock(ctx);  // previously CILKPP_UNREACHABLE in both engines
  });
  la.finish();
  ASSERT_EQ(la.records().size(), 1u);
  EXPECT_EQ(la.records()[0].kind, lint::lint_kind::unmatched_release);
  EXPECT_EQ(la.records()[0].lock, a.id());
  EXPECT_EQ(d.stats().unmatched_releases, 1u);
  EXPECT_EQ(la.stats().acquires, 1u);
  EXPECT_EQ(la.stats().releases, 1u);
}

TYPED_TEST(LintEngine, ViewReferenceEscapingItsStrand) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  hyper::reducer_opadd<int> sum;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    ctx.sync();
    // Serially AFTER the fetching strand: a cached view reference would
    // alias a view the runtime may have swapped away — an escape, not a
    // race (the engines stay quiet; the lint layer reports).
    ctx.note_read(&sum.value(), sizeof(int), "cached readback");
  });
  la.finish();
  EXPECT_FALSE(d.found_races());
  ASSERT_EQ(la.records().size(), 1u);
  const lint::lint_record& r = la.records().front();
  EXPECT_EQ(r.kind, lint::lint_kind::view_escape);
  EXPECT_EQ(r.second_label, "cached readback");
  const std::string msg = lint::render_lint(r, d.procedures());
  EXPECT_NE(msg.find("obtained by root/spawn#1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("observed raw by root"), std::string::npos) << msg;
}

TYPED_TEST(LintEngine, ParallelRawAccessIsAViewRaceNotAnEscape) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::lint_analyzer la;
  d.attach_lint(&la);
  hyper::reducer_opadd<int> sum;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    ctx.note_read(&sum.value(), sizeof(int), "parallel raw");
    ctx.sync();
  });
  la.finish();
  EXPECT_TRUE(d.found_races());  // the race engines own the parallel case
  EXPECT_TRUE(la.clean()) << lint::render_lints(la.records(), d.procedures());
}

TYPED_TEST(LintEngine, ReportsRenderDeterministically) {
  using Ctx = typename TestFixture::Ctx;
  const auto run = [](std::string& out) {
    TypeParam d;
    typename TypeParam::lint_analyzer la;
    d.attach_lint(&la);
    typename TestFixture::Mutex a(d), b(d), c3(d);
    screen::run_under_detector(d, [&](Ctx& ctx) {
      ctx.spawn([&](Ctx& c) {
        a.lock(c); b.lock(c); b.unlock(c); a.unlock(c);
      });
      ctx.spawn([&](Ctx& c) {
        b.lock(c); a.lock(c); a.unlock(c); b.unlock(c);
      });
      ctx.sync();
      c3.lock(ctx);
      ctx.spawn([](Ctx&) {});
      ctx.sync();
      c3.unlock(ctx);
    });
    la.finish();
    out = lint::render_lints(la.records(), d.procedures());
  };
  std::string first, second;
  run(first);
  run(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- rt::mutex observer (the census the bench uses) ---

TEST(MutexCensus, CountsAndPeakDepth) {
  rt::mutex a, b;
  lint::scoped_mutex_census census;
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  a.lock();
  a.unlock();
  EXPECT_TRUE(census.census().balanced());
  EXPECT_EQ(census.census().acquires(), 3u);
  EXPECT_EQ(census.census().peak_depth(), 2u);
}

TEST(MutexCensus, UninstalledMutexIsUnobserved) {
  {
    rt::mutex m;
    lint::scoped_mutex_census census;
    m.lock();
    m.unlock();
    EXPECT_EQ(census.census().acquires(), 1u);
  }
  EXPECT_EQ(rt::installed_mutex_observer(), nullptr);
}

}  // namespace
}  // namespace cilkpp
