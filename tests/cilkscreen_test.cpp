// Tests for the Cilkscreen reproduction (paper Sec. 4).
//
// The centerpiece is a property test: random series-parallel programs with
// random reads/writes are executed both under the SP-bags detector and
// under the dag recorder; for every variable, the detector must flag a race
// exactly when the dag says two accesses (one a write) are logically
// parallel — the paper's guarantee that an exposed race is always reported,
// and that race-free programs are never accused. The directed Detector
// cases run typed over both engines, SP-bags (detector) and SP-order
// (order_detector).
#include <gtest/gtest.h>

#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "dag/analysis.hpp"
#include "hyper/reducer.hpp"
#include "dag/builder.hpp"
#include "dag/recorder.hpp"
#include "support/rng.hpp"

namespace cilkpp::screen {
namespace {

// --- SP-bags state machine in isolation. ---

TEST(SpBags, SpawnedChildIsParallelUntilSync) {
  sp_bags bags;
  const proc_id root = bags.create_root();
  const proc_id child = bags.enter_procedure(root);
  bags.return_spawned(root, child);
  EXPECT_TRUE(bags.in_p_bag(child));  // parallel with the continuation
  bags.sync(root);
  EXPECT_FALSE(bags.in_p_bag(child));  // serial after the sync
}

TEST(SpBags, CalledChildIsAlwaysSerial) {
  sp_bags bags;
  const proc_id root = bags.create_root();
  const proc_id child = bags.enter_procedure(root);
  bags.return_called(root, child);
  EXPECT_FALSE(bags.in_p_bag(child));
}

TEST(SpBags, SiblingsBothParallelBeforeSync) {
  sp_bags bags;
  const proc_id root = bags.create_root();
  const proc_id a = bags.enter_procedure(root);
  bags.return_spawned(root, a);
  const proc_id b = bags.enter_procedure(root);
  bags.return_spawned(root, b);
  EXPECT_TRUE(bags.in_p_bag(a));
  EXPECT_TRUE(bags.in_p_bag(b));
  bags.sync(root);
  EXPECT_FALSE(bags.in_p_bag(a));
  EXPECT_FALSE(bags.in_p_bag(b));
}

TEST(SpBags, NestedSpawnResolvedByInnerImplicitSync) {
  sp_bags bags;
  const proc_id root = bags.create_root();
  // root spawns A; A spawns B; B returns to A; A's implicit sync; A returns.
  const proc_id a = bags.enter_procedure(root);
  const proc_id b = bags.enter_procedure(a);
  bags.return_spawned(a, b);
  EXPECT_TRUE(bags.in_p_bag(b));  // parallel with A's continuation
  bags.sync(a);                   // A's implicit sync
  EXPECT_FALSE(bags.in_p_bag(b));
  bags.return_spawned(root, a);
  // Now both A and B ran logically in parallel with root's continuation.
  EXPECT_TRUE(bags.in_p_bag(a));
  EXPECT_TRUE(bags.in_p_bag(b));
}

// --- Detector on the paper's examples, typed over both engines: SP-bags
// --- (detector) and SP-order (order_detector) share every code path but
// --- the series-parallel query, so each case runs under both.

template <typename D>
class Detector : public ::testing::Test {
 protected:
  using Ctx = basic_screen_context<D>;
  using Mutex = basic_screen_mutex<D>;
};
using Engines = ::testing::Types<detector, order_detector>;
TYPED_TEST_SUITE(Detector, Engines);

// Fig. 5: the naive parallel tree walk pushing to a global list — racy.
// Modeled minimally: two spawned strands both update one cell.
TYPED_TEST(Detector, Figure5NaiveTreeWalkRaces) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> output_list_size(0, "output_list");
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      output_list_size.update(c, [](int& v) { ++v; });
    });
    output_list_size.update(ctx, [](int& v) { ++v; });  // continuation
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
  ASSERT_FALSE(d.races().empty());
  EXPECT_EQ(d.races()[0].first_label, "output_list");
  EXPECT_EQ(d.races()[0].second_label, "output_list");
}

// Fig. 6: the same updates protected by a common mutex — suppressed.
TYPED_TEST(Detector, Figure6MutexProtectedWalkIsQuiet) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> output_list_size(0, "output_list");
  Mutex L(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      L.lock(c);
      output_list_size.update(c, [](int& v) { ++v; });
      L.unlock(c);
    });
    L.lock(ctx);
    output_list_size.update(ctx, [](int& v) { ++v; });
    L.unlock(ctx);
    ctx.sync();
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_GT(d.stats().races_lock_suppressed, 0u);
}

// Regression: a release with no matching acquisition used to hit
// CILKPP_UNREACHABLE and abort the process; it is now counted (and, with a
// lint analyzer attached, reported) while detection continues unharmed.
TYPED_TEST(Detector, DoubleReleaseNoLongerAborts) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0);
  Mutex L(d);
  run_under_detector(d, [&](Ctx& ctx) {
    L.lock(ctx);
    L.unlock(ctx);
    L.unlock(ctx);  // unmatched
    ctx.spawn([&](Ctx& c) { shared.set(c, 1); });
    ctx.sync();
    shared.get(ctx);
  });
  EXPECT_EQ(d.stats().unmatched_releases, 1u);
  EXPECT_FALSE(d.found_races());  // detection kept working past it
}

TYPED_TEST(Detector, DifferentLocksDoNotSuppress) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0, "shared");
  Mutex l1(d), l2(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      l1.lock(c);
      shared.update(c, [](int& v) { ++v; });
      l1.unlock(c);
    });
    l2.lock(ctx);
    shared.update(ctx, [](int& v) { ++v; });
    l2.unlock(ctx);
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());  // "hold no locks in common"
}

// --- ALL-SETS access histories: races the single last-access shadow cell
// --- of the seed detector could miss (one remembered access per distinct
// --- lockset is required for the paper's completeness guarantee).

// Acceptance scenario: two parallel reads under locks {A} and {B}, then an
// unlocked write parallel with both.
TYPED_TEST(Detector, TwoLockedReadersThenUnlockedWriteRaces) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0, "shared");
  Mutex A(d), B(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      A.lock(c);
      (void)shared.get(c);
      A.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      B.lock(c);
      (void)shared.get(c);
      B.unlock(c);
    });
    shared.set(ctx, 1);  // continuation: no lock held
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
}

// The sharper version: the write itself holds lock A. A last-reader-only
// cell remembers the {A} reader (first parallel reader), sees the common
// lock, and stays silent — forgetting the {B} reader the write races with.
TYPED_TEST(Detector, WriteUnderLockARacesWithForgottenLockBReader) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0, "shared");
  Mutex A(d), B(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      A.lock(c);
      (void)shared.get(c);
      A.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      B.lock(c);
      (void)shared.get(c);
      B.unlock(c);
    });
    A.lock(ctx);
    shared.set(ctx, 1);  // races with the {B} reader only
    A.unlock(ctx);
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
  EXPECT_GT(d.stats().races_lock_suppressed, 0u);  // the {A}-reader pairing
}

// Write-write variant: a parallel write under {A,B} overwrote the seed
// detector's writer slot; the later {B} reader then only got checked
// against it (common lock B) and the original {A} writer was forgotten.
TYPED_TEST(Detector, InterveningSupersetWriterDoesNotMaskOlderWriter) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0, "shared");
  Mutex A(d), B(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      A.lock(c);
      shared.set(c, 1);
      A.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      A.lock(c);
      B.lock(c);
      shared.set(c, 2);  // common lock A with the first writer: no race yet
      B.unlock(c);
      A.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      B.lock(c);
      (void)shared.get(c);  // races with the {A} writer, not the {A,B} one
      B.unlock(c);
    });
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
}

// Consistent single-lock discipline must stay quiet even though the
// histories now remember several accesses per location.
TYPED_TEST(Detector, ConsistentLockDisciplineStillQuietWithHistories) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cell<int> shared(0, "shared");
  Mutex A(d);
  run_under_detector(d, [&](Ctx& ctx) {
    for (int i = 0; i < 6; ++i) {
      ctx.spawn([&](Ctx& c) {
        A.lock(c);
        shared.update(c, [](int& v) { ++v; });
        A.unlock(c);
      });
    }
    ctx.sync();
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_GT(d.stats().races_lock_suppressed, 0u);
}

// The explicit spill policy: more distinct locksets than history_capacity
// on one location drops the excess (counted), but never invents races and
// still reports against the retained entries.
TYPED_TEST(Detector, HistorySpillIsCountedAndStaysSound) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  constexpr unsigned nlocks = 8;
  TypeParam d;
  cell<int> shared(0, "shared");
  std::vector<Mutex> locks;
  locks.reserve(nlocks);
  for (unsigned i = 0; i < nlocks; ++i) locks.emplace_back(d);
  run_under_detector(d, [&](Ctx& ctx) {
    // Every 4-element subset of 8 locks: C(8,4) = 70 pairwise-incomparable
    // locksets, each remembered unless the history is full (capacity 32).
    for (unsigned mask = 0; mask < (1u << nlocks); ++mask) {
      if (__builtin_popcount(mask) != 4) continue;
      ctx.spawn([&, mask](Ctx& c) {
        for (unsigned l = 0; l < nlocks; ++l)
          if (mask & (1u << l)) locks[l].lock(c);
        (void)shared.get(c);
        for (unsigned l = nlocks; l-- > 0;)
          if (mask & (1u << l)) locks[l].unlock(c);
      });
    }
    EXPECT_FALSE(d.found_races());  // reads under locks: no race yet
    EXPECT_GT(d.stats().history_spills, 0u);
    shared.set(ctx, 1);  // unlocked write, parallel with all 70 readers
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
}

// --- Reducer awareness (paper Sec. 5). ---

TYPED_TEST(Detector, ReducerUpdatesAreCertifiedRaceFree) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cilk::reducer<cilk::hyper::opadd<int>> sum;
  run_under_detector(d, [&](Ctx& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    }
    ctx.sync();
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_EQ(d.stats().view_accesses, 8u);
  EXPECT_EQ(sum.value(), 8);
}

TYPED_TEST(Detector, RawWriteParallelWithViewAccessIsViewRace) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cilk::reducer<cilk::hyper::opadd<int>> sum;
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    // The continuation bypasses the reducer while the child is in flight.
    ctx.note_write(&sum.value(), sizeof(int), "raw bypass");
    sum.value() += 1;
    ctx.sync();
  });
  ASSERT_TRUE(d.found_races());
  const race_record& r = d.races().front();
  EXPECT_EQ(r.kind, race_kind::view);
  EXPECT_EQ(r.second_label, "raw bypass");
  EXPECT_EQ(d.stats().view_races, d.stats().races_found);
}

TYPED_TEST(Detector, RawAccessBeforeFirstViewAccessIsAlsoCaught) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cilk::reducer<cilk::hyper::opadd<int>> sum;
  // Registration is lazy (first view access), so pre-register to associate
  // the raw write that happens before any view exists.
  d.register_hyperobject(sum, &sum.value(), sizeof(int), "sum");
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      c.note_write(&sum.value(), sizeof(int), "raw bypass");
      sum.value() += 1;
    });
    sum.view(ctx) += 1;  // parallel with the raw-writing child
    ctx.sync();
  });
  ASSERT_TRUE(d.found_races());
  EXPECT_EQ(d.races().front().kind, race_kind::view);
  EXPECT_EQ(d.races().front().first_label, "raw bypass");
}

TYPED_TEST(Detector, RawAccessSerialWithViewsIsNotAViewRace) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cilk::reducer<cilk::hyper::opadd<int>> sum;
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    ctx.sync();
    // After the sync the strand is serial with every view update.
    ctx.note_read(&sum.value(), sizeof(int), "serial readback");
    EXPECT_EQ(sum.value(), 1);
  });
  EXPECT_FALSE(d.found_races());
}

// A mutex cannot fix a view race: views never take the raw path, so lock
// suppression must not apply.
TYPED_TEST(Detector, LockDoesNotSuppressViewRace) {
  using Ctx = typename TestFixture::Ctx;
  using Mutex = typename TestFixture::Mutex;
  TypeParam d;
  cilk::reducer<cilk::hyper::opadd<int>> sum;
  Mutex L(d);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum.view(c) += 1; });
    L.lock(ctx);
    ctx.note_write(&sum.value(), sizeof(int), "locked bypass");
    sum.value() += 1;
    L.unlock(ctx);
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
  EXPECT_EQ(d.races().front().kind, race_kind::view);
}

TYPED_TEST(Detector, ParallelReadsAreNotARace) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(7, "shared");
  int sum = 0;
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { sum += shared.get(c); });
    ctx.spawn([&](Ctx& c) { sum += shared.get(c); });
    sum += shared.get(ctx);
    ctx.sync();
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_EQ(sum, 21);
}

TYPED_TEST(Detector, WriteThenSyncThenReadIsSerial) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(0, "shared");
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { shared.set(c, 5); });
    ctx.sync();
    EXPECT_EQ(shared.get(ctx), 5);
  });
  EXPECT_FALSE(d.found_races());
}

TYPED_TEST(Detector, ReadWriteRaceAcrossSpawn) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(0, "shared");
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { (void)shared.get(c); });
    shared.set(ctx, 1);  // continuation writes while child may read
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
}

TYPED_TEST(Detector, CalledFrameIsSerial) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(0);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.call([&](Ctx& c) { shared.set(c, 1); });
    shared.set(ctx, 2);  // serial after the call: no race
  });
  EXPECT_FALSE(d.found_races());
}

TYPED_TEST(Detector, SecondSyncBlockIndependentOfFirst) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> a(0), b(0);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { a.set(c, 1); });
    ctx.sync();
    ctx.spawn([&](Ctx& c) { b.set(c, 1); });
    a.set(ctx, 2);  // serial w.r.t. first block's child; parallel to none
    ctx.sync();
  });
  EXPECT_FALSE(d.found_races());
}

TYPED_TEST(Detector, SiblingChildrenAreParallel) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(0);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { shared.set(c, 1); });
    ctx.spawn([&](Ctx& c) { shared.set(c, 2); });
    ctx.sync();
  });
  EXPECT_TRUE(d.found_races());
}

TYPED_TEST(Detector, DeepNestingResolvedByImplicitSyncs) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> shared(0);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& outer) {
      outer.spawn([&](Ctx& inner) { shared.set(inner, 1); });
      outer.sync();
    });
    ctx.sync();
    shared.set(ctx, 2);  // fully serial after the sync chain
  });
  EXPECT_FALSE(d.found_races());
}

TYPED_TEST(Detector, ParallelForDisjointWritesAreQuiet) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  std::vector<cell<int>> data(64);
  run_under_detector(d, [&](Ctx& ctx) {
    parallel_for(ctx, 0, 64, [&](Ctx& leaf, int i) {
      data[static_cast<std::size_t>(i)].set(leaf, i);
    }, 4);
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_EQ(d.stats().writes_checked, 64u);
}

TYPED_TEST(Detector, ParallelForSharedAccumulatorRaces) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> acc(0, "acc");
  run_under_detector(d, [&](Ctx& ctx) {
    parallel_for(ctx, 0, 16, [&](Ctx& leaf, int) {
      acc.update(leaf, [](int& v) { ++v; });
    }, 1);
  });
  EXPECT_TRUE(d.found_races());
}

// The Sec. 4 mutated quicksort: replacing line 13's `middle` with
// `middle-1` makes the two recursive subproblems overlap by one element —
// "the resulting serial code is still correct, but the parallel code now
// contains a race bug".
template <typename Ctx>
void screen_qsort(Ctx& ctx, std::vector<cell<int>>& a, int lo, int hi,
                  bool buggy) {
  if (hi - lo < 2) return;
  const int pivot = a[static_cast<std::size_t>(lo)].get(ctx);
  int mid = lo;
  for (int i = lo + 1; i < hi; ++i) {  // partition around the first element
    if (a[static_cast<std::size_t>(i)].get(ctx) < pivot) {
      ++mid;
      const int tmp = a[static_cast<std::size_t>(i)].get(ctx);
      a[static_cast<std::size_t>(i)].set(ctx, a[static_cast<std::size_t>(mid)].get(ctx));
      a[static_cast<std::size_t>(mid)].set(ctx, tmp);
    }
  }
  const int tmp = a[static_cast<std::size_t>(lo)].get(ctx);
  a[static_cast<std::size_t>(lo)].set(ctx, a[static_cast<std::size_t>(mid)].get(ctx));
  a[static_cast<std::size_t>(mid)].set(ctx, tmp);

  const int left_end = mid;
  const int right_begin = buggy ? std::max(lo + 1, mid - 1) : mid + 1;
  ctx.spawn([&, lo, left_end, buggy](Ctx& c) {
    screen_qsort(c, a, lo, left_end, buggy);
  });
  screen_qsort(ctx, a, right_begin, hi, buggy);
  ctx.sync();
}

TYPED_TEST(Detector, MutatedQsortRaceDetectedCleanQsortQuiet) {
  using Ctx = typename TestFixture::Ctx;
  xoshiro256 rng(2026);
  for (bool buggy : {false, true}) {
    TypeParam d;
    std::vector<cell<int>> a;
    for (int i = 0; i < 64; ++i)
      a.emplace_back(static_cast<int>(rng.below(1000)));
    run_under_detector(d, [&](Ctx& ctx) {
      screen_qsort(ctx, a, 0, 64, buggy);
    });
    if (buggy) {
      EXPECT_TRUE(d.found_races()) << "overlapping subproblems must race";
    } else {
      EXPECT_FALSE(d.found_races()) << "clean quicksort must stay quiet";
      for (int i = 1; i < 64; ++i) {
        EXPECT_LE(a[static_cast<std::size_t>(i - 1)].unsafe_value(),
                  a[static_cast<std::size_t>(i)].unsafe_value());
      }
    }
  }
}

// --- Property test: SP-bags vs dag-reachability ground truth. ---

// One random series-parallel program, replayed identically through any
// engine. `access(ctx, var, is_write)` performs the engine's access.
template <typename Ctx, typename AccessFn>
void random_program(Ctx& ctx, xoshiro256& rng, unsigned depth, unsigned nvars,
                    const AccessFn& access) {
  const auto steps = 2 + rng.below(5);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const auto op = rng.below(depth == 0 ? 2 : 5);
    switch (op) {
      case 0:
        access(ctx, static_cast<unsigned>(rng.below(nvars)), false);
        break;
      case 1:
        access(ctx, static_cast<unsigned>(rng.below(nvars)), true);
        break;
      case 2:
        ctx.spawn([&](Ctx& c) { random_program(c, rng, depth - 1, nvars, access); });
        break;
      case 3:
        ctx.call([&](Ctx& c) { random_program(c, rng, depth - 1, nvars, access); });
        break;
      case 4:
        ctx.sync();
        break;
    }
  }
  if (rng.below(2) == 0) ctx.sync();
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, SpBagsMatchesDagGroundTruth) {
  constexpr unsigned nvars = 6;
  constexpr unsigned depth = 4;

  // Pass 1: the detector.
  detector d;
  std::vector<cell<int>> vars(nvars);
  {
    xoshiro256 rng(GetParam());
    run_under_detector(d, [&](screen_context& ctx) {
      random_program(ctx, rng, depth, nvars,
                     [&](screen_context& c, unsigned v, bool w) {
                       if (w)
                         vars[v].set(c, 1);
                       else
                         (void)vars[v].get(c);
                     });
    });
  }

  // Pass 2: the dag recorder, logging (variable, kind, strand).
  struct logged { unsigned var; bool write; dag::vertex_id strand; };
  std::vector<logged> log;
  dag::sp_builder builder;
  {
    xoshiro256 rng(GetParam());  // same seed → identical program
    dag::recorder_context root(builder);
    random_program(root, rng, depth, nvars,
                   [&](dag::recorder_context& c, unsigned v, bool w) {
                     c.account(1);
                     log.push_back({v, w, c.builder().current()});
                   });
  }
  const dag::graph g = std::move(builder).finish();

  // Ground truth: variable v races iff two accesses, one a write, occur in
  // logically parallel strands.
  std::vector<bool> truth(nvars, false);
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[i].var != log[j].var) continue;
      if (!log[i].write && !log[j].write) continue;
      if (dag::in_parallel(g, log[i].strand, log[j].strand)) {
        truth[log[i].var] = true;
      }
    }
  }

  // Detector verdict per variable, by address.
  std::vector<bool> flagged(nvars, false);
  for (const race_record& r : d.races()) {
    for (unsigned v = 0; v < nvars; ++v) {
      const auto base =
          reinterpret_cast<std::uintptr_t>(&vars[v].unsafe_value());
      if (r.address >= base && r.address < base + sizeof(int)) flagged[v] = true;
    }
  }

  for (unsigned v = 0; v < nvars; ++v) {
    EXPECT_EQ(flagged[v], truth[v])
        << "variable " << v << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 41));

TYPED_TEST(Detector, ShadowMemoryGrowthKeepsVerdictsExact) {
  using Ctx = typename TestFixture::Ctx;
  // 100k distinct instrumented addresses force many shadow-table rehashes;
  // verdicts must stay exact: disjoint parallel writes are quiet, and one
  // deliberately shared cell still races.
  TypeParam d;
  std::vector<cell<int>> cells(100000);
  cell<int> shared(0, "shared");
  run_under_detector(d, [&](Ctx& ctx) {
    parallel_for(ctx, 0, 100000, [&](Ctx& leaf, int i) {
      cells[static_cast<std::size_t>(i)].set(leaf, i);
      if (i % 50000 == 1) shared.set(leaf, i);
    }, 512);
  });
  EXPECT_TRUE(d.found_races());
  const auto base = reinterpret_cast<std::uintptr_t>(&shared.unsafe_value());
  for (const race_record& r : d.races()) {
    // Checks are per byte: every reported address lies within `shared`.
    EXPECT_GE(r.address, base);
    EXPECT_LT(r.address, base + sizeof(int));
  }
  EXPECT_EQ(d.stats().writes_checked, 100002u);
}

TYPED_TEST(Detector, CountsAccessesAndProcedures) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  cell<int> x(0);
  run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) { x.set(c, 1); });
    ctx.sync();
    (void)x.get(ctx);
  });
  EXPECT_EQ(d.stats().writes_checked, 1u);
  EXPECT_EQ(d.stats().reads_checked, 1u);
  EXPECT_EQ(d.stats().procedures, 2u);  // root + spawned child
  EXPECT_FALSE(d.found_races());
}

}  // namespace
}  // namespace cilkpp::screen
