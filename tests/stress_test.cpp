// cilk::stress — seeded schedule fuzzing with differential oracles.
//
// Tier-1 checks of the stress subsystem itself (generator/chaos
// determinism, the failure-report contract) plus the acceptance sweep: 200
// generated programs, every one run through serial elision, the dag
// recorder + cilkview + sim::machine, cilkscreen, and the threaded runtime
// under 8 rotated chaos seeds — every oracle checked on every case.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <stdexcept>
#include <thread>

#include "alloc/slab.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "hyper/reducer.hpp"
#include "lint/analyzer.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "stress/chaos.hpp"
#include "stress/interp.hpp"
#include "stress/oracle.hpp"
#include "stress/program.hpp"
#include "stress/replay.hpp"

namespace {

using namespace cilkpp;
using namespace cilkpp::stress;

// --- Program generator. ---

TEST(Generator, DeterministicAcrossCalls) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 999ULL, 123456789ULL}) {
    const program a = generate_program(seed, 14);
    const program b = generate_program(seed, 14);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.expected_work, b.expected_work);
    EXPECT_EQ(a.expected_rlist, b.expected_rlist);
  }
}

TEST(Generator, CoversEveryConstruct) {
  bool pfor = false, throws = false, spawns = false, radd = false,
       rlist = false, grain_over_range = false;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const program p = generate_program(seed, 16);
    pfor = pfor || p.num_pfor > 0;
    throws = throws || p.num_throws > 0;
    spawns = spawns || p.num_spawn_blocks > 0;
    radd = radd || p.uses_radd;
    rlist = rlist || p.uses_rlist;
    // Find a pfor whose grain exceeds its trip count (the must-run-serially
    // edge case is part of the generated mix by design).
    std::vector<const prog_node*> stack{&p.root};
    while (!stack.empty()) {
      const prog_node* n = stack.back();
      stack.pop_back();
      if (n->kind == op::pfor && n->grain > n->iters) grain_over_range = true;
      for (const prog_node& c : n->children) stack.push_back(&c);
    }
  }
  EXPECT_TRUE(pfor);
  EXPECT_TRUE(throws);
  EXPECT_TRUE(spawns);
  EXPECT_TRUE(radd);
  EXPECT_TRUE(rlist);
  EXPECT_TRUE(grain_over_range);
}

TEST(Generator, MetadataConsistent) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const program p = generate_program(seed, 14);
    EXPECT_GE(p.num_work, 1u) << seed;
    EXPECT_EQ(p.num_slots, p.num_work) << seed;
    EXPECT_GE(p.max_spawn_width, 1u) << seed;
    EXPECT_LE(p.expected_rlist.size(), p.num_work) << seed;
    EXPECT_GT(p.expected_work, 0u) << seed;
  }
}

TEST(Generator, LockBlocksFollowThePoolDiscipline) {
  bool any = false, ordered_nested = false, gated = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const program p = generate_program(seed, 16);
    std::uint32_t blocks = 0;
    std::vector<const prog_node*> stack{&p.root};
    while (!stack.empty()) {
      const prog_node* n = stack.back();
      stack.pop_back();
      for (const prog_node& c : n->children) stack.push_back(&c);
      if (n->kind != op::lock_block) continue;
      ++blocks;
      any = true;
      ASSERT_FALSE(n->locks.empty()) << seed;
      // Critical sections hold only plain work leaves (anything else would
      // be a held-across-boundary lint, and generated programs must stay
      // lint-clean for the zero-lint oracle).
      for (const prog_node& c : n->children) {
        EXPECT_EQ(c.kind, op::work) << seed;
      }
      if (n->locks.front() == stress_gate_lock) {
        gated = true;
        for (std::size_t i = 1; i < n->locks.size(); ++i) {
          EXPECT_TRUE(n->locks[i] == 5 || n->locks[i] == 6) << seed;
        }
      } else {
        if (n->locks.size() >= 2) ordered_nested = true;
        for (std::size_t i = 0; i < n->locks.size(); ++i) {
          EXPECT_LT(n->locks[i], stress_gate_lock) << seed;
          if (i > 0) {
            EXPECT_EQ(n->locks[i], n->locks[i - 1] + 1) << seed;
          }
        }
      }
    }
    EXPECT_EQ(blocks, p.num_lock_blocks) << seed;
    EXPECT_EQ(p.num_locks, blocks > 0 ? stress_lock_count : 0u) << seed;
  }
  EXPECT_TRUE(any);
  EXPECT_TRUE(ordered_nested);
  EXPECT_TRUE(gated);
}

// --- Engine-generic interpreter (no scheduler involved). ---

TEST(Interp, SerialMatchesGeneratorExpectations) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const program p = generate_program(seed, 14);
    run_state st(p);
    rt::serial_context root;
    interp(root, p, p.root, st);
    EXPECT_EQ(root.accounted_work(), p.expected_work) << seed;
    const run_result r = finish(p, st);
    EXPECT_EQ(r.rlist, p.expected_rlist) << seed;
    for (const padded<std::uint64_t>& mark : st.marks) {
      EXPECT_NE(*mark, 0u) << seed;
    }
  }
}

TEST(Interp, RecorderAndScreenMatchElision) {
  for (std::uint64_t seed : {3ULL, 17ULL, 51ULL, 404ULL}) {
    const program p = generate_program(seed, 16);

    run_state serial_st(p);
    rt::serial_context root;
    interp(root, p, p.root, serial_st);
    const run_result serial_r = finish(p, serial_st);

    run_state rec_st(p);
    dag::record([&](dag::recorder_context& ctx) {
      interp(ctx, p, p.root, rec_st);
    });
    EXPECT_EQ(finish(p, rec_st).checksum, serial_r.checksum) << seed;

    run_state scr_st(p);
    screen::detector d;
    screen::run_under_detector(d, [&](screen::screen_context& ctx) {
      interp(ctx, p, p.root, scr_st);
    });
    EXPECT_EQ(finish(p, scr_st).checksum, serial_r.checksum) << seed;
    EXPECT_FALSE(d.found_races()) << seed;
  }
}

// --- Schedule independence: strand identity is a pure function of program
// structure, so every pedigree-keyed output — the DPRNG stream, the run
// checksum — must be bit-identical whichever schedule executed it. ---

TEST(ScheduleIndependence, DrawStreamIdenticalAcrossAllEightChaosSeeds) {
  const program p = generate_program(2026, 16);

  // Reference: the SP-bags engine's serial elision-order run.
  run_state ref_st(p);
  screen::detector d;
  screen::run_under_detector(d, [&](screen::screen_context& ctx) {
    interp(ctx, p, p.root, ref_st);
  });
  const run_result ref_r = finish(p, ref_st);

  // Policies declared before the scheduler: workers may touch the installed
  // policy until the scheduler is destroyed.
  std::vector<std::unique_ptr<seeded_chaos>> policies;
  rt::scheduler sched(4);
  for (const std::uint64_t cs : default_chaos_seeds()) {
    policies.push_back(
        cs == 0 ? std::make_unique<seeded_chaos>(chaos_params{}, 0,
                                                 sched.num_workers())
                : std::make_unique<seeded_chaos>(cs, sched.num_workers()));
    sched.install_chaos(policies.back().get());
    run_state st(p);
    sched.run([&](rt::context& ctx) { interp(ctx, p, p.root, st); });
    sched.remove_chaos();
    const run_result r = finish(p, st);
    // Every single DPRNG draw, not just the fold, is bit-identical.
    EXPECT_EQ(st.draws, ref_st.draws) << "chaos seed " << cs;
    EXPECT_EQ(r.draw_sig, ref_r.draw_sig) << "chaos seed " << cs;
    EXPECT_TRUE(r == ref_r) << "chaos seed " << cs;
  }
}

// --- Seed + pedigree replay: the failing-strand workflow. ---

TEST(Replay, SeedPlusPedigreeReproducesTheTargetStrand) {
  const program p = generate_program(77, 14);
  ASSERT_GT(p.num_slots, 0u);
  run_state ref(p);
  rt::serial_context sctx;
  interp(sctx, p, p.root, ref);

  // The workflow a failure report drives: map the suspect output to its
  // strand, print the pedigree, parse it back, replay only that strand.
  const std::size_t victim = p.num_slots / 2;
  const ped::pedigree target = pedigree_of_slot(p, victim);
  ASSERT_FALSE(target.empty());
  const ped::pedigree reparsed = ped::parse(ped::to_string(target));
  EXPECT_EQ(reparsed, target);

  run_state st(p);
  ped::replay_context rctx(reparsed);
  interp(rctx, p, p.root, st);
  EXPECT_TRUE(rctx.reached());
  // The replayed strand recomputes exactly the value the full run produced.
  EXPECT_EQ(*st.slots[victim], *ref.slots[victim]);
  EXPECT_LE(rctx.executed_work(), sctx.accounted_work());
}

TEST(Replay, ReplayOutcomeSummarizesThePrunedRun) {
  // First seed from 321 up whose program has at least two work leaves
  // (deterministic: the generator is a pure function of the seed).
  std::uint64_t seed = 321;
  program p = generate_program(seed, 16);
  while (p.num_slots <= 1) p = generate_program(++seed, 16);
  const ped::pedigree target = pedigree_of_slot(p, p.num_slots - 1);
  ASSERT_FALSE(target.empty());
  const replay_outcome o = replay_strand(p, target);
  EXPECT_TRUE(o.reached);
  EXPECT_GT(o.frames_entered, 0u);
  EXPECT_LE(o.executed_work, p.expected_work);
}

TEST(Oracle, FailureReportCarriesReplayPedigree) {
  stress_failure f;
  f.c = stress_case{5, 13, 4, 14};
  f.oracle = "runtime-differs";
  f.detail = "checksum mismatch";
  f.pedigree = "<0,2,1>";
  const std::string s = f.describe();
  EXPECT_NE(s.find("REPLAY"), std::string::npos);
  EXPECT_NE(s.find("<0,2,1>"), std::string::npos);
  EXPECT_NE(s.find("replay_strand"), std::string::npos);
  // Without a pedigree the REPLAY line is absent.
  f.pedigree.clear();
  EXPECT_EQ(f.describe().find("REPLAY"), std::string::npos);
}

// --- Planted ill-disciplined programs: the lint differential oracle's
// positive controls. Screen engines only (program.planted — a real ABBA
// can genuinely deadlock the threaded runtime). ---

template <typename D>
std::vector<lint::lint_record> lint_planted(const program& p) {
  run_state st(p);
  D d;
  typename D::lint_analyzer la;
  d.attach_lint(&la);
  screen::run_under_detector(d, [&](screen::basic_screen_context<D>& ctx) {
    interp(ctx, p, p.root, st);
  });
  la.finish();
  return la.records();
}

template <typename D>
void check_planted_programs() {
  const program abba = make_planted_abba(/*gated=*/false);
  ASSERT_TRUE(abba.planted);
  const auto reports = lint_planted<D>(abba);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, lint::lint_kind::deadlock_cycle);
  EXPECT_EQ(reports[0].cycle, (std::vector<screen::lock_id>{0, 1}));

  // Same opposite orders underneath a common gate: suppressed.
  EXPECT_TRUE(lint_planted<D>(make_planted_abba(/*gated=*/true)).empty());

  const auto held = lint_planted<D>(make_planted_held_across_sync());
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].kind, lint::lint_kind::lock_across_sync);
  EXPECT_EQ(held[0].lock, 0u);
}

TEST(PlantedPrograms, LintVerdictsUnderSpBags) {
  check_planted_programs<screen::detector>();
}

TEST(PlantedPrograms, LintVerdictsUnderSpOrder) {
  check_planted_programs<screen::order_detector>();
}

// --- Chaos policy. ---

TEST(Chaos, SeedZeroIsTheNullPolicy) {
  const chaos_params p = chaos_params::from_seed(0);
  EXPECT_EQ(p.yield_chance, 0u);
  EXPECT_EQ(p.sleep_chance, 0u);
  EXPECT_EQ(p.long_sleep_chance, 0u);
  EXPECT_EQ(p.prefer_steal_chance, 0u);
  EXPECT_EQ(p.victim_override_chance, 0u);
  EXPECT_EQ(p.starved_workers, 0u);
}

TEST(Chaos, ParamsDeterministicAndSeedSensitive) {
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const chaos_params a = chaos_params::from_seed(seed);
    const chaos_params b = chaos_params::from_seed(seed);
    EXPECT_EQ(a.describe(), b.describe()) << seed;
    any_difference =
        any_difference ||
        a.describe() != chaos_params::from_seed(seed + 1).describe();
  }
  EXPECT_TRUE(any_difference);
}

TEST(Chaos, DecisionStreamsAreDeterministicPerWorker) {
  seeded_chaos a(42, 4), b(42, 4);
  for (unsigned w = 0; w < 4; ++w) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(a.prefer_steal(w), b.prefer_steal(w));
      EXPECT_EQ(a.pick_victim(w, 4), b.pick_victim(w, 4));
    }
  }
  const chaos_stats sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.forced_steals, sb.forced_steals);
  EXPECT_EQ(sa.victim_overrides, sb.victim_overrides);
}

TEST(Chaos, PerturbCountsEveryPoint) {
  seeded_chaos c(7, 2);
  for (int i = 0; i < 50; ++i) c.perturb(0, rt::chaos_point::spawn_push);
  for (int i = 0; i < 30; ++i) c.perturb(1, rt::chaos_point::steal_attempt);
  EXPECT_EQ(c.stats().points, 80u);
}

TEST(Chaos, PickVictimStaysInRangeOrKeepsDefault) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    seeded_chaos c(seed, 4);
    for (int i = 0; i < 300; ++i) {
      const std::size_t v = c.pick_victim(1, 4);
      EXPECT_TRUE(v == 4 || (v < 4 && v != 1)) << "seed " << seed;
    }
  }
}

// --- Failure-report contract: seeds reprint for deterministic replay. ---

TEST(Oracle, FailureReportCarriesReproSeeds) {
  stress_failure f;
  f.c = stress_case{123, 45, 4, 14};
  f.oracle = "runtime-differs";
  f.detail = "checksum mismatch";
  const std::string s = f.describe();
  EXPECT_NE(s.find("program_seed=123"), std::string::npos) << s;
  EXPECT_NE(s.find("chaos_seed=45"), std::string::npos) << s;
  EXPECT_NE(s.find("workers=4"), std::string::npos) << s;
  EXPECT_NE(s.find("REPRO"), std::string::npos) << s;
  EXPECT_NE(s.find("runtime-differs"), std::string::npos) << s;
}

TEST(Oracle, SingleCaseRunsCleanUnderAdversarialChaos) {
  stress_harness h;
  fuzz_report rep;
  h.run_case(stress_case{424242, 3, 4, 16}, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.threaded_runs, 1u);
}

TEST(Oracle, SlabLeakCheckCatchesOnePlantedBlock) {
  // The run_case leak scope around a P = 4 run of 200 boxed spawns, pushed
  // three to a sync: balanced as the runtime leaves it, and one block off
  // when a single child takes a slab block it does not free before its
  // join.
  rt::scheduler sched(4);
  const std::array<std::uint64_t, 16> payload{};
  void* planted = nullptr;
  const auto run = [&](bool plant) {
    sched.run([&](rt::context& ctx) {
      for (int i = 0; i < 200; ++i) {
        ctx.spawn([&, payload, i](rt::context&) {
          if (plant && i == 100) planted = alloc::slab_allocate(64);
          (void)payload;
        });
        if (i % 3 == 2) ctx.sync();
      }
    });
  };
  EXPECT_EQ(slab_blocks_left_live([&] { run(false); }), 0);
  EXPECT_EQ(slab_blocks_left_live([&] { run(true); },
                                  std::chrono::milliseconds(20)),
            1);
  ASSERT_NE(planted, nullptr);
  alloc::slab_deallocate(planted, 64);
}

TEST(Oracle, FingerprintIsDeterministicAcrossHarnesses) {
  fuzz_options opt;
  opt.programs = 12;
  opt.chaos_per_program = 1;
  stress_harness h1, h2;
  const fuzz_report r1 = h1.fuzz(opt);
  const fuzz_report r2 = h2.fuzz(opt);
  EXPECT_TRUE(r1.ok()) << r1.summary();
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_EQ(r1.programs, r2.programs);
}

// --- The acceptance sweep (ISSUE: >= 200 programs, >= 8 chaos seeds,
// every oracle, < 60 s). ---

TEST(StressFuzz, TierOneSweep) {
  const auto t0 = std::chrono::steady_clock::now();
  stress_harness h;
  fuzz_report rep = h.fuzz(fuzz_options{});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GE(rep.programs, 200u);
  EXPECT_GE(rep.threaded_runs, 400u);
  EXPECT_GE(rep.chaos_seeds_used, 8u);
  EXPECT_LT(secs, 60.0) << rep.summary();
}

// --- Lock-free join under chaos (DESIGN.md §4): the mutex is gone from
// spawn/sync, so the ownership discipline — owner-only arena structure,
// one writing child per slot, release-decrement / acquire-of-zero
// publication — is all that orders child deliveries. Sweep adversarial
// chaos seeds over the joins that stress it hardest: a wide parallel_for
// spine with reducer traffic (serial-order fold), and exception delivery
// through helper-executed children. Run under TSan, this is the memory-
// model certification of the lock-free path. ---

TEST(LockFreeJoin, ChaosSweepWidePforWithReducers) {
  constexpr std::uint64_t n = 1500;
  // Serial-elision oracle: the expected sum and the expected (serial)
  // append order.
  const std::uint64_t expected_sum = n * (n - 1) / 2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Declared before the scheduler: the chaos policy must outlive it
    // (workers may hold the pointer through the run's tail).
    seeded_chaos chaos(seed, 4);
    rt::scheduler sched(4);
    sched.install_chaos(&chaos);

    cilk::reducer<cilk::hyper::opadd<std::uint64_t>> sum;
    cilk::reducer<cilk::hyper::list_append<std::uint64_t>> order;
    sched.run([&](rt::context& ctx) {
      cilkpp::rt::parallel_for(
          ctx, std::uint64_t{0}, n,
          [&](rt::context& leaf, std::uint64_t i) {
            sum.view(leaf) += i;
            order.view(leaf).push_back(i);
          },
          /*grain=*/1);
    });
    sched.remove_chaos();

    EXPECT_EQ(sum.value(), expected_sum) << "chaos seed " << seed;
    const std::list<std::uint64_t> got = order.take();
    ASSERT_EQ(got.size(), n) << "chaos seed " << seed;
    // The fold is strictly serial-order regardless of the schedule chaos
    // forced: the list must come back exactly 0, 1, ..., n-1.
    std::uint64_t expect_next = 0;
    for (const std::uint64_t v : got) {
      ASSERT_EQ(v, expect_next++) << "chaos seed " << seed;
    }
  }
}

TEST(LockFreeJoin, ChaosSweepExceptionDeliveryThroughSlots) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    seeded_chaos chaos(seed, 4);
    rt::scheduler sched(4);
    sched.install_chaos(&chaos);
    bool caught = false;
    try {
      sched.run([](rt::context& ctx) {
        for (int i = 0; i < 400; ++i) {
          ctx.spawn([i](rt::context&) {
            if (i == 137) throw std::runtime_error("slot exception");
          });
        }
        ctx.sync();
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "slot exception") << "chaos seed " << seed;
    }
    sched.remove_chaos();
    EXPECT_TRUE(caught) << "chaos seed " << seed;
  }
}

// --- Oversubscription (ISSUE satellite: P = 4x hardware threads). ---

std::uint64_t tree_sum(rt::context& ctx, unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t a = 0;
  ctx.spawn([&a, depth](rt::context& child) { a = tree_sum(child, depth - 1); });
  const std::uint64_t b = tree_sum(ctx, depth - 1);
  ctx.sync();
  return a + b;
}

TEST(Oversubscription, FourTimesHardwareThreadsStaysCorrectAndBounded) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const unsigned P = 4 * hw;

  rt::scheduler sched(P);
  sched.reset_stats();
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t sum =
        sched.run([](rt::context& ctx) { return tree_sum(ctx, 11); });
    EXPECT_EQ(sum, std::uint64_t{1} << 11);
  }
  // Busy-leaves deque bound: a worker's deque only ever holds outstanding
  // children of frames live on its stack.  tree_sum recurses inline on the
  // SAME context after each spawn, so one frame can hold up to `depth`
  // pending children before the innermost sync drains them all — the bound
  // is width x live-frames (the same check the stress oracle applies), not
  // one child per frame.
  constexpr std::uint64_t kMaxSpawnWidth = 11;  // == tree depth above
  for (const rt::worker_stats& ws : sched.per_worker_stats()) {
    EXPECT_LE(ws.peak_deque, kMaxSpawnWidth * ws.peak_live_frames);
  }

  // And the full oracle battery holds at this worker count too.
  stress_harness h;
  fuzz_report rep;
  h.run_case(stress_case{777, 5, P, 16}, rep);
  h.run_case(stress_case{778, 13, P, 16}, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- Graph leg: the analytics kernels under schedule chaos. The graph
// module's contract is determinism *by construction* (index-keyed DPRNG
// generators, phase-disciplined kernels, frame-tree reducer folds), so
// everything — the generated graph, BC centralities, PageRank ranks and
// residuals, the per-level work histograms, the pivot draw vector — must be
// BIT-identical under every chaos schedule, not merely close. ---

TEST(GraphLeg, ChaosSweepBcPagerankBitIdentical) {
  constexpr unsigned scale = 12;          // 4096 vertices
  constexpr std::uint64_t edges = 50000;  // the ISSUE's 50k-edge RMAT graph
  const graph::bc_options bc_opt{.pivots = 4, .seed = 3, .grain = 64};
  const graph::pagerank_options pr_opt{.iterations = 5, .grain = 64};

  // Reference: a chaos-free 4-worker run of the whole pipeline.
  graph::csr ref_g, ref_gt;
  graph::bc_result ref_bc;
  graph::pagerank_result ref_pr;
  {
    rt::scheduler sched(4);
    sched.run([&](rt::context& ctx) {
      ref_g = graph::rmat_graph(ctx, scale, edges, 11);
      ref_gt = graph::transpose(ctx, ref_g);
      ref_bc = graph::betweenness(ctx, ref_g, ref_gt, bc_opt);
      ref_pr = graph::pagerank(ctx, ref_g, ref_gt, pr_opt);
    });
  }
  ASSERT_EQ(ref_g.edges(), edges);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    seeded_chaos chaos(seed, 4);  // declared before the scheduler
    rt::scheduler sched(4);
    sched.install_chaos(&chaos);
    graph::csr g, gt;
    graph::bc_result bc;
    graph::pagerank_result pr;
    sched.run([&](rt::context& ctx) {
      g = graph::rmat_graph(ctx, scale, edges, 11);
      gt = graph::transpose(ctx, g);
      bc = graph::betweenness(ctx, g, gt, bc_opt);
      pr = graph::pagerank(ctx, g, gt, pr_opt);
    });
    sched.remove_chaos();

    // The generated graph is the edge-draw vector, materialized.
    EXPECT_EQ(g, ref_g) << "chaos seed " << seed;
    EXPECT_EQ(gt, ref_gt) << "chaos seed " << seed;
    // The pivot list is the kernel's own DPRNG draw vector.
    EXPECT_EQ(bc.pivots, ref_bc.pivots) << "chaos seed " << seed;
    EXPECT_EQ(bc.centrality, ref_bc.centrality) << "chaos seed " << seed;
    EXPECT_EQ(bc.levels, ref_bc.levels) << "chaos seed " << seed;
    // Doubles compared with ==: reducer folds follow the frame tree, which
    // chaos cannot move.
    EXPECT_EQ(pr.rank, ref_pr.rank) << "chaos seed " << seed;
    EXPECT_EQ(pr.residuals, ref_pr.residuals) << "chaos seed " << seed;
    EXPECT_EQ(pr.iters, ref_pr.iters) << "chaos seed " << seed;
  }
}

// Cilkscreen certification of the same kernels on a reduced graph (the
// screen engines execute serially, so this rides the existing screen leg's
// budget): zero reports expected.
TEST(GraphLeg, KernelsScreenCleanOnReducedGraph) {
  const graph::csr g = graph::rmat_graph_serial(8, 2000, 11);
  const graph::csr gt = graph::transpose_serial(g);
  screen::detector d;
  screen::run_under_detector(d, [&](screen::screen_context& ctx) {
    const graph::bc_result bc = graph::betweenness(
        ctx, g, gt, graph::bc_options{.pivots = 3, .seed = 1, .grain = 16});
    const graph::pagerank_result pr = graph::pagerank(
        ctx, g, gt, graph::pagerank_options{.iterations = 3, .grain = 16});
    EXPECT_EQ(bc.centrality.size(), g.vertices());
    EXPECT_EQ(pr.rank.size(), g.vertices());
  });
  EXPECT_FALSE(d.found_races());
}

}  // namespace
