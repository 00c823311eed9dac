// Tests for the discrete-event work-stealing simulator and the baseline
// schedulers: the laws of Sec. 2 must hold for every simulated execution,
// and one-processor runs must take exactly T1.
#include <gtest/gtest.h>

#include "dag/analysis.hpp"
#include "dag/builder.hpp"
#include <algorithm>
#include <utility>
#include "dag/generators.hpp"
#include "sim/baselines.hpp"
#include "sim/machine.hpp"

namespace cilkpp::sim {
namespace {

using dag::analyze;
using dag::graph;
using dag::metrics;

machine_config cfg(unsigned p, std::uint64_t latency = 10, std::uint64_t seed = 1) {
  machine_config c;
  c.processors = p;
  c.steal_latency = latency;
  c.seed = seed;
  return c;
}

TEST(Machine, OneProcessorTakesExactlyT1) {
  for (const graph& g : {dag::fib_dag(12, 2, 5), dag::loop_dag(256, 8, 3),
                         dag::random_sp_dag(200, 9, 7)}) {
    const metrics m = analyze(g);
    const sim_result r = simulate(g, cfg(1));
    EXPECT_EQ(r.makespan, m.work);  // no steals, no overhead on one processor
    EXPECT_EQ(r.work, m.work);
    EXPECT_EQ(r.steals, 0u);
    EXPECT_DOUBLE_EQ(r.utilization, 1.0);
  }
}

TEST(Machine, ChainGainsNothingFromProcessors) {
  const graph g = dag::chain(100, 10);
  const sim_result r1 = simulate(g, cfg(1));
  const sim_result r8 = simulate(g, cfg(8));
  EXPECT_EQ(r1.makespan, 1000u);
  EXPECT_EQ(r8.makespan, 1000u);  // span law: a serial chain cannot speed up
}

class MachineLaws
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(MachineLaws, WorkAndSpanLawsHold) {
  const auto [procs, seed] = GetParam();
  for (const graph& g :
       {dag::fib_dag(14, 3, 20), dag::loop_dag(512, 4, 25),
        dag::wide_fan(64, 500), dag::random_sp_dag(400, 30, seed + 17)}) {
    const metrics m = analyze(g);
    for (const spawn_policy policy :
         {spawn_policy::child_first, spawn_policy::parent_first,
          spawn_policy::lazy}) {
      machine_config c = cfg(procs, 10, seed);
      c.policy = policy;
      const sim_result r = simulate(g, c);
      // Work Law (1): TP ≥ T1/P, i.e. P·TP ≥ T1.
      EXPECT_GE(static_cast<std::uint64_t>(procs) * r.makespan, m.work);
      // Span Law (2): TP ≥ T∞.
      EXPECT_GE(r.makespan, m.span);
      // All work executed exactly once.
      EXPECT_EQ(r.work, m.work);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MachineLaws,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u, 64u),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Machine, DeterministicInSeed) {
  const graph g = dag::fib_dag(14, 3, 20);
  const sim_result a = simulate(g, cfg(8, 10, 42));
  const sim_result b = simulate(g, cfg(8, 10, 42));
  const sim_result c = simulate(g, cfg(8, 10, 43));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
  // A different seed gives a different (but still law-abiding) schedule;
  // makespans may coincide, steal patterns rarely do.
  EXPECT_TRUE(c.makespan >= analyze(g).span);
}

TEST(Machine, GreedyBoundWithConstant) {
  // Sec. 3.1: TP ≤ T1/P + O(T∞). With steal latency L, the constant in the
  // O(·) is a small multiple of L; check a generous c = 4(L+1).
  const std::uint64_t latency = 10;
  for (unsigned procs : {2u, 4u, 8u, 16u}) {
    for (const graph& g : {dag::fib_dag(16, 3, 20), dag::loop_dag(2048, 8, 10)}) {
      const metrics m = analyze(g);
      const sim_result r = simulate(g, cfg(procs, latency, 5));
      const double bound = static_cast<double>(m.work) / procs +
                           4.0 * static_cast<double>(latency + 1) *
                               static_cast<double>(m.span);
      EXPECT_LE(static_cast<double>(r.makespan), bound)
          << "P=" << procs << " work=" << m.work << " span=" << m.span;
    }
  }
}

TEST(Machine, LazySpawningKeepsTheGreedyBound) {
  // E5's constant under the runtime's own policy: a spawn on a deque that
  // holds P − 1 strands runs as a call, and its continuation waits for the
  // child's frame. The same generous c = 4(L+1) holds — also on the dag
  // built to hurt it, whose serial child is spawned on a full deque while
  // its continuation holds all the parallelism.
  const std::uint64_t latency = 10;
  for (unsigned procs : {2u, 4u, 8u, 16u}) {
    for (const graph& g :
         {dag::fib_dag(16, 3, 20), dag::loop_dag(2048, 8, 10),
          dag::lazy_adversary_dag(procs - 1, 20'000, 4096, 8, 10)}) {
      const metrics m = analyze(g);
      machine_config c = cfg(procs, latency, 5);
      c.policy = spawn_policy::lazy;
      const sim_result r = simulate(g, c);
      const double bound = static_cast<double>(m.work) / procs +
                           4.0 * static_cast<double>(latency + 1) *
                               static_cast<double>(m.span);
      EXPECT_LE(static_cast<double>(r.makespan), bound)
          << "P=" << procs << " work=" << m.work << " span=" << m.span;
    }
  }
}

TEST(Machine, LazySpawningOnOneProcessorIsTheSerialSchedule) {
  for (const graph& g : {dag::fib_dag(12, 2, 5), dag::loop_dag(256, 8, 3),
                         dag::random_sp_dag(200, 9, 7)}) {
    machine_config c = cfg(1);
    c.policy = spawn_policy::lazy;
    const sim_result r = simulate(g, c);
    EXPECT_EQ(r.makespan, analyze(g).work);
    // Only the source strand was ever queued: every spawn ran as a call.
    EXPECT_EQ(r.peak_residency, 1u);
  }
}

TEST(Machine, NearLinearSpeedupWhenParallelismDominates) {
  // Parallelism ≈ 512·25/(4·25+log splits) ≫ 8: expect ≥ 80% of perfect.
  const graph g = dag::loop_dag(4096, 4, 50);
  const metrics m = analyze(g);
  ASSERT_GT(m.parallelism(), 100.0);
  const sim_result r = simulate(g, cfg(8, 5, 3));
  EXPECT_GT(r.speedup(m.work), 0.8 * 8);
}

TEST(Machine, SpeedupCappedByParallelism) {
  // Fig. 2's dag has parallelism 2: 16 processors can't beat speedup 2.
  const graph g = dag::figure2_dag();
  const sim_result r = simulate(g, cfg(16, 1, 9));
  EXPECT_LE(r.speedup(18), 2.0 + 1e-9);
}

TEST(Machine, StealsAreZeroOnOneProcessorAndBoundedOtherwise) {
  const graph g = dag::fib_dag(15, 3, 30);
  EXPECT_EQ(simulate(g, cfg(1)).steals, 0u);
  const sim_result r = simulate(g, cfg(8, 10, 4));
  // Every steal moves one strand; can't exceed strand count.
  EXPECT_LE(r.steals, g.num_vertices());
  EXPECT_GE(r.steal_attempts, r.steals);
}

TEST(Machine, StackBoundPTimesSerial) {
  // Sec. 3.1: "on P processors, a Cilk++ program consumes at most P times
  // the stack space of a single-processor execution."
  const graph g = dag::fib_dag(14, 2, 10);
  const std::uint64_t s1 = g.max_depth() + 1;  // serial stack in frames
  for (unsigned procs : {1u, 2u, 4u, 8u, 16u}) {
    const sim_result r = simulate(g, cfg(procs, 10, 7));
    EXPECT_LE(r.peak_stack_frames, procs * s1) << "P=" << procs;
  }
}

TEST(Machine, ChildFirstKeepsSpawnLoopResidencyLow) {
  // The Sec. 3.1 loop: work stealing holds O(P) enabled-but-waiting strands;
  // the naive FIFO queue materializes all n.
  const unsigned procs = 4;
  const graph g = dag::spawn_loop_dag(10000, 20);
  const sim_result ws = simulate(g, cfg(procs, 10, 11));
  EXPECT_LE(ws.peak_residency, 64u);  // O(P · depth), depth = 2 here

  baseline_config bc;
  bc.processors = procs;
  const sim_result fifo = simulate_central_queue(g, bc, queue_order::fifo);
  EXPECT_GT(fifo.peak_residency, 5000u);  // blows up with n
}

TEST(Machine, ParentFirstPolicyAlsoCorrect) {
  machine_config c = cfg(8, 10, 2);
  c.policy = spawn_policy::parent_first;
  const graph g = dag::fib_dag(14, 3, 20);
  const metrics m = analyze(g);
  const sim_result r = simulate(g, c);
  EXPECT_EQ(r.work, m.work);
  EXPECT_GE(r.makespan, m.span);
}

TEST(Machine, AdversaryOfflineWindowDelaysWork) {
  // One processor, offline for [0, 1000): everything waits.
  const graph g = dag::chain(10, 10);
  machine_config c = cfg(1);
  c.offline = {{offline_interval{0, 1000}}};
  const sim_result r = simulate(g, c);
  EXPECT_GE(r.makespan, 1100u);
}

TEST(Machine, StealingRescuesOfflineProcessorsWork) {
  // P=4, highly parallel dag; processor 0 goes offline early. With work
  // stealing the others absorb its deque; makespan stays near T1/3.
  const graph g = dag::loop_dag(1024, 4, 100);
  const metrics m = analyze(g);
  machine_config c = cfg(4, 10, 8);
  c.offline = {{offline_interval{50, 100000000}}};
  const sim_result ws = simulate(g, c);
  // 3 online processors: expect between T1/4 and ~1.5·T1/3.
  EXPECT_LT(static_cast<double>(ws.makespan),
            1.5 * static_cast<double>(m.work) / 3.0);

  // Static local scheduling strands processor 0's queued work until the
  // window ends: makespan blows up to the window edge.
  baseline_config bc;
  bc.processors = 4;
  bc.offline = c.offline;
  const sim_result st = simulate_static_local(g, bc);
  EXPECT_GT(st.makespan, ws.makespan);
}

// --- Baselines. ---

TEST(Baselines, CentralQueueOneProcessorMatchesWork) {
  const graph g = dag::fib_dag(12, 2, 5);
  const metrics m = analyze(g);
  baseline_config bc;
  bc.processors = 1;
  for (queue_order o : {queue_order::fifo, queue_order::lifo}) {
    const sim_result r = simulate_central_queue(g, bc, o);
    EXPECT_EQ(r.makespan, m.work);
    EXPECT_EQ(r.work, m.work);
  }
}

TEST(Baselines, CentralQueueBlowsUpOnSpawnLoopEitherOrder) {
  // Under eager expansion the producer never yields to its children, so the
  // shared queue grows with n regardless of pop order; only depth-first
  // (child-first) scheduling keeps residency bounded.
  baseline_config bc;
  bc.processors = 4;
  const graph g = dag::spawn_loop_dag(10000, 20);
  EXPECT_GT(simulate_central_queue(g, bc, queue_order::lifo).peak_residency, 5000u);
  EXPECT_GT(simulate_central_queue(g, bc, queue_order::fifo).peak_residency, 5000u);
}

TEST(Machine, LazySpawningBoundsSpawnLoopResidency) {
  // E14b's spawn loop at P = 16: parent-first floods the producer's deque
  // (92,523 strands at once), while lazy spawning stops pushing at P − 1
  // per deque, so at most P·(P − 1) strands wait anywhere.
  const unsigned procs = 16;
  const graph g = dag::spawn_loop_dag(100'000, 50);
  machine_config c = cfg(procs, 10, 23);
  c.policy = spawn_policy::parent_first;
  EXPECT_EQ(simulate(g, c).peak_residency, 92'523u);
  c.policy = spawn_policy::lazy;
  const sim_result r = simulate(g, c);
  EXPECT_LE(r.peak_residency, procs * (procs - 1));
  for (const proc_stats& s : r.per_proc) EXPECT_LE(s.peak_deque, procs - 1);
}

TEST(Machine, ParentFirstStealingAlsoBlowsUpOnSpawnLoop) {
  // Ablation E14: the help-first policy leaves children in the producer's
  // deque faster than thieves drain them — the memory guarantee of Sec. 3.1
  // belongs to the child-first (work-first) policy specifically.
  machine_config c = cfg(4, 10, 11);
  c.policy = spawn_policy::parent_first;
  const graph g = dag::spawn_loop_dag(10000, 20);
  EXPECT_GT(simulate(g, c).peak_residency, 1000u);
}

TEST(Baselines, LawsHoldForAllSchedulers) {
  const graph g = dag::random_sp_dag(300, 20, 21);
  const metrics m = analyze(g);
  baseline_config bc;
  bc.processors = 8;
  for (const sim_result& r :
       {simulate_central_queue(g, bc, queue_order::fifo),
        simulate_central_queue(g, bc, queue_order::lifo),
        simulate_static_local(g, bc)}) {
    EXPECT_GE(8 * r.makespan, m.work);
    EXPECT_GE(r.makespan, m.span);
    EXPECT_EQ(r.work, m.work);
  }
}

TEST(Baselines, StaticLocalNeverMovesWork) {
  // With everything seeded on processor 0 (single source), static local
  // scheduling runs the whole dag there: makespan == T1 despite P=8.
  const graph g = dag::fib_dag(12, 2, 5);
  const metrics m = analyze(g);
  baseline_config bc;
  bc.processors = 8;
  const sim_result r = simulate_static_local(g, bc);
  EXPECT_EQ(r.makespan, m.work);
  EXPECT_EQ(r.per_proc[0].busy, m.work);
}

TEST(Machine, TraceCoversEveryStrandConsistently) {
  const graph g = dag::fib_dag(12, 3, 10);
  machine_config c = cfg(4, 5, 3);
  c.collect_trace = true;
  const sim_result r = simulate(g, c);
  ASSERT_EQ(r.trace.size(), g.num_vertices());
  std::vector<int> seen(g.num_vertices(), 0);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> busy(4);
  for (const trace_entry& e : r.trace) {
    ++seen[e.vertex];
    EXPECT_EQ(e.end - e.start, g.vertex_work(e.vertex));
    EXPECT_LE(e.end, r.makespan);
    busy[e.proc].emplace_back(e.start, e.end);
  }
  for (int count : seen) EXPECT_EQ(count, 1);  // each strand exactly once
  // No processor runs two strands at the same time.
  for (auto& intervals : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second);
  }
}

TEST(Machine, TraceRespectsDependencies) {
  const graph g = dag::random_sp_dag(200, 8, 77);
  machine_config c = cfg(8, 3, 7);
  c.collect_trace = true;
  const sim_result r = simulate(g, c);
  std::vector<std::uint64_t> start(g.num_vertices()), finish(g.num_vertices());
  for (const trace_entry& e : r.trace) {
    start[e.vertex] = e.start;
    finish[e.vertex] = e.end;
  }
  for (dag::vertex_id v = 0; v < g.num_vertices(); ++v)
    for (dag::vertex_id s2 : g.successors(v))
      EXPECT_GE(start[s2], finish[v]) << v << " -> " << s2;
}

// --- Mutex-guarded strands (experiment E12's contention machinery). ---

TEST(Locks, CriticalSectionsSerialize) {
  // A fan of 16 strands, each entirely inside one critical section of the
  // same mutex: whatever P is, the makespan is the serial sum.
  dag::sp_builder b;
  for (int i = 0; i < 16; ++i) {
    b.begin_spawn();
    b.begin_locked(0);
    b.account(100);
    b.end_locked();
    b.end_spawn();
  }
  b.sync();
  const graph g = std::move(b).finish();

  machine_config c = cfg(8, 1, 3);
  c.lock_transfer_cost = 0;
  const sim_result r = simulate(g, c);
  EXPECT_GE(r.makespan, 1600u);  // 16 sections x 100, serialized
  EXPECT_GT(r.lock_contentions, 0u);
  EXPECT_GT(r.lock_wait_time, 0u);
}

TEST(Locks, TransferCostChargedOnCrossProcessorHandoffOnly) {
  dag::sp_builder b;
  for (int i = 0; i < 8; ++i) {
    b.begin_spawn();
    b.begin_locked(0);
    b.account(50);
    b.end_locked();
    b.end_spawn();
  }
  b.sync();
  const graph g = std::move(b).finish();

  machine_config c1 = cfg(1, 1, 3);
  c1.lock_transfer_cost = 1000;
  const sim_result serial = simulate(g, c1);
  EXPECT_EQ(serial.lock_transfers, 0u);  // one processor: no handoffs

  machine_config c4 = cfg(4, 1, 3);
  c4.lock_transfer_cost = 1000;
  const sim_result parallel = simulate(g, c4);
  EXPECT_GT(parallel.lock_transfers, 0u);
  // Handoffs make the contended 4-processor run slower than serial — the
  // paper's Sec. 5 anecdote, now measured.
  EXPECT_GT(parallel.makespan, serial.makespan);
}

TEST(Locks, IndependentMutexesDoNotInterfere) {
  // Two strand groups on two different locks: they serialize within the
  // group but run in parallel across groups.
  dag::sp_builder b;
  for (int lock = 0; lock < 2; ++lock) {
    for (int i = 0; i < 8; ++i) {
      b.begin_spawn();
      b.begin_locked(static_cast<std::uint32_t>(lock));
      b.account(100);
      b.end_locked();
      b.end_spawn();
    }
  }
  b.sync();
  const graph g = std::move(b).finish();
  machine_config c = cfg(4, 1, 5);
  c.lock_transfer_cost = 0;
  const sim_result r = simulate(g, c);
  // Perfect 2-lock parallelism would give ~800; full serialization 1600.
  EXPECT_LT(r.makespan, 1400u);  // well below full serialization (1600+)
  EXPECT_GE(r.makespan, 800u);
}

TEST(Locks, UnlockedDagReportsNoLockActivity) {
  const graph g = dag::fib_dag(12, 3, 10);
  const sim_result r = simulate(g, cfg(4));
  EXPECT_EQ(r.lock_contentions, 0u);
  EXPECT_EQ(r.lock_transfers, 0u);
  EXPECT_EQ(r.lock_wait_time, 0u);
}

TEST(Locks, LawsStillHoldWithLocks) {
  // Locks can only slow things down; the Work/Span Laws still bound below.
  dag::sp_builder b;
  for (int i = 0; i < 32; ++i) {
    b.begin_spawn();
    b.account(200);
    b.begin_locked(0);
    b.account(10);
    b.end_locked();
    b.end_spawn();
  }
  b.sync();
  const graph g = std::move(b).finish();
  const metrics m = analyze(g);
  for (unsigned procs : {1u, 4u, 16u}) {
    const sim_result r = simulate(g, cfg(procs, 5, 7));
    EXPECT_GE(r.makespan, m.span);
    EXPECT_GE(static_cast<std::uint64_t>(procs) * r.makespan, m.work);
    EXPECT_EQ(r.work, m.work);
  }
}

}  // namespace
}  // namespace cilkpp::sim
