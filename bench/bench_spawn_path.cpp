// E6 companion: direct measurement of the lock-free spawn/join fast path
// (DESIGN.md §4). Where bench_serial_overhead measures whole programs under
// google-benchmark, this binary times the runtime primitives themselves and
// publishes a machine-readable artifact — BENCH_spawn_path.json — that CI's
// perf-smoke job archives and sanity-checks:
//
//   * pair_ns          one empty cilk_spawn + cilk_sync, 1 worker
//   * spawn throughput spawns/s at P = 1 and P = hardware_concurrency
//                      (fib with cutoff 0: pure spawn machinery), plus a
//                      wide parallel_for leg at P = max(2, hw) that keeps
//                      several workers hammering the join path at once
//   * slab blocks      slab block allocations per spawn, over every class,
//                      on the pair and fib legs: their closures fit in the
//                      child's frame slot, so a spawn boxes nothing (the
//                      work-first spawn path, DESIGN.md §4.7); what is left
//                      is slot-arena chunks of frames whose queued children
//                      were stolen
//   * slab flatness    re-running the contention leg against a warmed-up
//                      slab layer must add ZERO system allocations — the
//                      "never touches ::operator new at steady state" claim,
//                      measured (plus magazine refill/return counters and
//                      the wide leg's worker_stats: steal-distance mix,
//                      backoff naps, allocator traffic)
//   * p1_vs_elision    fib(30) at P = 1 against the same fib under the
//                      serial elision (rt::serial_context): the median over
//                      five interleaved rounds of T1 / Ts, the runtime's
//                      serial overhead on a spawn that runs as a call
//
// Most thresholds at the bottom are deliberately loose — far above today's
// numbers — so the job catches "the fast path grew a lock back"
// regressions, not scheduler noise on shared CI runners: the pair within
// 1.3x a conservative 150 ns shared-runner envelope (195 ns), and the wide
// leg at no less than a quarter of an 8.8M spawns/s dev-host envelope
// (2.2M, a collapse such as every task back on ::operator new). The
// exception is p1_vs_elision: both sides run on one thread of one process,
// one after the other, so the host's speed cancels out of each round's
// ratio, and its bound is 1.3x the median this build measured (as
// bench_graph's p1_vs_elision gate, EXPERIMENTS E15), which a spawn path
// that left the lean frame would exceed (EXPERIMENTS E6).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/slab.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "runtime/stats_json.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;

std::uint64_t slab_allocs() {
  return cilkpp::alloc::slab_totals().total_allocs();
}

struct pair_result {
  double best_ns = 0;
  std::uint64_t spawns = 0;
  std::uint64_t slab_allocs = 0;  ///< slab blocks taken by the timed batches
};

/// Best-of-`reps` time for one spawn+sync pair, measured over batches big
/// enough to swamp the clock. Best-of (not mean) because every perturbation
/// — IRQ, sibling CI job, frequency ramp — only ever adds time.
pair_result measure_pair_ns() {
  constexpr std::size_t batch = 200'000;
  constexpr int reps = 5;
  scheduler sched(1);
  double best = 1e30;
  std::uint64_t allocs = 0;
  sched.run([&](context& ctx) {
    for (std::size_t i = 0; i < 10'000; ++i) {  // warm arena chunks + deque
      ctx.spawn([](context&) {});
      ctx.sync();
    }
    allocs = slab_allocs();
    for (int r = 0; r < reps; ++r) {
      cilkpp::stopwatch sw;
      for (std::size_t i = 0; i < batch; ++i) {
        ctx.spawn([](context&) {});
        ctx.sync();
      }
      const double ns =
          static_cast<double>(sw.elapsed_ns()) / static_cast<double>(batch);
      if (ns < best) best = ns;
    }
    allocs = slab_allocs() - allocs;
  });
  return {best, batch * reps, allocs};
}

struct throughput {
  unsigned workers = 0;
  const char* workload = "";
  std::uint64_t spawns = 0;
  std::uint64_t slab_allocs = 0;  ///< slab blocks taken by the timed run
  double elapsed_s = 0;
  double spawns_per_sec() const {
    return elapsed_s > 0 ? static_cast<double>(spawns) / elapsed_s : 0;
  }
};

/// Spawn throughput of fib with cutoff 0 — every addition is a spawn, so
/// virtually all time is the spawn/join machinery.
throughput measure_fib_throughput(unsigned workers, unsigned n) {
  scheduler sched(workers);
  sched.run([n](context& ctx) {  // warmup
    return cilkpp::workloads::fib(ctx, n > 4 ? n - 4 : n, 0);
  });
  sched.reset_stats();
  const std::uint64_t allocs = slab_allocs();
  cilkpp::stopwatch sw;
  const std::uint64_t r =
      sched.run([n](context& ctx) { return cilkpp::workloads::fib(ctx, n, 0); });
  throughput t;
  t.workers = sched.num_workers();
  t.workload = "fib_cutoff0";
  t.elapsed_s = sw.elapsed_s();
  t.slab_allocs = slab_allocs() - allocs;
  t.spawns = sched.stats().spawns;
  cilkpp::do_not_optimize(r);
  return t;
}

/// Wide flat fan-out: a parallel_for spine with grain 1 keeps one frame
/// spawning while helpers drain the deque — the join-contention leg.
throughput measure_wide_pfor_throughput(unsigned workers, std::uint64_t n,
                                        cilkpp::rt::worker_stats* stats_out) {
  scheduler sched(workers);
  std::atomic<std::uint64_t> sink{0};
  sched.reset_stats();
  cilkpp::stopwatch sw;
  sched.run([&](context& ctx) {
    cilkpp::rt::parallel_for(ctx, std::uint64_t{0}, n,
                             [&](std::uint64_t i) {
                               sink.fetch_add(i, std::memory_order_relaxed);
                             },
                             /*grain=*/1);
  });
  throughput t;
  t.workers = sched.num_workers();
  t.workload = "wide_pfor_grain1";
  t.elapsed_s = sw.elapsed_s();
  t.spawns = sched.stats().spawns;
  if (stats_out != nullptr) *stats_out = sched.stats();
  cilkpp::do_not_optimize(sink.load());
  return t;
}

/// Interleaved rounds of the P = 1 vs elision gate, and its bound: 1.3x
/// the median ratio measured on this gate's build (EXPERIMENTS E6).
constexpr unsigned kElisionRounds = 5;
constexpr double kElisionRatioMax = 1.3 * 2.17;

struct elision_result {
  std::vector<double> elision_s;
  std::vector<double> p1_s;
  double ratio_median = 0;
  bool correct = true;
};

/// fib(30) with cutoff 0 at P = 1 and under the serial elision, in
/// kElisionRounds rounds, the side that goes first alternating. Every spawn
/// at P = 1 runs as a call, so the ratio prices the called spawn path
/// against a plain call.
elision_result measure_p1_vs_elision() {
  constexpr unsigned n = 30;
  const std::uint64_t expected = cilkpp::workloads::fib_serial(n);
  scheduler sched(1);
  elision_result e;
  {  // warm-up: both sides once
    cilkpp::rt::serial_context sc;
    e.correct &= cilkpp::workloads::fib(sc, n, 0) == expected;
    e.correct &= sched.run([](context& ctx) {
      return cilkpp::workloads::fib(ctx, n, 0);
    }) == expected;
  }
  std::vector<double> ratios;
  for (unsigned round = 0; round < kElisionRounds; ++round) {
    double el = 0.0;
    double p1 = 0.0;
    for (unsigned side = 0; side < 2; ++side) {
      cilkpp::stopwatch sw;
      std::uint64_t r = 0;
      if ((side + round) % 2 == 0) {
        cilkpp::rt::serial_context sc;
        r = cilkpp::workloads::fib(sc, n, 0);
        el = sw.elapsed_s();
      } else {
        r = sched.run([](context& ctx) { return cilkpp::workloads::fib(ctx, n, 0); });
        p1 = sw.elapsed_s();
      }
      e.correct &= r == expected;
    }
    e.elision_s.push_back(el);
    e.p1_s.push_back(p1);
    ratios.push_back(el > 0 ? p1 / el : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  e.ratio_median = ratios[ratios.size() / 2];
  return e;
}

void emit_throughput(cilkpp::json_writer& w, const throughput& t) {
  w.begin_object();
  w.field("workers", t.workers);
  w.field("workload", t.workload);
  w.field("spawns", t.spawns);
  w.field("elapsed_s", t.elapsed_s);
  w.field("spawns_per_sec", t.spawns_per_sec());
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_spawn_path.json";
  if (argc > 1) out_path = argv[1];

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;

  const pair_result pair = measure_pair_ns();
  const double pair_ns = pair.best_ns;
  const elision_result elision = measure_p1_vs_elision();
  const throughput tp1 = measure_fib_throughput(1, 24);
  const throughput tp_hw =
      hw > 1 ? measure_fib_throughput(hw, 24) : tp1;
  cilkpp::rt::worker_stats wide_stats;
  const throughput tp_wide =
      measure_wide_pfor_throughput(hw > 2 ? hw : 2, 1u << 17, &wide_stats);

  // Allocator leg: by now every size class has been through a full
  // spawn-storm, so the slab layer is warmed up — magazines populated, slabs
  // carved, depot stocked. Re-running the same contention workload (fresh
  // scheduler, fresh worker threads, so this also exercises the depot's
  // magazine-recycling across thread lifetimes) must be FLAT in system
  // allocations: every block comes from a recycled magazine.
  const auto slab_before = cilkpp::alloc::slab_totals();
  const throughput tp_steady =
      measure_wide_pfor_throughput(hw > 2 ? hw : 2, 1u << 17, nullptr);
  const auto slab_after = cilkpp::alloc::slab_totals();
  const std::uint64_t slab_steady_delta =
      slab_after.system_allocs - slab_before.system_allocs;
  cilkpp::do_not_optimize(tp_steady.spawns);

  struct block_leg {
    const char* name;
    std::uint64_t allocs;
    std::uint64_t spawns;
    double allocs_per_spawn() const {
      return spawns > 0
                 ? static_cast<double>(allocs) / static_cast<double>(spawns)
                 : 0.0;
    }
  };
  const block_leg block_legs[] = {
      {"pair", pair.slab_allocs, pair.spawns},
      {"fib_p1", tp1.slab_allocs, tp1.spawns},
      {"fib_phw", tp_hw.slab_allocs, tp_hw.spawns},
  };

  // Loose sanity thresholds (see header comment): catastrophic-only, except
  // the slab-block gate, which is the allocation-free spawn contract itself
  // (a few blocks of slack per hundred spawns; at P > 1 the arena chunks of
  // frames whose queued children were stolen take about one per thousand).
  constexpr double pair_ns_max = 1.3 * 150.0;
  constexpr double allocs_per_spawn_max = 0.01;
  constexpr double spawns_per_sec_min = 1e5;
  constexpr double wide_pfor_spawns_per_sec_min = 0.25 * 8.8e6;
  // Steady-state flatness: a warmed-up slab layer must not touch the system
  // allocator again. A handful of stragglers are tolerated (a worker thread
  // whose first magazine pop races the depot restock), a linear-in-spawns
  // count is the regression this catches.
  constexpr std::uint64_t slab_steady_delta_max = 16;
  bool ok = true;
  if (pair_ns > pair_ns_max) {
    std::fprintf(stderr, "FAIL: pair_ns %.1f > %.1f\n", pair_ns, pair_ns_max);
    ok = false;
  }
  for (const block_leg& leg : block_legs) {
    if (leg.allocs_per_spawn() > allocs_per_spawn_max) {
      std::fprintf(stderr, "FAIL: %s leg: %.4f slab blocks/spawn > %.2f\n",
                   leg.name, leg.allocs_per_spawn(), allocs_per_spawn_max);
      ok = false;
    }
  }
  for (const throughput* t : {&tp1, &tp_hw, &tp_wide}) {
    const double bound =
        t == &tp_wide ? wide_pfor_spawns_per_sec_min : spawns_per_sec_min;
    if (t->spawns_per_sec() < bound) {
      std::fprintf(stderr, "FAIL: %s @%u workers: %.0f spawns/s < %.0f\n",
                   t->workload, t->workers, t->spawns_per_sec(), bound);
      ok = false;
    }
  }
  if (!elision.correct) {
    std::fprintf(stderr, "FAIL: fib(30) differs from fib_serial(30)\n");
    ok = false;
  }
  if (elision.ratio_median > kElisionRatioMax) {
    std::fprintf(stderr,
                 "FAIL: fib(30) at P=1 takes %.2fx the elision's time "
                 "(median of %u rounds) > %.2fx\n",
                 elision.ratio_median, kElisionRounds, kElisionRatioMax);
    ok = false;
  }
  if (slab_steady_delta > slab_steady_delta_max) {
    std::fprintf(stderr,
                 "FAIL: slab system allocs not flat at steady state: "
                 "+%llu (max %llu)\n",
                 static_cast<unsigned long long>(slab_steady_delta),
                 static_cast<unsigned long long>(slab_steady_delta_max));
    ok = false;
  }

  cilkpp::json_writer w;
  w.begin_object();
  w.field("benchmark", "spawn_path");
  w.field("hardware_concurrency", hw);
  w.field("pair_ns", pair_ns);
  w.key("throughput");
  w.begin_array();
  emit_throughput(w, tp1);
  if (hw > 1) emit_throughput(w, tp_hw);
  emit_throughput(w, tp_wide);
  w.end_array();
  w.key("slab_blocks");
  w.begin_object();
  for (const block_leg& leg : block_legs) {
    w.key(leg.name);
    w.begin_object();
    w.field("allocs", leg.allocs);
    w.field("spawns", leg.spawns);
    w.field("allocs_per_spawn", leg.allocs_per_spawn());
    w.end_object();
  }
  w.end_object();
  w.key("slab");
  w.begin_object();
  w.field("system_allocs", slab_after.system_allocs);
  w.field("slabs_live", slab_after.slabs_live);
  w.field("magazines_live", slab_after.magazines_live);
  w.field("magazine_refills", slab_after.magazine_refills);
  w.field("magazine_returns", slab_after.magazine_returns);
  w.field("steady_state_system_allocs_delta", slab_steady_delta);
  w.end_object();
  w.key("p1_vs_elision");
  w.begin_object();
  w.field("workload", "fib30_cutoff0");
  w.field("rounds", kElisionRounds);
  w.field("ratio_median", elision.ratio_median);
  w.field("ratio_max", kElisionRatioMax);
  w.key("elision_s");
  w.begin_array();
  for (const double t : elision.elision_s) w.value(t);
  w.end_array();
  w.key("p1_s");
  w.begin_array();
  for (const double t : elision.p1_s) w.value(t);
  w.end_array();
  w.end_object();
  w.key("wide_pfor_worker_stats");
  cilkpp::rt::write_worker_stats(w, wide_stats);
  w.key("thresholds");
  w.begin_object();
  w.field("pair_ns_max", pair_ns_max);
  w.field("allocs_per_spawn_max", allocs_per_spawn_max);
  w.field("spawns_per_sec_min", spawns_per_sec_min);
  w.field("wide_pfor_spawns_per_sec_min", wide_pfor_spawns_per_sec_min);
  w.field("slab_steady_delta_max", slab_steady_delta_max);
  w.field("p1_vs_elision_max", kElisionRatioMax);
  w.field("passed", ok);
  w.end_object();
  w.end_object();

  const std::string doc = w.take();
  std::ofstream out(out_path);
  out << doc;
  out.close();
  std::printf("%s", doc.c_str());
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
