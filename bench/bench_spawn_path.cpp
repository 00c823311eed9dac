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
//   * pool blocks      task_pool allocations per spawn on the pair and fib
//                      legs: their closures fit in the child's frame slot,
//                      so a spawn takes no block (the work-first spawn
//                      path, DESIGN.md §4.7)
//   * slab flatness    re-running the contention leg against a warmed-up
//                      slab layer must add ZERO system allocations — the
//                      "never touches ::operator new at steady state" claim,
//                      measured (plus magazine refill/return counters and
//                      the wide leg's worker_stats: steal-distance mix,
//                      backoff naps, allocator traffic)
//
// The thresholds at the bottom are deliberately loose — an order of
// magnitude above today's numbers — so the job catches "the fast path grew
// a lock back" regressions, not scheduler noise on shared CI runners.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "alloc/slab.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats_json.hpp"
#include "runtime/task_pool.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;

std::uint64_t pool_allocs() {
  return cilkpp::rt::task_pool_totals().total_allocs();
}

struct pair_result {
  double best_ns = 0;
  std::uint64_t spawns = 0;
  std::uint64_t pool_allocs = 0;  ///< task_pool blocks taken by the timed batches
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
    allocs = pool_allocs();
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
    allocs = pool_allocs() - allocs;
  });
  return {best, batch * reps, allocs};
}

struct throughput {
  unsigned workers = 0;
  const char* workload = "";
  std::uint64_t spawns = 0;
  std::uint64_t pool_allocs = 0;  ///< task_pool blocks taken by the timed run
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
  const std::uint64_t allocs = pool_allocs();
  cilkpp::stopwatch sw;
  const std::uint64_t r =
      sched.run([n](context& ctx) { return cilkpp::workloads::fib(ctx, n, 0); });
  throughput t;
  t.workers = sched.num_workers();
  t.workload = "fib_cutoff0";
  t.elapsed_s = sw.elapsed_s();
  t.pool_allocs = pool_allocs() - allocs;
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

  const auto pool_before = cilkpp::rt::task_pool_totals();

  const pair_result pair = measure_pair_ns();
  const double pair_ns = pair.best_ns;
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

  const auto pool_after = cilkpp::rt::task_pool_totals();
  const std::uint64_t allocs =
      pool_after.total_allocs() - pool_before.total_allocs();
  const std::uint64_t frees =
      pool_after.total_frees() - pool_before.total_frees();
  std::uint64_t reused = 0;
  for (std::size_t c = 0; c < std::size(pool_after.classes); ++c) {
    reused += pool_after.classes[c].reused - pool_before.classes[c].reused;
  }
  auto per_spawn = [](std::uint64_t blocks, std::uint64_t spawns) {
    return spawns > 0 ? static_cast<double>(blocks) / static_cast<double>(spawns)
                      : 0.0;
  };
  struct pool_leg {
    const char* name;
    double allocs_per_spawn;
  };
  const pool_leg pool_legs[] = {
      {"pair", per_spawn(pair.pool_allocs, pair.spawns)},
      {"fib_p1", per_spawn(tp1.pool_allocs, tp1.spawns)},
      {"fib_phw", per_spawn(tp_hw.pool_allocs, tp_hw.spawns)},
  };

  // Loose sanity thresholds (see header comment): catastrophic-only, except
  // the pool gate, which is the allocation-free spawn contract itself (a
  // few blocks of slack per hundred spawns, none needed today).
  constexpr double pair_ns_max = 2000.0;
  constexpr double allocs_per_spawn_max = 0.01;
  constexpr double spawns_per_sec_min = 1e5;
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
  for (const pool_leg& leg : pool_legs) {
    if (leg.allocs_per_spawn > allocs_per_spawn_max) {
      std::fprintf(stderr, "FAIL: %s leg: %.4f task_pool allocs/spawn > %.2f\n",
                   leg.name, leg.allocs_per_spawn, allocs_per_spawn_max);
      ok = false;
    }
  }
  for (const throughput* t : {&tp1, &tp_hw, &tp_wide}) {
    if (t->spawns_per_sec() < spawns_per_sec_min) {
      std::fprintf(stderr, "FAIL: %s @%u workers: %.0f spawns/s < %.0f\n",
                   t->workload, t->workers, t->spawns_per_sec(),
                   spawns_per_sec_min);
      ok = false;
    }
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
  w.key("task_pool");
  w.begin_object();
  w.field("allocs", allocs);
  w.field("frees", frees);
  w.field("reused", reused);
  w.key("allocs_per_spawn");
  w.begin_object();
  for (const pool_leg& leg : pool_legs) w.field(leg.name, leg.allocs_per_spawn);
  w.end_object();
  w.field("oversize_allocs",
          pool_after.oversize_allocs() - pool_before.oversize_allocs());
  w.field("oversize_frees",
          pool_after.oversize_frees() - pool_before.oversize_frees());
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
  w.key("wide_pfor_worker_stats");
  cilkpp::rt::write_worker_stats(w, wide_stats);
  w.key("thresholds");
  w.begin_object();
  w.field("pair_ns_max", pair_ns_max);
  w.field("allocs_per_spawn_max", allocs_per_spawn_max);
  w.field("spawns_per_sec_min", spawns_per_sec_min);
  w.field("slab_steady_delta_max", slab_steady_delta_max);
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
