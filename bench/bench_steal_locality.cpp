// E17 companion: the locality/allocator half of the scheduler story
// (DESIGN.md §4.11). Publishes BENCH_alloc.json for CI's perf-smoke job:
//
//   * steal-distance mix   per-bucket log2 histogram of |victim - thief|
//                          distance over a steal-heavy mix at P = 4,
//                          repeated for at least 200 ms — the near-first
//                          probe order should concentrate steals in the
//                          low buckets
//   * refill rate          fraction of slab blocks that crossed the depot
//                          (magazine_refills x capacity / blocks served):
//                          batching means this is a small fraction, i.e.
//                          most allocations are a thread-local freelist pop
//   * contention speedup   wide parallel_for (grain 1) throughput at
//                          P = 2 over P = 1 — the leg the slab layer and
//                          the burst lowering were built for
//
// Thresholds are catastrophic-only (shared CI runners): steals must happen
// at all, the refill rate must show batching, and P = 2 must not collapse.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "alloc/slab.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats_json.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;
using cilkpp::rt::worker_stats;

struct steal_mix {
  worker_stats stats;  ///< merged over every run
  unsigned runs = 0;
};

/// A steal-heavy mixed workload: recursive fib keeps deques deep, the wide
/// loop keeps the join path hot. One run takes a few milliseconds, which
/// pool threads parked on a loaded host can miss entirely, so the mix is
/// repeated on one scheduler until it has run for at least `floor_s` of
/// wall clock; the scheduler's counters accumulate across the runs.
steal_mix run_steal_mix(unsigned workers, double floor_s) {
  scheduler sched(workers);
  std::atomic<std::uint64_t> sink{0};
  steal_mix mix;
  cilkpp::stopwatch sw;
  do {
    sched.run([&](context& ctx) {
      cilkpp::do_not_optimize(cilkpp::workloads::fib(ctx, 22, 4));
      cilkpp::rt::parallel_for(ctx, std::uint64_t{0}, std::uint64_t{1} << 15,
                               [&](std::uint64_t i) {
                                 sink.fetch_add(i, std::memory_order_relaxed);
                               },
                               /*grain=*/1);
    });
    ++mix.runs;
  } while (sw.elapsed_s() < floor_s);
  cilkpp::do_not_optimize(sink.load());
  mix.stats = sched.stats();
  return mix;
}

/// Best-of-3 wide-pfor throughput (spawns/s) at the given worker count.
double wide_pfor_rate(unsigned workers) {
  constexpr std::uint64_t n = std::uint64_t{1} << 17;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
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
    const double rate =
        static_cast<double>(sched.stats().spawns) / sw.elapsed_s();
    if (rate > best) best = rate;
    cilkpp::do_not_optimize(sink.load());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_alloc.json";
  if (argc > 1) out_path = argv[1];

  // Warm the slab layer (and the depot's recycled-magazine stacks) before
  // anything is measured, mirroring real steady-state operation.
  (void)run_steal_mix(2, /*floor_s=*/0);

  const auto slab_before = cilkpp::alloc::slab_totals();
  const steal_mix repeated = run_steal_mix(4, /*floor_s=*/0.2);
  const worker_stats& mix = repeated.stats;
  const auto slab_after = cilkpp::alloc::slab_totals();

  std::uint64_t total_steals = 0;
  std::uint64_t near_steals = 0;  // buckets 0 and 1: distance <= 1
  for (std::size_t b = 0; b < cilkpp::rt::steal_distance_buckets; ++b) {
    total_steals += mix.steal_distance[b];
    if (b <= 1) near_steals += mix.steal_distance[b];
  }
  const double near_fraction =
      total_steals > 0
          ? static_cast<double>(near_steals) / static_cast<double>(total_steals)
          : 0;

  const std::uint64_t blocks_served =
      slab_after.total_allocs() - slab_before.total_allocs();
  const std::uint64_t refills =
      slab_after.magazine_refills - slab_before.magazine_refills;
  const double refill_rate =
      blocks_served > 0
          ? static_cast<double>(refills * cilkpp::alloc::magazine_capacity) /
                static_cast<double>(blocks_served)
          : 0;

  const double rate_p1 = wide_pfor_rate(1);
  const double rate_p2 = wide_pfor_rate(2);
  const double speedup = rate_p1 > 0 ? rate_p2 / rate_p1 : 0;

  // Catastrophic-only gates (see header comment).
  bool ok = true;
  if (total_steals == 0) {
    std::fprintf(stderr, "FAIL: no steals recorded in the P=4 mix run\n");
    ok = false;
  }
  if (blocks_served > 0 && refill_rate > 0.5) {
    std::fprintf(stderr, "FAIL: refill rate %.3f > 0.5 (batching dead?)\n",
                 refill_rate);
    ok = false;
  }
  if (speedup < 0.2) {
    std::fprintf(stderr, "FAIL: P=2/P=1 contention speedup %.2f < 0.2\n",
                 speedup);
    ok = false;
  }

  cilkpp::json_writer w;
  w.begin_object();
  w.field("benchmark", "steal_locality");
  w.key("steal_mix");
  w.begin_object();
  w.field("workers", 4);
  w.field("runs", repeated.runs);
  w.field("steals", total_steals);
  w.field("near_fraction", near_fraction);
  w.key("steal_distance");
  w.begin_array();
  for (std::uint64_t b : mix.steal_distance) w.value(b);
  w.end_array();
  w.field("backoff_naps", mix.backoff_naps);
  w.end_object();
  w.key("allocator");
  w.begin_object();
  w.field("blocks_served", blocks_served);
  w.field("magazine_refills", refills);
  w.field("refill_rate", refill_rate);
  w.field("magazine_returns",
          slab_after.magazine_returns - slab_before.magazine_returns);
  w.field("slabs_live", slab_after.slabs_live);
  w.field("system_allocs", slab_after.system_allocs);
  w.end_object();
  w.key("contention");
  w.begin_object();
  w.field("wide_pfor_p1_spawns_per_sec", rate_p1);
  w.field("wide_pfor_p2_spawns_per_sec", rate_p2);
  w.field("speedup_p2_over_p1", speedup);
  w.end_object();
  w.key("mix_worker_stats");
  cilkpp::rt::write_worker_stats(w, mix);
  w.key("thresholds");
  w.begin_object();
  w.field("refill_rate_max", 0.5);
  w.field("speedup_min", 0.2);
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
