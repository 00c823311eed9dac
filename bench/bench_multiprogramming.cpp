// E9 (Sec. 3.2): "If a worker becomes descheduled by the operating system
// … the work of that worker can be stolen away by other workers. Thus,
// Cilk++ programs tend to play nicely with other jobs on the system."
//
// An adversary takes processors offline for windows of the execution. With
// work stealing, the survivors absorb the victims' deques and the makespan
// degrades roughly in proportion to the lost capacity; with static
// (no-stealing) scheduling, work stranded on an offline processor stalls
// the whole computation until the window ends.
//
// A second, real-runtime leg asks the multi-tenant version of the same
// question: the same mixed job load pushed through (a) one scheduler shared
// by both tenants and (b) two affinity-partitioned runtimes, comparing
// throughput and tail latency in one artifact (BENCH_multiprogramming.json).
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "serve/job_server.hpp"
#include "serve/runtime_set.hpp"
#include "sim/baselines.hpp"
#include "sim/machine.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

namespace {

using namespace cilkpp;
using namespace cilkpp::serve;

struct leg_result {
  std::string config;
  double elapsed_s = 0;
  std::uint64_t completed = 0;
  // Per-tenant end-to-end tails (tenant 0 = fib, tenant 1 = qsort).
  std::vector<tenant_stats> tenants;
  double jobs_per_sec() const {
    return elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0;
  }
};

/// Pushes the same mixed load (fib tenant + qsort tenant) through whatever
/// runtime topology `opts` describes; `runtime_of` maps tenant -> runtime.
leg_result run_mixed_load(const char* config,
                          std::vector<rt::scheduler_options> opts,
                          std::size_t fib_runtime, std::size_t qsort_runtime) {
  constexpr std::size_t jobs_per_tenant = 2000;
  runtime_set set(std::move(opts));
  tenant_options fib_t;
  fib_t.name = "fib";
  fib_t.runtime = fib_runtime;
  fib_t.queue_capacity = 512;
  fib_t.batch_max = 64;
  tenant_options qsort_t;
  qsort_t.name = "qsort";
  qsort_t.runtime = qsort_runtime;
  qsort_t.queue_capacity = 512;
  qsort_t.batch_max = 32;
  job_server srv(set, {fib_t, qsort_t});

  const std::vector<double> unsorted = workloads::random_doubles(192, 42);
  for (int i = 0; i < 32; ++i) {  // warmup
    srv.submit(0, [](rt::context& ctx) { return workloads::fib(ctx, 12, 12); })
        .get();
  }
  srv.drain();
  srv.reset_stats();

  stopwatch sw;
  std::thread fib_thread([&] {
    for (std::size_t i = 0; i < jobs_per_tenant; ++i) {
      auto f = srv.try_submit(0, [](rt::context& ctx) {
        return workloads::fib(ctx, 14, 14);
      });
      if (f) do_not_optimize(f->get());
    }
  });
  std::thread qsort_thread([&] {
    for (std::size_t i = 0; i < jobs_per_tenant; ++i) {
      auto f = srv.try_submit(1, [&unsorted](rt::context& ctx) {
        std::vector<double> v = unsorted;
        workloads::qsort(ctx, v.begin(), v.end());
        return v.front();
      });
      if (f) do_not_optimize(f->get());
    }
  });
  fib_thread.join();
  qsort_thread.join();
  srv.drain();

  leg_result r;
  r.config = config;
  r.elapsed_s = sw.elapsed_s();
  r.tenants.push_back(srv.tenant_snapshot(0));
  r.tenants.push_back(srv.tenant_snapshot(1));
  for (const tenant_stats& s : r.tenants) r.completed += s.completed;
  return r;
}

void emit_leg(json_writer& w, const leg_result& r) {
  w.begin_object();
  w.field("config", r.config);
  w.field("elapsed_s", r.elapsed_s);
  w.field("jobs_completed", r.completed);
  w.field("jobs_per_sec", r.jobs_per_sec());
  w.key("tenants");
  w.begin_array();
  for (const tenant_stats& s : r.tenants) {
    w.begin_object();
    w.field("tenant", s.name);
    const latency_histogram& h = s.latency.total_ns();
    w.field("count", h.total());
    if (h.total() > 0) {
      w.field("p50_ns", h.p50());
      w.field("p99_ns", h.p99());
      w.field("p999_ns", h.p999());
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// The serve leg: shared scheduler vs partitioned runtime_set, one artifact.
void run_serve_leg() {
  std::cout << "\n=== E9b: shared scheduler vs partitioned runtimes "
               "(real runtime, cilk::serve) ===\n\n";

  // (a) both tenants share one scheduler sized to the whole machine;
  // (b) two affinity-partitioned runtimes, one tenant each.
  std::vector<rt::scheduler_options> shared(1);
  shared[0].name = "shared";
  const leg_result a = run_mixed_load("shared", std::move(shared), 0, 0);
  const leg_result b =
      run_mixed_load("partitioned", runtime_set::partitioned(2), 0, 1);

  table t{"config", "jobs/s", "fib p99 (us)", "qsort p99 (us)"};
  for (const leg_result* r : {&a, &b}) {
    t.row(r->config, r->jobs_per_sec(),
          static_cast<double>(r->tenants[0].latency.total_ns().p99()) / 1e3,
          static_cast<double>(r->tenants[1].latency.total_ns().p99()) / 1e3);
  }
  t.print(std::cout);

  json_writer w;
  w.begin_object();
  w.field("benchmark", "multiprogramming_serve");
  unsigned hw = std::thread::hardware_concurrency();
  w.field("hardware_concurrency", hw == 0 ? 1 : hw);
  w.key("legs");
  w.begin_array();
  emit_leg(w, a);
  emit_leg(w, b);
  w.end_array();
  w.end_object();
  std::ofstream out("BENCH_multiprogramming.json");
  out << w.take();
  std::cout << "\nwrote BENCH_multiprogramming.json\n"
               "Reading: partitioning trades peak throughput for tail\n"
               "insulation — one tenant's burst cannot queue behind the\n"
               "other's batch on a runtime it does not share. (On a 1-core\n"
               "host both configs share the core; the isolation is still\n"
               "structural, the insulation only statistical.)\n";
}

}  // namespace

int main() {
  using namespace cilkpp;
  std::cout << "=== E9: multiprogrammed environments (descheduled workers) ===\n\n";

  const dag::graph g = dag::loop_dag(8192, 8, 50);
  const dag::metrics m = dag::analyze(g);
  constexpr unsigned procs = 8;

  // Baseline makespans with all processors online.
  sim::machine_config base;
  base.processors = procs;
  base.steal_latency = 10;
  base.seed = 21;
  const auto t_online = sim::simulate(g, base).makespan;

  table t{"offline procs", "window", "work-steal T_P", "vs online",
          "static-local T_P", "vs online"};
  const std::uint64_t horizon = 4 * t_online;  // long windows: truly lost capacity
  for (const unsigned victims : {1u, 2u, 4u}) {
    for (const std::uint64_t window_start : {t_online / 4, std::uint64_t{0}}) {
      sim::machine_config cfg = base;
      cfg.offline.assign(victims, {sim::offline_interval{window_start, horizon}});
      const auto ws = sim::simulate(g, cfg);

      sim::baseline_config bc;
      bc.processors = procs;
      bc.seed = 21;
      bc.offline = cfg.offline;
      const auto st = sim::simulate_static_local(g, bc);

      std::string window = "[";
      window += table::format_cell(window_start);
      window += ",inf)";
      t.row(victims, window, ws.makespan,
            static_cast<double>(ws.makespan) / static_cast<double>(t_online),
            st.makespan,
            static_cast<double>(st.makespan) / static_cast<double>(t_online));
    }
  }
  t.set_title("P = 8, cilk_for dag, T1 = " + table::format_cell(m.work) +
              ", online T_8 = " + table::format_cell(t_online));
  t.print(std::cout);

  std::cout << "\nReading: losing k of 8 workers costs work stealing about\n"
               "8/(8-k) in makespan (graceful); static scheduling strands the\n"
               "victims' queues and keeps the survivors idle.\n";

  run_serve_leg();
  return 0;
}
