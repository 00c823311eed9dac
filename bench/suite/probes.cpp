// Microbenchmarks of single layers, run after the window in traced runs
// only. Each times a public entry point in batches and reports the median
// per operation (and the IQR as a detail), priced against the owner-side
// synchronization a work-stealing scheduler needs at all. Every traced run
// also reports the graph and serve layers: a workload that does not run
// them borrows them from a short run of graph_bcpr or serve_light.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "alloc/slab.hpp"
#include "deque/chase_lev.hpp"
#include "hyper/monoid.hpp"
#include "hyper/reducer.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "suite.hpp"
#include "support/timing.hpp"

namespace cilkbench {
namespace {

using namespace cilkpp;

constexpr int batches = 21;
constexpr std::size_t pairs_per_batch = 200'000;
constexpr std::size_t ops_per_batch = 1'000'000;

/// Runs `batch(n)` `batches` times and summarizes ns per operation.
template <typename Batch>
summary per_op_ns(std::size_t n, Batch&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    batch(n);
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
  }
  return summarize(std::move(ns));
}

void add(result& r, const char* name, const summary& s, const char* unit) {
  r.layer.push_back({name, s.median, unit});
  r.detail.push_back({std::string(name) + "_iqr", s.q3 - s.q1, unit});
}

/// Length of the window of a short run made only for its layer numbers.
constexpr double layer_run_seconds = 1.0;

/// Adds to r the metrics of `layer` ("graph." or "serve.") from a short
/// traced run of `workload`, unless r has them from its own window. The
/// short run's checks count in r.
void borrow_layer(result& r, const options& opt, const std::string& layer,
                  const char* workload, result (*run)(const options&)) {
  for (const metric& m : r.layer) {
    if (m.name.starts_with(layer)) return;
  }
  options short_opt = opt;
  short_opt.workload = workload;
  short_opt.seconds = layer_run_seconds;
  short_opt.trace = true;
  const result s = run(short_opt);
  r.attempted += s.attempted;
  r.failed += s.failed;
  for (const metric& m : s.layer) {
    if (m.name.starts_with(layer)) r.layer.push_back(m);
  }
}

/// Addition whose identity() counts how many views the runtime creates.
struct counting_add {
  using value_type = std::uint64_t;
  static inline std::atomic<std::uint64_t> identities{0};
  static value_type identity() {
    identities.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  static void reduce(value_type& left, value_type&& right) { left += right; }
};

}  // namespace

void run_probes(result& r, const options& opt) {
  borrow_layer(r, opt, "graph.", "graph_bcpr", run_graph_bcpr);
  borrow_layer(r, opt, "serve.", "serve_light", run_serve_light);

  {
    rt::scheduler sched(1);
    summary pair;
    sched.run([&](rt::context& ctx) {
      pair = per_op_ns(pairs_per_batch, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          ctx.spawn([](rt::context&) {});
          ctx.sync();
        }
      });
    });
    add(r, "runtime.pair_ns", pair, "ns");
  }

  {
    rt::scheduler sched(cpu_count());
    constexpr std::uint64_t iterations = std::uint64_t{1} << 20;
    std::vector<double> ns;
    for (int rep = 0; rep < 11; ++rep) {
      const std::uint64_t t0 = now_ns();
      sched.run([&](rt::context& ctx) {
        rt::parallel_for(ctx, std::uint64_t{0}, iterations,
                         [](std::uint64_t i) { do_not_optimize(i); }, /*grain=*/1);
      });
      ns.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(iterations));
    }
    add(r, "runtime.pfor_iter_ns", summarize(std::move(ns)), "ns");
  }

  {
    chase_lev_deque<std::uintptr_t> dq;
    add(r, "deque.push_pop_ns", per_op_ns(ops_per_batch, [&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            dq.push_bottom(i);
            do_not_optimize(dq.pop_bottom());
          }
        }), "ns");
    // One thief steals a deque the owner filled beforehand: creating the
    // thief thread orders every push before its first steal. The thief
    // times its own loop, so thread start-up is not counted.
    std::vector<double> steal_ns;
    std::size_t lost = 0;
    for (int b = 0; b < batches; ++b) {
      for (std::size_t i = 0; i < pairs_per_batch; ++i) dq.push_bottom(i);
      std::thread thief([&] {
        std::uintptr_t out = 0;
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = 0; i < pairs_per_batch; ++i) {
          if (dq.steal(out) != steal_result::success || out != i) ++lost;
        }
        steal_ns.push_back(static_cast<double>(now_ns() - t0) / pairs_per_batch);
      });
      thief.join();
    }
    r.check(lost == 0,
            "a steal from a prefilled deque failed or returned the wrong item");
    add(r, "deque.steal_ns", summarize(std::move(steal_ns)), "ns");
  }

  add(r, "alloc.alloc_free_ns", per_op_ns(ops_per_batch, [](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          void* p = alloc::slab_allocate(128);
          do_not_optimize(p);
          alloc::slab_deallocate(p, 128);
        }
      }), "ns");

  {
    rt::scheduler sched(1);
    hyper::reducer<hyper::opadd<std::uint64_t>> sum;
    summary pair;
    sched.run([&](rt::context& ctx) {
      pair = per_op_ns(pairs_per_batch, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          ctx.spawn([&](rt::context& child) { sum.view(child) += 1; });
          ctx.sync();
        }
      });
    });
    r.check(sum.value() == batches * pairs_per_batch, "reducer probe lost updates");
    add(r, "hyper.view_pair_ns", pair, "ns");
  }

  {
    constexpr std::uint64_t spawns = 100'000;
    rt::scheduler sched(1);
    hyper::reducer<counting_add> counted;  // its own leftmost identity
    const std::uint64_t before = counting_add::identities.load();
    sched.run([&](rt::context& ctx) {
      for (std::uint64_t i = 0; i < spawns; ++i) {
        ctx.spawn([&](rt::context& child) { counted.view(child) += 1; });
        ctx.sync();
      }
    });
    r.check(counted.value() == spawns, "counting reducer lost updates");
    const std::uint64_t views = counting_add::identities.load() - before;
    r.layer.push_back({"hyper.views_per_spawn", share(views, spawns), "count"});
  }
}

}  // namespace cilkbench
