// E14b (ablation, DESIGN.md §4.1): child-first (Cilk's work-first) vs
// parent-first (help-first) vs lazy spawn policy.
//
// Makespans are comparable on balanced dags, but the memory guarantee of
// Sec. 3.1 belongs to child-first and lazy alone: on the wide spawn loop
// the parent-first producer floods its deque faster than thieves drain it.
// Lazy is what the runtime does — parent-first until the deque holds
// P − 1 strands, then the child runs as a call — so its deques never hold
// more than P − 1 strands and at most P·(P − 1) wait at once.
//
// Exits non-zero if a lazy row breaks that residency bound or the greedy
// bound T_P ≤ T1/P + 4(L+1)·T∞.
#include <iostream>

#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "sim/machine.hpp"
#include "support/table.hpp"

int main() {
  using namespace cilkpp;
  std::cout << "=== E14b: spawn policy ablation (child-first vs parent-first "
               "vs lazy) ===\n\n";
  constexpr std::uint64_t latency = 10;

  struct shape {
    const char* name;
    dag::graph g;
  };
  shape shapes[] = {
      {"fib(18) cutoff 4", dag::fib_dag(18, 4, 25)},
      {"cilk_for 8192", dag::loop_dag(8192, 8, 30)},
      {"spawn loop 100k", dag::spawn_loop_dag(100000, 50)},
  };
  struct policy {
    sim::spawn_policy value;
    const char* name;
  };
  const policy policies[] = {{sim::spawn_policy::child_first, "child-first"},
                             {sim::spawn_policy::parent_first, "parent-first"},
                             {sim::spawn_policy::lazy, "lazy"}};

  bool lazy_within_bounds = true;
  for (const auto& s : shapes) {
    const dag::metrics m = dag::analyze(s.g);
    table t{"P", "policy", "T_P", "speedup", "steals", "peak residency"};
    for (const unsigned procs : {4u, 16u}) {
      for (const policy& pol : policies) {
        sim::machine_config cfg;
        cfg.processors = procs;
        cfg.steal_latency = latency;
        cfg.seed = 23;
        cfg.policy = pol.value;
        const auto r = sim::simulate(s.g, cfg);
        if (pol.value == sim::spawn_policy::lazy) {
          const double bound = static_cast<double>(m.work) / procs +
                               4.0 * static_cast<double>(latency + 1) *
                                   static_cast<double>(m.span);
          if (r.peak_residency > procs * (procs - 1) ||
              static_cast<double>(r.makespan) > bound) {
            lazy_within_bounds = false;
          }
        }
        t.row(procs, pol.name, r.makespan, r.speedup(m.work), r.steals,
              r.peak_residency);
      }
    }
    t.set_title(std::string(s.name) + "  (T1=" + table::format_cell(m.work) +
                ", parallelism=" + table::format_cell(m.parallelism()) + ")");
    t.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "Reading: on the spawn loop, parent-first residency grows with\n"
               "the iteration count while child-first stays O(P) — why Cilk++\n"
               "dives into the child and leaves the continuation to thieves.\n"
               "Lazy keeps help-first's order below P - 1 queued strands and\n"
               "caps every deque there, so its residency stays O(P^2).\n";
  if (!lazy_within_bounds) {
    std::cout << "FAIL: a lazy row exceeds P*(P-1) queued strands or "
                 "T1/P + 4(L+1)*Tinf\n";
    return 1;
  }
  return 0;
}
