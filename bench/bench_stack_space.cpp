// E7 (Sec. 3.1): space bounds.
//
// Claim 1 — "on P processors, a Cilk++ program consumes at most P times the
// stack space of a single-processor execution": the simulator tracks the
// machine-wide peak of live frames; the table reports peak / (P·S1), which
// must stay ≤ 1.
//
// Claim 2 — the spawn loop ("one billion invocations of foo"): work
// stealing keeps only O(P) strands materialized, while the naive central
// work-queue scheduler materializes the whole loop before executing the
// first iteration, "blowing out physical memory". We scale the loop to 10^6
// iterations; the residency ratio is what matters, and it already differs
// by four orders of magnitude.
//
// Both claims are also run under the runtime's own spawn policy (lazy: a
// spawn on a deque that holds P − 1 strands runs as a call). Its bounds are
// S_P ≤ P·S1 and, on the spawn loop, at most P·(P − 1) strands queued at
// once (P − 1 per deque). Exits non-zero if a lazy row breaks either.
#include <iostream>

#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "sim/baselines.hpp"
#include "sim/machine.hpp"
#include "support/table.hpp"

int main() {
  using namespace cilkpp;
  std::cout << "=== E7: stack-space and memory bounds ===\n\n";
  bool lazy_within_bounds = true;

  {
    std::cout << "-- Claim 1: S_P <= P * S_1 (live frames, fib dag) --\n";
    const dag::graph g = dag::fib_dag(20, 4, 10);
    const std::uint64_t s1 = g.max_depth() + 1;
    table t{"P", "peak frames S_P", "P * S1", "ratio", "lazy S_P", "lazy ratio"};
    for (const unsigned procs : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      sim::machine_config cfg;
      cfg.processors = procs;
      cfg.steal_latency = 10;
      cfg.seed = 3;
      const sim::sim_result r = sim::simulate(g, cfg);
      cfg.policy = sim::spawn_policy::lazy;
      const sim::sim_result lazy = sim::simulate(g, cfg);
      if (lazy.peak_stack_frames > procs * s1) lazy_within_bounds = false;
      t.row(procs, r.peak_stack_frames, procs * s1,
            static_cast<double>(r.peak_stack_frames) /
                static_cast<double>(procs * s1),
            lazy.peak_stack_frames,
            static_cast<double>(lazy.peak_stack_frames) /
                static_cast<double>(procs * s1));
    }
    t.set_title("serial stack S1 = " + table::format_cell(s1) + " frames");
    t.print(std::cout);
    std::cout << '\n';
  }

  {
    std::cout << "-- Claim 2: the spawn loop (Sec. 3.1's code fragment) --\n";
    constexpr unsigned procs = 4;
    table t{"iterations", "work-steal peak tasks", "naive FIFO queue peak",
            "blowup factor", "lazy peak tasks", "P * (P - 1)"};
    for (const std::uint32_t n : {1000u, 10000u, 100000u, 1000000u}) {
      const dag::graph g = dag::spawn_loop_dag(n, 50);
      sim::machine_config ws;
      ws.processors = procs;
      ws.steal_latency = 10;
      ws.seed = 13;
      const auto r_ws = sim::simulate(g, ws);
      ws.policy = sim::spawn_policy::lazy;
      const auto r_lazy = sim::simulate(g, ws);
      if (r_lazy.peak_residency > procs * (procs - 1)) lazy_within_bounds = false;
      sim::baseline_config bc;
      bc.processors = procs;
      const auto r_q = sim::simulate_central_queue(g, bc, sim::queue_order::fifo);
      t.row(n, r_ws.peak_residency, r_q.peak_residency,
            static_cast<double>(r_q.peak_residency) /
                static_cast<double>(r_ws.peak_residency),
            r_lazy.peak_residency, procs * (procs - 1));
    }
    t.set_title("P = 4; paper's example used 10^9 iterations");
    t.print(std::cout);
  }

  std::cout << "\nWork stealing executes depth-first per worker, so the loop\n"
               "never materializes more than O(P) iterations at once.\n";
  if (!lazy_within_bounds) {
    std::cout << "FAIL: a lazy-policy row breaks S_P <= P*S1 or P*(P-1) tasks\n";
    return 1;
  }
  return 0;
}
