// E5 (Sec. 3.1): the work-stealing performance bound TP ≤ T1/P + O(T∞).
//
// For each dag and P the table reports the measured constant
// c = (TP − T1/P) / T∞ under three spawn policies: Cilk's child-first,
// parent-first, and lazy — the runtime's own (a spawn on a deque that
// already holds P − 1 strands runs as a call). The bound holds iff c stays
// a small constant (it scales with the steal latency), and when
// parallelism ≫ P the running time is dominated by T1/P — near-perfect
// linear speedup, the paper's headline guarantee.
//
// A last table runs the dag built to hurt lazy spawning: P − 1 tiny
// children fill the deque, the next spawn is a long serial child that runs
// as a call, and its continuation holds all the parallelism.
//
// Exits non-zero if a lazy row's c exceeds 4(L+1), the constant the
// simulator tests and the stress oracle allow.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "dag/recorder.hpp"
#include "sim/machine.hpp"
#include "support/table.hpp"
#include "workloads/qsort.hpp"

namespace {

using cilkpp::sim::spawn_policy;

constexpr spawn_policy policies[] = {spawn_policy::child_first,
                                     spawn_policy::parent_first,
                                     spawn_policy::lazy};
constexpr const char* policy_names[] = {"child-first", "parent-first", "lazy"};

}  // namespace

int main() {
  using namespace cilkpp;
  std::cout << "=== E5: TP <= T1/P + O(Tinf) ===\n\n";
  constexpr std::uint64_t latency = 10;
  constexpr double c_bound = 4.0 * static_cast<double>(latency + 1);

  std::vector<std::pair<std::string, dag::graph>> shapes;
  shapes.emplace_back("fib(20) cutoff 5", dag::fib_dag(20, 5, 25));
  shapes.emplace_back("cilk_for 16384 iters", dag::loop_dag(16384, 8, 30));
  {
    auto data = workloads::random_doubles(1 << 18, 5);
    shapes.emplace_back("qsort 2^18", dag::record([&](dag::recorder_context& c) {
                          workloads::qsort(c, data.data(),
                                           data.data() + data.size(), 512);
                        }));
  }

  double lo_c[3], hi_c[3];
  std::fill(std::begin(lo_c), std::end(lo_c), std::numeric_limits<double>::max());
  std::fill(std::begin(hi_c), std::end(hi_c), std::numeric_limits<double>::lowest());
  bool lazy_within_bound = true;

  const auto constant = [](const sim::sim_result& r, const dag::metrics& m,
                           unsigned procs) {
    const double ideal = static_cast<double>(m.work) / procs;
    return (static_cast<double>(r.makespan) - ideal) / static_cast<double>(m.span);
  };
  const auto run = [&](const dag::graph& g, unsigned procs, std::size_t k) {
    sim::machine_config cfg;
    cfg.processors = procs;
    cfg.steal_latency = latency;
    cfg.seed = 77;
    cfg.policy = policies[k];
    return sim::simulate(g, cfg);
  };

  for (const auto& [name, g] : shapes) {
    const dag::metrics m = dag::analyze(g);
    table t{"P", "T1/P", "T_P child-first", "c", "T_P parent-first", "c",
            "T_P lazy", "c", "speedup lazy", "P/parallelism"};
    for (const unsigned procs : {2u, 4u, 8u, 16u, 32u, 64u}) {
      sim::sim_result r[3];
      double c[3];
      for (std::size_t k = 0; k < 3; ++k) {
        r[k] = run(g, procs, k);
        c[k] = constant(r[k], m, procs);
        lo_c[k] = std::min(lo_c[k], c[k]);
        hi_c[k] = std::max(hi_c[k], c[k]);
      }
      if (c[2] > c_bound) lazy_within_bound = false;
      t.row(procs, static_cast<double>(m.work) / procs, r[0].makespan, c[0],
            r[1].makespan, c[1], r[2].makespan, c[2], r[2].speedup(m.work),
            procs / m.parallelism());
    }
    t.set_title(name + "  (T1=" + table::format_cell(m.work) +
                ", Tinf=" + table::format_cell(m.span) +
                ", parallelism=" + table::format_cell(m.parallelism()) + ")");
    t.print(std::cout);
    std::cout << '\n';
  }

  for (std::size_t k = 0; k < 3; ++k) {
    std::cout << "c under " << policy_names[k] << ": [" << lo_c[k] << ", "
              << hi_c[k] << "]\n";
  }
  std::cout << "(steal latency " << latency
            << "; the bound's O(Tinf) hides c ~ a few latencies)\n\n";

  {
    table t{"P", "T1/P + Tinf", "T_P child-first", "T_P parent-first",
            "T_P lazy", "lazy / (T1/P + Tinf)", "c lazy"};
    for (const unsigned procs : {2u, 4u, 8u, 16u}) {
      const dag::graph g = dag::lazy_adversary_dag(procs - 1, 20'000, 4096, 8, 10);
      const dag::metrics m = dag::analyze(g);
      sim::sim_result r[3];
      for (std::size_t k = 0; k < 3; ++k) r[k] = run(g, procs, k);
      const double tight = static_cast<double>(m.work) / procs +
                           static_cast<double>(m.span);
      const double c = constant(r[2], m, procs);
      if (c > c_bound) lazy_within_bound = false;
      t.row(procs, tight, r[0].makespan, r[1].makespan, r[2].makespan,
            static_cast<double>(r[2].makespan) / tight, c);
    }
    t.set_title(
        "lazy spawning's adversary: P-1 tiny children, a 20000-unit serial "
        "child, then cilk_for 4096 iters in the continuation");
    t.print(std::cout);
    std::cout << '\n';
  }

  if (!lazy_within_bound) {
    std::cout << "FAIL: a lazy-policy row's c exceeds 4(L+1) = " << c_bound << '\n';
    return 1;
  }
  std::cout << "Every lazy-policy row keeps c <= 4(L+1) = " << c_bound << ".\n";
  return 0;
}
