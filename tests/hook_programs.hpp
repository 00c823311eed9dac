// Programs and a counting chaos policy that pin what the observed
// instantiation fires (runtime_test: chaos points; trace_test: trace events,
// and both hooks attached together). A hook site missing from it would lose
// events without any other error, so the tests compare exact counts. Each
// program's spawn and call counts are fixed by its dag, so they are the same
// at every worker count.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/fib.hpp"

namespace cilkpp::hook_test {

struct program {
  const char* name;
  std::uint64_t spawns;  ///< spawned frames and leaves, at every worker count
  std::uint64_t calls;   ///< called frames
  std::uint64_t (*run)(rt::context&);
  std::uint64_t expected;  ///< run's result
};

/// A closure too large for its frame slot: a pushed spawn of it boxes the
/// closure in a slab block.
struct boxed_closure {
  std::atomic<std::uint64_t>* sum;
  std::array<std::uint64_t, 24> payload{};
  void operator()(rt::context&) const {
    sum->fetch_add(payload.front() + 1, std::memory_order_relaxed);
  }
};
static_assert(!rt::spawns_in_slot<boxed_closure>);

inline constexpr std::uint64_t boxed_spawns = 64;

/// A body(i) parallel_for over [0, 1000): its leaves are spawn_leaf strands.
template <std::uint64_t Grain>
std::uint64_t pfor_sum(rt::context& ctx) {
  std::atomic<std::uint64_t> sum{0};
  rt::parallel_for(
      ctx, std::uint64_t{0}, std::uint64_t{1000},
      [&](std::uint64_t i) { sum.fetch_add(i, std::memory_order_relaxed); },
      Grain);
  return sum.load();
}

inline std::vector<program> programs() {
  return {
      // fib(19) - 1 spawns.
      {"fib18", 4180, 0,
       [](rt::context& ctx) { return workloads::fib(ctx, 18); }, 2584},
      // One leaf per grain: 999 spawns of 1,000 grains.
      {"pfor_grain1", 999, 1, &pfor_sum<1>, 499'500},
      // The halving stops at ranges of 62 and 63 iterations (at most 32
      // grains), each cut into 21 grains: 15 halving spawns + 16 × 20.
      {"pfor_grain3", 335, 1, &pfor_sum<3>, 499'500},
      {"boxed_loop", boxed_spawns, 0,
       [](rt::context& ctx) {
         std::atomic<std::uint64_t> sum{0};
         for (std::uint64_t i = 0; i < boxed_spawns; ++i) {
           ctx.spawn(boxed_closure{&sum});
         }
         ctx.sync();
         return sum.load();
       },
       boxed_spawns},
  };
}

/// Counts the chaos points it sees, per point; perturbs nothing.
class counting_policy final : public rt::chaos_policy {
 public:
  void perturb(unsigned, rt::chaos_point p) override {
    counts_[static_cast<std::size_t>(p)].fetch_add(1, std::memory_order_relaxed);
  }
  bool prefer_steal(unsigned) override { return false; }
  std::size_t pick_victim(unsigned, std::size_t nworkers) override {
    return nworkers;
  }
  std::uint64_t count(rt::chaos_point p) const {
    return counts_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, 7> counts_{};
};

/// The chaos points only a run in flight fires. pop_bottom and
/// steal_attempt are left out: an idle worker still in a steal sweep from
/// the previous run's tail may fire them after run() returned (the
/// lifetime rule of scheduler::install_chaos).
struct run_points {
  std::uint64_t sync_enter = 0;
  std::uint64_t sync_exit = 0;
  std::uint64_t spawn_push = 0;
  std::uint64_t task_run = 0;
  std::uint64_t steal_success = 0;

  static run_points of(const counting_policy& c) {
    return {c.count(rt::chaos_point::sync_enter),
            c.count(rt::chaos_point::sync_exit),
            c.count(rt::chaos_point::spawn_push),
            c.count(rt::chaos_point::task_run),
            c.count(rt::chaos_point::steal_success)};
  }
  run_points operator-(const run_points& o) const {
    return {sync_enter - o.sync_enter, sync_exit - o.sync_exit,
            spawn_push - o.spawn_push, task_run - o.task_run,
            steal_success - o.steal_success};
  }
};

}  // namespace cilkpp::hook_test
