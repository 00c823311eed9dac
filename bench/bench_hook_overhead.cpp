// Hook-overhead budget: trace and chaos are always compiled in, so their
// price is what attaching them costs, and detached they must cost nothing.
//
// google-benchmark legs on the real scheduler, each running fib(27) at
// P = 1 and 4 and at cutoffs 0 (every call spawns) and 12:
//
//   detached      no session and no policy: spawns, syncs and calls run the
//                 detached instantiation, which loads no hook pointer
//                 beyond its one test per entry point;
//   traced        a fresh session per run, recording every event;
//   inert_chaos   seeded_chaos with every chance zero: each chaos point is
//                 dispatched and none acts;
//   seeded_chaos  a mildly adversarial seeded policy: what a stress run pays;
//   traced_chaos  a session and the seeded policy attached together.
//
// The traced legs use rings of 2^14 events per worker, as one capture of a
// small run would. fib(27) at cutoff 12 records about 11,000 events and
// drops none; at cutoff 0 it makes about 2.2 million, so the rings fill
// early and most record sites take the full-ring path (the clock read and
// a failed push; the drops counter says how many). BM_ring_try_push is the
// raw single-producer push throughput that bounds any record site.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/scheduler.hpp"
#include "stress/chaos.hpp"
#include "trace/ring.hpp"
#include "trace/session.hpp"
#include "workloads/fib.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;
using cilkpp::stress::chaos_params;
using cilkpp::stress::seeded_chaos;

constexpr unsigned kFibN = 27;
constexpr std::size_t kRingEvents = std::size_t{1} << 14;

enum class hooks { none, trace, inert_chaos, seeded_chaos, trace_and_chaos };

/// fib(27) at state.range(0) workers and cutoff state.range(1), with the
/// given hooks attached for every run.
void fib_with(benchmark::State& state, hooks h) {
  const auto workers = static_cast<unsigned>(state.range(0));
  const auto cutoff = static_cast<unsigned>(state.range(1));
  const bool traced = h == hooks::trace || h == hooks::trace_and_chaos;
  std::optional<seeded_chaos> policy;  // outlives sched: declared first
  scheduler sched(workers);
  if (h == hooks::inert_chaos) policy.emplace(chaos_params{}, /*seed=*/0, workers);
  if (h == hooks::seeded_chaos || h == hooks::trace_and_chaos) {
    policy.emplace(/*seed=*/1, workers);
  }
  if (policy) sched.install_chaos(&*policy);
  std::uint64_t events = 0, drops = 0;
  for (auto _ : state) {
    // A fresh session per run, like a real capture.
    std::optional<cilkpp::trace::session> cap;
    if (traced) cap.emplace(sched, cilkpp::trace::session_options{kRingEvents});
    benchmark::DoNotOptimize(sched.run([cutoff](context& ctx) {
      return cilkpp::workloads::fib(ctx, kFibN, cutoff);
    }));
    if (cap) {
      cap->stop();
      events += cap->recorded();
      drops += cap->dropped();
    }
  }
  if (policy) sched.remove_chaos();
  const auto per_run = [&](std::uint64_t v) {
    return benchmark::Counter(static_cast<double>(v) /
                              static_cast<double>(state.iterations()));
  };
  if (traced) {
    state.counters["events_per_run"] = per_run(events);
    state.counters["drops_per_run"] = per_run(drops);
  }
  if (policy) {
    const cilkpp::stress::chaos_stats s = policy->stats();
    state.counters["points_per_run"] = per_run(s.points);
    state.counters["sleeps_per_run"] = per_run(s.sleeps);
  }
}

void BM_fib_detached(benchmark::State& state) { fib_with(state, hooks::none); }
void BM_fib_traced(benchmark::State& state) { fib_with(state, hooks::trace); }
void BM_fib_inert_chaos(benchmark::State& state) {
  fib_with(state, hooks::inert_chaos);
}
void BM_fib_seeded_chaos(benchmark::State& state) {
  fib_with(state, hooks::seeded_chaos);
}
void BM_fib_traced_chaos(benchmark::State& state) {
  fib_with(state, hooks::trace_and_chaos);
}

#define FIB_LEG(fn) \
  BENCHMARK(fn)->ArgsProduct({{1, 4}, {0, 12}})->ArgNames({"workers", "cutoff"})
FIB_LEG(BM_fib_detached);
FIB_LEG(BM_fib_traced);
FIB_LEG(BM_fib_inert_chaos);
FIB_LEG(BM_fib_seeded_chaos);
FIB_LEG(BM_fib_traced_chaos);

// Raw single-producer push throughput: the ceiling on record-site cost.
void BM_ring_try_push(benchmark::State& state) {
  cilkpp::trace::event_ring ring(std::size_t{1} << 16);
  std::vector<cilkpp::trace::event> sink;
  cilkpp::trace::event ev{};
  ev.kind = cilkpp::trace::event_kind::spawn;
  std::size_t pushed = 0;
  for (auto _ : state) {
    ev.time_ns = ++pushed;
    if (!ring.try_push(ev)) {
      ring.pop_all(sink);  // drain outside the measured common path
      sink.clear();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ring_try_push);

}  // namespace

BENCHMARK_MAIN();
