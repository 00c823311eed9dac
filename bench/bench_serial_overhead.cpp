// E6 (Sec. 3): "on a single core, typical programs run with negligible
// overhead (less than 2%)."
//
// google-benchmark pairs: the serial elision of each program vs the same
// program on the real scheduler with ONE worker. The ratio of the two
// times is the spawn/sync overhead. Like Cilk++ programs in practice, the
// workloads use a grain/cutoff so a spawn guards a meaningful chunk of
// work; the fib cutoff sweep shows how the overhead grows as the guarded
// work shrinks (cutoff 0 = a spawn per addition, the worst case).
//
// Reducer access is priced the same way, against the elision: one view
// access in a strand that cycles through one, two or three reducers
// (BM_view_access), and SNIPPETS.md Snippet 1's divide-and-conquer tree
// with an opadd reducer at its leaves beside the same tree summing without
// one (BM_dac_*), each at 1 and 4 workers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "hyper/monoid.hpp"
#include "hyper/reducer.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;
using cilkpp::rt::serial_context;
using sum_reducer = cilkpp::hyper::reducer<cilkpp::hyper::opadd<std::uint64_t>>;

void BM_fib_plain_serial(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cilkpp::workloads::fib_serial(n));
  }
}
BENCHMARK(BM_fib_plain_serial)->Arg(27);

void BM_fib_elision(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cutoff = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    serial_context root;
    benchmark::DoNotOptimize(cilkpp::workloads::fib(root, n, cutoff));
  }
}
BENCHMARK(BM_fib_elision)->Args({27, 16});

void BM_fib_one_worker(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cutoff = static_cast<unsigned>(state.range(1));
  scheduler sched(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run(
        [n, cutoff](context& ctx) { return cilkpp::workloads::fib(ctx, n, cutoff); }));
  }
}
// Cutoff sweep: overhead vs spawn granularity. Cutoff 16 guards ~1000
// additions per spawn — the "typical program" regime of the <2% claim.
BENCHMARK(BM_fib_one_worker)->Args({27, 20})->Args({27, 16})->Args({27, 12})->Args({27, 8});

// Direct cost of the spawn machinery, independent of any workload: one
// empty spawn + sync per iteration (1 worker, so the child runs as a call —
// the paper's "in the common case, Cilk++ operates just like C++").
void BM_spawn_sync_pair(benchmark::State& state) {
  scheduler sched(1);
  sched.run([&](context& ctx) {
    for (auto _ : state) {
      ctx.spawn([](context&) {});
      ctx.sync();
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_spawn_sync_pair);

// The same pair through a plain function call, for the ratio the paper
// quotes (a Cilk++ spawn cost a few times a function call).
void BM_function_call_pair(benchmark::State& state) {
  volatile int sink = 0;
  auto callee = [&]() { sink = sink + 1; };
  for (auto _ : state) {
    callee();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_function_call_pair);

void BM_qsort_std_sort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = cilkpp::workloads::random_doubles(n, 1);
  for (auto _ : state) {
    auto copy = data;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_qsort_std_sort)->Arg(1 << 20);

void BM_qsort_elision(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = cilkpp::workloads::random_doubles(n, 1);
  for (auto _ : state) {
    auto copy = data;
    serial_context root;
    cilkpp::workloads::qsort(root, copy.data(), copy.data() + n, 2048);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_qsort_elision)->Arg(1 << 20);

void BM_qsort_one_worker(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = cilkpp::workloads::random_doubles(n, 1);
  scheduler sched(1);
  for (auto _ : state) {
    auto copy = data;
    sched.run([&](context& ctx) {
      cilkpp::workloads::qsort(ctx, copy.data(), copy.data() + n, 2048);
    });
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_qsort_one_worker)->Arg(1 << 20);

// --- Reducer access. ---

constexpr unsigned kViewAccesses = 4096;

/// One strand's kViewAccesses view accesses, cycling through the first k
/// reducers of r. BC's claim loop alternates two (hist with next or still).
template <typename Ctx>
void cycle_views(Ctx& ctx, sum_reducer (&r)[3], unsigned k) {
  unsigned j = 0;
  for (unsigned i = 0; i < kViewAccesses; ++i) {
    std::uint64_t& v = r[j].view(ctx);
    v += i;
    benchmark::DoNotOptimize(v);
    j = j + 1 == k ? 0 : j + 1;
  }
}

void BM_view_access_elision(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  sum_reducer r[3];
  serial_context root;
  for (auto _ : state) cycle_views(root, r, k);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kViewAccesses);
}
BENCHMARK(BM_view_access_elision)->Arg(1)->Arg(2)->Arg(3);

/// The same strand as the root frame of a run on `workers` workers.
void BM_view_access(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const auto workers = static_cast<unsigned>(state.range(1));
  sum_reducer r[3];
  scheduler sched(workers);
  sched.run([&](context& ctx) {
    for (auto _ : state) cycle_views(ctx, r, k);
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kViewAccesses);
}
BENCHMARK(BM_view_access)
    ->ArgNames({"reducers", "workers"})
    ->ArgsProduct({{1, 2, 3}, {1, 4}});

// SNIPPETS.md Snippet 1's shape (cheetah's ilist_dac): halve [lo, hi) until
// fewer than kDacBase indices remain, spawning the left half, and add each
// index at the leaves — 2^19 − 1 spawns over 2^20 indices.
constexpr std::uint64_t kDacIndices = std::uint64_t{1} << 20;
constexpr std::uint64_t kDacBase = 4;
constexpr std::uint64_t kDacSum = kDacIndices * (kDacIndices - 1) / 2;

template <typename Ctx>
void dac_reducer(Ctx& ctx, std::uint64_t lo, std::uint64_t hi, sum_reducer& sum) {
  if (hi - lo < kDacBase) {
    for (std::uint64_t i = lo; i < hi; ++i) sum.view(ctx) += i;
    return;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  ctx.spawn([&sum, lo, mid](Ctx& c) { dac_reducer(c, lo, mid, sum); });
  dac_reducer(ctx, mid, hi, sum);
  ctx.sync();
}

/// The same tree without a reducer: each frame returns its half's sum.
template <typename Ctx>
std::uint64_t dac_plain(Ctx& ctx, std::uint64_t lo, std::uint64_t hi) {
  if (hi - lo < kDacBase) {
    std::uint64_t s = 0;
    for (std::uint64_t i = lo; i < hi; ++i) s += i;
    return s;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  std::uint64_t left = 0;
  ctx.spawn([&left, lo, mid](Ctx& c) { left = dac_plain(c, lo, mid); });
  const std::uint64_t right = dac_plain(ctx, mid, hi);
  ctx.sync();
  return left + right;
}

void check_dac_sum(benchmark::State& state, std::uint64_t sum) {
  if (sum != kDacSum) state.SkipWithError("the tree's sum is wrong");
}

void BM_dac_reducer_elision(benchmark::State& state) {
  for (auto _ : state) {
    sum_reducer sum;
    serial_context root;
    dac_reducer(root, 0, kDacIndices, sum);
    check_dac_sum(state, sum.value());
  }
}
BENCHMARK(BM_dac_reducer_elision)->Unit(benchmark::kMillisecond);

void BM_dac_reducer(benchmark::State& state) {
  scheduler sched(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    sum_reducer sum;
    sched.run([&](context& ctx) { dac_reducer(ctx, 0, kDacIndices, sum); });
    check_dac_sum(state, sum.value());
  }
}
BENCHMARK(BM_dac_reducer)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_dac_plain_elision(benchmark::State& state) {
  for (auto _ : state) {
    serial_context root;
    check_dac_sum(state, dac_plain(root, 0, kDacIndices));
  }
}
BENCHMARK(BM_dac_plain_elision)->Unit(benchmark::kMillisecond);

void BM_dac_plain(benchmark::State& state) {
  scheduler sched(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    check_dac_sum(state, sched.run([](context& ctx) {
      return dac_plain(ctx, 0, kDacIndices);
    }));
  }
}
BENCHMARK(BM_dac_plain)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus a mirror of every run into
/// BENCH_serial_overhead.json (support/stats' json_writer) so E6 numbers are
/// machine-readable without parsing benchmark's console format.
class json_mirror_reporter final : public benchmark::ConsoleReporter {
 public:
  struct row {
    std::string name;
    std::int64_t iterations;
    double real_ns;
    double cpu_ns;
  };
  std::vector<row> rows;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred) continue;
      rows.push_back({r.benchmark_name(), r.iterations, r.GetAdjustedRealTime(),
                      r.GetAdjustedCPUTime()});
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  json_mirror_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  cilkpp::json_writer w;
  w.begin_object();
  w.field("benchmark", "serial_overhead");
  w.key("runs");
  w.begin_array();
  for (const auto& r : reporter.rows) {
    w.begin_object();
    w.field("name", r.name);
    w.field("iterations", r.iterations);
    w.field("real_ns", r.real_ns);
    w.field("cpu_ns", r.cpu_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream("BENCH_serial_overhead.json") << w.take();
  return 0;
}
