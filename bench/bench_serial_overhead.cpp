// E6 (Sec. 3): "on a single core, typical programs run with negligible
// overhead (less than 2%)."
//
// google-benchmark pairs: the serial elision of each program vs the same
// program on the real scheduler with ONE worker. The ratio of the two
// times is the spawn/sync overhead. Like Cilk++ programs in practice, the
// workloads use a grain/cutoff so a spawn guards a meaningful chunk of
// work; the fib cutoff sweep shows how the overhead grows as the guarded
// work shrinks (cutoff 0 = a spawn per addition, the worst case).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

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
