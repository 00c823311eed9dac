// E-lint: what does cilk::lint cost on top of the SP engines?
//
// Three comparisons, all on lock-heavy but well-disciplined inputs (the
// clean fast path — diagnosis cost only matters when the program is
// already broken):
//   * the SP-bags detector driving a nested-locking spawn storm, with the
//     lint analyzer detached vs attached (the marginal cost of the
//     lock-order graph + boundary checks on an instrumented run);
//   * the same with the SP-order engine;
//   * raw rt::mutex traffic with no observer vs a mutex_census installed
//     (the production-side hook: one atomic load when uninstalled).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cilkscreen/screen_context.hpp"
#include "lint/analyzer.hpp"
#include "lint/mutex_census.hpp"
#include "runtime/mutex.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

namespace {

using namespace cilkpp;

constexpr unsigned kSpawns = 512;      // children per detector run
constexpr unsigned kReps = 64;         // lock pairs per child
constexpr unsigned kRounds = 3;        // best-of rounds per leg
constexpr std::uint64_t kMutexIters = 1u << 20;

/// One detector run: kSpawns spawned children, each taking two nested
/// locks kReps times in a globally consistent order (no reports — we are
/// timing the clean path). Returns elapsed ns.
template <typename D>
std::uint64_t screen_run(bool with_lint) {
  D d;
  typename D::lint_analyzer la;
  if (with_lint) d.attach_lint(&la);
  screen::basic_screen_mutex<D> a(d), b(d);
  stopwatch sw;
  screen::run_under_detector(d, [&](screen::basic_screen_context<D>& ctx) {
    for (unsigned s = 0; s < kSpawns; ++s) {
      ctx.spawn([&](screen::basic_screen_context<D>& c) {
        for (unsigned r = 0; r < kReps; ++r) {
          a.lock(c);
          b.lock(c);
          b.unlock(c);
          a.unlock(c);
        }
      });
      if (s % 16 == 15) ctx.sync();  // keep the P-bags from growing unbounded
    }
    ctx.sync();
  });
  const std::uint64_t ns = sw.elapsed_ns();
  if (with_lint) {
    la.finish();
    if (!la.clean()) {
      std::cerr << "bench_lint_overhead: unexpected lint reports\n";
      std::exit(1);
    }
  }
  return ns;
}

std::uint64_t mutex_run(bool with_census) {
  rt::mutex m;
  std::uint64_t sum = 0;
  const auto loop = [&] {
    stopwatch sw;
    for (std::uint64_t i = 0; i < kMutexIters; ++i) {
      m.lock();
      sum += i;
      m.unlock();
    }
    do_not_optimize(sum);
    return sw.elapsed_ns();
  };
  if (with_census) {
    lint::scoped_mutex_census census;
    const std::uint64_t ns = loop();
    if (!census.census().balanced()) {
      std::cerr << "bench_lint_overhead: census imbalance\n";
      std::exit(1);
    }
    return ns;
  }
  return loop();
}

template <typename Run>
std::uint64_t best_of(const Run& run) {
  std::uint64_t best = ~std::uint64_t{0};
  for (unsigned i = 0; i < kRounds; ++i) {
    const std::uint64_t ns = run();
    if (ns < best) best = ns;
  }
  return best;
}

std::string per_acquire(std::uint64_t ns, std::uint64_t acquires) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(ns) / static_cast<double>(acquires));
  return buf;
}

}  // namespace

int main() {
  const std::uint64_t screen_acquires =
      std::uint64_t{kSpawns} * kReps * 2;

  table t({"leg", "acquires", "ns/acquire"});

  const auto screen_row = [&](const char* name, auto tag, bool with_lint) {
    using D = typename decltype(tag)::type;
    const std::uint64_t ns =
        best_of([&] { return screen_run<D>(with_lint); });
    t.add_row({name, std::to_string(screen_acquires),
               per_acquire(ns, screen_acquires)});
  };
  struct bags_tag { using type = cilkpp::screen::detector; };
  struct order_tag { using type = cilkpp::screen::order_detector; };
  screen_row("sp-bags, lint detached", bags_tag{}, false);
  screen_row("sp-bags, lint attached", bags_tag{}, true);
  screen_row("sp-order, lint detached", order_tag{}, false);
  screen_row("sp-order, lint attached", order_tag{}, true);

  const std::uint64_t bare = best_of([] { return mutex_run(false); });
  t.add_row({"rt::mutex, no observer", std::to_string(kMutexIters),
             per_acquire(bare, kMutexIters)});
  const std::uint64_t censused = best_of([] { return mutex_run(true); });
  t.add_row({"rt::mutex, census installed", std::to_string(kMutexIters),
             per_acquire(censused, kMutexIters)});

  std::cout << "# E-lint: lock-discipline analyzer overhead\n";
  t.print(std::cout);
  return 0;
}
