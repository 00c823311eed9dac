// E-memlens: what does cilk::memlens cost on top of the SP engines?
//
// The analyzer consumes the access stream the engines already produce, so
// the interesting number is the marginal ns/access with the analyzer
// attached vs detached, on a memlens-CLEAN workload (the fast path — every
// access folds into a line history, classifies against its line's
// accessors, and reports nothing):
//   * the SP-bags detector driving a spawn storm of strided writers, each
//     lane touching its own padded line (no sharing by construction),
//     analyzer detached vs attached;
//   * the same under the SP-order engine.
//
// Emits BENCH_memlens.json (same mold as BENCH_spawn_path.json) for the
// perf-smoke artifact; path defaults to BENCH_memlens.json, argv[1]
// overrides. Exits nonzero only on catastrophic breaches (an attached run
// reporting on the clean corpus, or overhead beyond 50x) — shared CI
// runners are too noisy for tight ratios.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "memlens/analyzer.hpp"
#include "support/cache.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

namespace {

using namespace cilkpp;

constexpr unsigned kLanes = 256;   // spawned writers per run
constexpr unsigned kWords = 8;     // words per lane = one full line each
constexpr unsigned kReps = 16;     // passes over the lane's line
constexpr unsigned kRounds = 3;    // best-of rounds per leg

/// One padded line per lane: the clean corpus (disjoint lines, zero
/// sharing), mirroring the stress interpreter's stripe pool.
struct alignas(cache_line_size) lane_line {
  std::uint64_t w[kWords] = {};
};

struct leg_result {
  std::uint64_t ns = 0;
  std::uint64_t accesses = 0;
};

/// One detector run: kLanes spawned children, each writing every word of
/// its own line kReps times. Returns elapsed ns + instrumented accesses.
template <typename D>
leg_result screen_run(std::vector<lane_line>& pool, bool with_lens) {
  D d;
  typename D::memlens_analyzer ml;
  if (with_lens) d.attach_memlens(&ml);
  stopwatch sw;
  screen::run_under_detector(d, [&](screen::basic_screen_context<D>& ctx) {
    for (unsigned s = 0; s < kLanes; ++s) {
      ctx.spawn([&, s](screen::basic_screen_context<D>& c) {
        lane_line& line = pool[s];
        for (unsigned r = 0; r < kReps; ++r) {
          for (unsigned k = 0; k < kWords; ++k) {
            c.note_write(&line.w[k], sizeof(std::uint64_t), "lane word");
            line.w[k] += s + r + k;
          }
        }
      });
      if (s % 16 == 15) ctx.sync();  // keep the P-bags from growing unbounded
    }
    ctx.sync();
  });
  leg_result out;
  out.ns = sw.elapsed_ns();
  out.accesses = std::uint64_t{kLanes} * kReps * kWords;
  if (with_lens) {
    ml.finish();
    if (!ml.clean()) {
      std::cerr << "bench_memlens_overhead: reports on the padded corpus\n";
      std::exit(1);
    }
    if (ml.stats().accesses != out.accesses) {
      std::cerr << "bench_memlens_overhead: analyzer saw "
                << ml.stats().accesses << " accesses, expected "
                << out.accesses << "\n";
      std::exit(1);
    }
  }
  return out;
}

template <typename Run>
leg_result best_of(const Run& run) {
  leg_result best;
  best.ns = ~std::uint64_t{0};
  for (unsigned i = 0; i < kRounds; ++i) {
    const leg_result r = run();
    if (r.ns < best.ns) best = r;
  }
  return best;
}

double per_access(const leg_result& r) {
  return static_cast<double>(r.ns) / static_cast<double>(r.accesses);
}

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_memlens.json";
  if (argc > 1) out_path = argv[1];

  std::vector<lane_line> pool(kLanes);
  table t({"leg", "accesses", "ns/access"});
  json_writer w;
  w.begin_object();
  w.field("benchmark", "memlens_overhead");
  w.field("lanes", kLanes);
  w.field("reps", kReps);
  w.field("words_per_lane", kWords);
  w.key("legs");
  w.begin_object();

  bool ok = true;
  const auto engine_rows = [&](const char* engine, auto tag) {
    using D = typename decltype(tag)::type;
    const leg_result detached =
        best_of([&] { return screen_run<D>(pool, false); });
    t.add_row({std::string(engine) + ", memlens detached",
               std::to_string(detached.accesses), fmt1(per_access(detached))});
    w.key(std::string(engine) + "_detached");
    w.begin_object();
    w.field("ns_per_access", per_access(detached));
    w.field("accesses", detached.accesses);
    w.end_object();
    const leg_result attached =
        best_of([&] { return screen_run<D>(pool, true); });
    t.add_row({std::string(engine) + ", memlens attached",
               std::to_string(attached.accesses), fmt1(per_access(attached))});
    const double ratio = per_access(detached) > 0
                             ? per_access(attached) / per_access(detached)
                             : 0.0;
    w.key(std::string(engine) + "_attached");
    w.begin_object();
    w.field("ns_per_access", per_access(attached));
    w.field("accesses", attached.accesses);
    w.field("overhead_x", ratio);
    w.end_object();
    // Catastrophic-only gate: the analyzer does O(accessors-on-line) work
    // per access; 50x over the bare engine means it grew a scan or an
    // allocation per access.
    if (ratio > 50.0) {
      std::fprintf(stderr, "FAIL: %s memlens overhead %.1fx > 50x\n", engine,
                   ratio);
      ok = false;
    }
  };
  struct bags_tag { using type = cilkpp::screen::detector; };
  struct order_tag { using type = cilkpp::screen::order_detector; };
  engine_rows("sp-bags", bags_tag{});
  engine_rows("sp-order", order_tag{});

  w.end_object();  // legs
  w.end_object();

  std::cout << "# E-memlens: cache-line analyzer overhead\n";
  t.print(std::cout);

  const std::string doc = w.take();
  std::ofstream out(out_path);
  out << doc << "\n";
  if (!out) {
    std::cerr << "bench_memlens_overhead: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
