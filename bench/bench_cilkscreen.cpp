// E11 (Sec. 4): the Cilkscreen race detector.
//
// Detection table: the paper's positive and negative examples —
//   * Fig. 5's naive tree walk (global list, no lock): race reported;
//   * Fig. 6's mutex walk: quiet (common lock suppresses);
//   * Fig. 1's quicksort: quiet;
//   * Sec. 4's mutated quicksort (line 13 `middle-1`, overlapping
//     subproblems): race reported, deterministically, in ONE serial run —
//     the guarantee that an exposed race is always caught, while actual
//     parallel executions "may execute successfully millions of times".
// Overhead table: instrumented vs uninstrumented serial execution, under
// both engines (SP-bags and SP-order), five timed reps after a warm-up.
//
// Exits non-zero when a verdict above breaks: Fig. 5 quiet, Fig. 6 or
// Fig. 1 racy, the mutated qsort missed in any of its 10 runs, a race on
// the n = 50,000 sort under either engine or the engines checking different
// access counts there, in any rep, or the lock mix's history histograms
// differing between the engines or spilling.
#include <algorithm>
#include <iostream>
#include <list>
#include <string>
#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"
#include "workloads/treewalk.hpp"

namespace {

using namespace cilkpp;
using namespace cilkpp::screen;

// Instrumented quicksort over cell<int>, with the Sec. 4 mutation toggle,
// under either engine's context.
template <typename Ctx>
void sqsort(Ctx& ctx, std::vector<cell<int>>& a, int lo, int hi, bool buggy) {
  if (hi - lo < 2) return;
  const int pivot = a[static_cast<std::size_t>(lo)].get(ctx);
  int mid = lo;
  for (int i = lo + 1; i < hi; ++i) {
    if (a[static_cast<std::size_t>(i)].get(ctx) < pivot) {
      ++mid;
      const int t = a[static_cast<std::size_t>(i)].get(ctx);
      a[static_cast<std::size_t>(i)].set(ctx, a[static_cast<std::size_t>(mid)].get(ctx));
      a[static_cast<std::size_t>(mid)].set(ctx, t);
    }
  }
  const int t = a[static_cast<std::size_t>(lo)].get(ctx);
  a[static_cast<std::size_t>(lo)].set(ctx, a[static_cast<std::size_t>(mid)].get(ctx));
  a[static_cast<std::size_t>(mid)].set(ctx, t);
  const int right = buggy ? std::max(lo + 1, mid - 1) : mid + 1;
  ctx.spawn([&, lo, mid, buggy](Ctx& c) { sqsort(c, a, lo, mid, buggy); });
  sqsort(ctx, a, right, hi, buggy);
  ctx.sync();
}

/// One timed run of the n = 50,000 Fig. 1 sort under det, on fresh cells
/// holding raw; returns its seconds.
template <typename Detector>
double screened_sort(Detector& det, const std::vector<int>& raw) {
  std::vector<cell<int>> a;
  a.reserve(raw.size());
  for (int v : raw) a.emplace_back(v);
  stopwatch sw;
  run_under_detector(det, [&](basic_screen_context<Detector>& ctx) {
    sqsort(ctx, a, 0, static_cast<int>(a.size()), false);
  });
  return sw.elapsed_s();
}

/// The timed reps of one configuration: the median, the range, and the
/// rates they give for a fixed number of accesses.
struct rep_times {
  std::vector<double> s;

  double median() const {
    std::vector<double> sorted = s;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
  std::string range() const {
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    return table::format_cell(*lo) + "–" + table::format_cell(*hi);
  }
  double rate_median(std::uint64_t accesses) const {
    return static_cast<double>(accesses) / median();
  }
  /// The slowest rep's rate to the fastest's.
  std::string rate_range(std::uint64_t accesses) const {
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    const auto n = static_cast<double>(accesses);
    return table::format_cell(n / *hi) + "–" + table::format_cell(n / *lo);
  }
};

// Instrumented Fig. 5/6/7 walks over an instrumented output-list length.
void swalk(screen_context& ctx, const workloads::assembly_node* x,
           const workloads::collision_model& model, cell<int>& list_len,
           screen_mutex* mutex) {
  if (x == nullptr) return;
  if (workloads::collides(model, x->id)) {
    if (mutex != nullptr) mutex->lock(ctx);
    list_len.update(ctx, [](int& v) { ++v; });
    if (mutex != nullptr) mutex->unlock(ctx);
  }
  ctx.spawn([&, left = x->left.get()](screen_context& c) {
    swalk(c, left, model, list_len, mutex);
  });
  swalk(ctx, x->right.get(), model, list_len, mutex);
  ctx.sync();
}

}  // namespace

int main() {
  std::cout << "=== E11: Cilkscreen race detection ===\n\n";
  bool ok = true;
  const auto expect = [&](bool holds, const char* what) {
    if (!holds) {
      std::cerr << "FAIL: " << what << "\n";
      ok = false;
    }
  };
  const workloads::collision_model model{.cost = 5, .threshold = 256};
  const workloads::assembly asmbl = workloads::build_assembly(11, model, 3);

  table t{"program", "paper expectation", "races", "reads", "writes",
          "lock-suppressed"};

  {
    detector d;
    cell<int> len(0, "output_list");
    run_under_detector(d, [&](screen_context& ctx) {
      swalk(ctx, asmbl.root.get(), model, len, nullptr);
    });
    t.row("Fig. 5 naive walk", "race on output_list", d.stats().races_found,
          d.stats().reads_checked, d.stats().writes_checked,
          d.stats().races_lock_suppressed);
    expect(d.found_races(), "Fig. 5 naive walk reports no race");
  }
  {
    detector d;
    cell<int> len(0, "output_list");
    screen_mutex L(d);
    run_under_detector(d, [&](screen_context& ctx) {
      swalk(ctx, asmbl.root.get(), model, len, &L);
    });
    t.row("Fig. 6 mutex walk", "quiet", d.stats().races_found,
          d.stats().reads_checked, d.stats().writes_checked,
          d.stats().races_lock_suppressed);
    expect(!d.found_races(), "Fig. 6 mutex walk reports a race");
  }
  for (const bool buggy : {false, true}) {
    detector d;
    xoshiro256 rng(41);
    std::vector<cell<int>> a;
    for (int i = 0; i < 2000; ++i) a.emplace_back(static_cast<int>(rng.below(100000)));
    run_under_detector(d, [&](screen_context& ctx) {
      sqsort(ctx, a, 0, static_cast<int>(a.size()), buggy);
    });
    t.row(buggy ? "Sec. 4 mutated qsort (middle-1)" : "Fig. 1 qsort",
          buggy ? "race (overlap)" : "quiet", d.stats().races_found,
          d.stats().reads_checked, d.stats().writes_checked,
          d.stats().races_lock_suppressed);
    if (!buggy) expect(!d.found_races(), "Fig. 1 qsort reports a race");
  }
  t.print(std::cout);

  // Determinism: the exposed race is caught in EVERY single serial run.
  int caught = 0;
  for (int run = 0; run < 10; ++run) {
    detector d;
    xoshiro256 rng(100 + static_cast<std::uint64_t>(run));
    std::vector<cell<int>> a;
    for (int i = 0; i < 500; ++i) a.emplace_back(static_cast<int>(rng.below(100000)));
    run_under_detector(d, [&](screen_context& ctx) {
      sqsort(ctx, a, 0, static_cast<int>(a.size()), true);
    });
    caught += d.found_races() ? 1 : 0;
  }
  std::cout << "\nMutated qsort over 10 random inputs: race caught in " << caught
            << "/10 single serial runs (paper: guaranteed when exposed).\n\n";
  expect(caught == 10, "mutated qsort missed in a single serial run");

  // Overhead of the detector vs the bare elision. Each configuration runs
  // once to warm up and then overhead_reps times, each on a fresh copy of
  // the input (fresh cells and a fresh detector for the engines); the table
  // reports the median with min–max. Every rep keeps the verdict checks.
  {
    constexpr int overhead_reps = 5;
    std::vector<int> raw(50000);
    xoshiro256 rng(5);
    for (int& v : raw) v = static_cast<int>(rng.below(1 << 20));

    rep_times plain, bags, order;
    std::uint64_t checked_bags = 0;
    std::uint64_t checked_order = 0;
    std::uint64_t relabels = 0;
    for (int rep = 0; rep <= overhead_reps; ++rep) {
      auto copy = raw;
      stopwatch sw;
      std::sort(copy.begin(), copy.end());
      const double plain_s = sw.elapsed_s();

      detector d;
      const double bags_s = screened_sort(d, raw);
      // Second engine: SP-order (order-maintenance lists, paper ref [2]).
      order_detector od;
      const double order_s = screened_sort(od, raw);

      checked_bags = d.stats().reads_checked + d.stats().writes_checked;
      checked_order = od.stats().reads_checked + od.stats().writes_checked;
      relabels = od.relation().relabel_count();
      expect(!d.found_races(), "n = 50000 qsort races under SP-bags");
      expect(!od.found_races(), "n = 50000 qsort races under SP-order");
      expect(checked_bags == checked_order,
             "the engines checked different access counts on the n = 50000 "
             "qsort");
      if (rep == 0) continue;  // the warm-up
      plain.s.push_back(plain_s);
      bags.s.push_back(bags_s);
      order.s.push_back(order_s);
    }

    table o{"configuration", "time (s), median", "min–max", "slowdown",
            "accesses checked", "accesses/s, median", "min–max"};
    o.row("std::sort, uninstrumented", plain.median(), plain.range(), 1.0,
          std::uint64_t{0}, 0.0, "");
    o.row("qsort under SP-bags engine", bags.median(), bags.range(),
          bags.median() / plain.median(), checked_bags,
          bags.rate_median(checked_bags), bags.rate_range(checked_bags));
    o.row("qsort under SP-order engine", order.median(), order.range(),
          order.median() / plain.median(), checked_order,
          order.rate_median(checked_order), order.rate_range(checked_order));
    o.set_title("detector overhead, n = 50000, " +
                std::to_string(overhead_reps) +
                " reps after a warm-up (binary-instrumentation tools pay a "
                "comparable constant)");
    o.print(std::cout);
    std::cout << "SP-order engine: " << relabels
              << " order-maintenance relabels per sort.\n\n";
  }

  // ALL-SETS history depth: how many (lockset, kind) entries do shadow
  // cells actually hold?  Lock-free code stays at 1–2 entries per cell
  // (last reader + last writer, as in classic SP-bags); each distinct
  // lockset a location is touched under can add one more, bounded by
  // history_capacity with a counted spill.
  {
    constexpr unsigned nlocks = 3;
    constexpr int strands = 64;
    detector d;
    order_detector od;
    const auto run_mix = [&](auto& det, auto tag) {
      using ctx_t = basic_screen_context<std::decay_t<decltype(det)>>;
      (void)tag;
      std::vector<cell<int>> vars(32);
      std::vector<basic_screen_mutex<std::decay_t<decltype(det)>>> locks;
      for (unsigned b = 0; b < nlocks; ++b) locks.emplace_back(det);
      xoshiro256 rng(17);
      run_under_detector(det, [&](ctx_t& ctx) {
        for (int s = 0; s < strands; ++s) {
          const auto v = rng.below(vars.size());
          const auto mask = static_cast<unsigned>(rng.below(1u << nlocks));
          ctx.spawn([&, v, mask](ctx_t& c) {
            for (unsigned b = 0; b < nlocks; ++b)
              if (mask & (1u << b)) locks[b].lock(c);
            vars[v].update(c, [](int& x) { ++x; });
            for (unsigned b = nlocks; b-- > 0;)
              if (mask & (1u << b)) locks[b].unlock(c);
          });
        }
        ctx.sync();
      });
    };
    run_mix(d, 0);
    run_mix(od, 0);

    const auto bags_hist = d.history_histogram();
    const auto order_hist = od.history_histogram();
    const std::size_t depth = std::max(bags_hist.size(), order_hist.size());
    table h{"entries per cell", "SP-bags cells", "SP-order cells"};
    for (std::size_t n = 1; n < depth; ++n) {
      h.row(static_cast<std::uint64_t>(n),
            n < bags_hist.size() ? bags_hist[n] : 0,
            n < order_hist.size() ? order_hist[n] : 0);
    }
    h.set_title("history entries per shadow cell (64 strands, random "
                "locksets over 3 locks)");
    h.print(std::cout);
    std::cout << "history spills: SP-bags " << d.stats().history_spills
              << ", SP-order " << od.stats().history_spills
              << " (capacity " << history_capacity
              << " entries; 3 locks needs at most 16).\n";
    expect(bags_hist == order_hist,
           "the engines' lock-mix history histograms differ");
    expect(d.stats().history_spills == 0 && od.stats().history_spills == 0,
           "the lock mix spills a history");
  }
  return ok ? 0 : 1;
}
