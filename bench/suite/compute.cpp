// The compute workloads: fib_spawn, qsort_sort and graph_bcpr.
//
// P = nproc workers, and the calling thread is worker 0 of both the P = 1
// and the P = nproc scheduler. Each round runs one input on the serial
// elision (rt::serial_context), then P = 1, then pn_reps times P = nproc.
// Rounds repeat for the window after two warm-up rounds. Speedup and serial
// overhead come from per-rep ratios against the same round's elision, so a
// slow stretch of the host moves both sides of each ratio. Each round
// also samples the host reference; absolute times are reported at the
// nominal host speed (suite.hpp), with the raw values under detail. A round
// whose P = n pool threads did not stay parked through its single-CPU part
// gives no reference, elision or P = 1 sample.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "alloc/slab.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "graph/ref.hpp"
#include "pedigree/pedigree.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "suite.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

namespace cilkbench {
namespace {

using namespace cilkpp;

/// Calls a kernel body makes into a lower layer, timed by the benchmark.
struct call_log {
  struct call {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<call> calls;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Kernels. Each provides: units() per rep, next_input(round), make_oracle(),
// reset() before every engine run, body(ctx, log), check(r, on_runtime),
// after_pn(log) for each windowed P = n rep, and report(r) for the numbers
// only this workload has.

/// fib(30) with cutoff 0: every addition is a spawn, and there is no user
/// work, so spawn/sync, the deque and the allocator do nearly everything.
/// The input is fixed; the seed has nothing to vary.
struct fib_kernel {
  static constexpr unsigned n = 30;

  fib_kernel(const options&, rt::scheduler&) {}
  double units() const { return static_cast<double>(workloads::fib_serial(n + 1) - 1); }
  void next_input(std::uint64_t) {}
  void make_oracle() {
    if (expected == 0) expected = workloads::fib_serial(n);
  }
  void reset() { value = 0; }
  template <typename Ctx>
  void body(Ctx& ctx, call_log&) {
    value = workloads::fib(ctx, n, 0);
  }
  void check(result& r, bool) {
    r.check(value == expected, "fib(30) != fib_serial(30)");
  }
  void after_pn(const call_log&) {}
  void report(result&) const {}

  std::uint64_t expected = 0;
  std::uint64_t value = 0;
};

/// Order-independent fingerprint of a multiset of doubles: a sorted output
/// with the input's fingerprint is the input sorted, without paying for a
/// std::sort reference of every round's fresh input.
std::uint64_t multiset_fingerprint(const std::vector<double>& v) {
  std::uint64_t fp = 0;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    fp += splitmix64(bits);
  }
  return fp;
}

/// Fig. 1 qsort of 2^21 doubles (16 MiB: past a per-core L2, inside a
/// shared L3), cutoff 512. A fresh input per round, drawn from the seed.
struct qsort_kernel {
  static constexpr std::size_t n = std::size_t{1} << 21;
  static constexpr std::size_t cutoff = 512;

  qsort_kernel(const options& opt, rt::scheduler&) : seed(opt.seed), work(n) {}
  double units() const { return static_cast<double>(n); }
  void next_input(std::uint64_t round) {
    input = workloads::random_doubles(n, ped::mix(seed, round));
  }
  void make_oracle() { input_fp = multiset_fingerprint(input); }
  void reset() { std::copy(input.begin(), input.end(), work.begin()); }
  template <typename Ctx>
  void body(Ctx& ctx, call_log&) {
    workloads::qsort(ctx, work.begin(), work.end(), cutoff);
  }
  void check(result& r, bool) {
    r.check(std::is_sorted(work.begin(), work.end()) &&
                multiset_fingerprint(work) == input_fp,
            "qsort output is not the sorted input");
  }
  void after_pn(const call_log&) {}
  void report(result&) const {}

  std::uint64_t seed;
  std::vector<double> input;
  std::vector<double> work;
  std::uint64_t input_fp = 0;
};

/// RMAT scale 17 with 1M edges; per rep, BC from 4 pivots plus 10 PageRank
/// iterations, grain 256. The graph and the pivots are fixed per seed.
struct graph_kernel {
  static constexpr unsigned scale = 17;
  static constexpr std::uint64_t edge_count = 1'000'000;
  static constexpr std::uint64_t grain = 256;
  static constexpr std::uint32_t pivots = 4;
  static constexpr std::uint32_t iterations = 10;

  graph_kernel(const options& opt, rt::scheduler& sched) {
    std::uint64_t t0 = now_ns();
    g = sched.run([&](rt::context& ctx) {
      return graph::rmat_graph(ctx, scale, edge_count, ped::mix(opt.seed, 0x67726170),
                               {}, grain);
    });
    std::uint64_t t1 = now_ns();
    gt = sched.run([&](rt::context& ctx) { return graph::transpose(ctx, g, grain); });
    build_s = ns_to_s(t1 - t0);
    transpose_s = ns_to_s(now_ns() - t1);
    pr_opt.iterations = iterations;
    pr_opt.grain = grain;
    bc_opt.pivots = pivots;
    bc_opt.grain = grain;
    // About half of an RMAT graph's vertices have no out-edges, and a BFS
    // from one of them ends at once, while one from any other vertex reaches
    // the giant component. Pivot sets are drawn until every pivot has an
    // out-edge, so every seed's rep does the same amount of BC work.
    for (std::uint64_t k = 0;; ++k) {
      bc_opt.seed = ped::mix(opt.seed, k + 1);
      const std::vector<std::uint32_t> p =
          graph::sample_pivots(g.vertices(), pivots, bc_opt.seed);
      if (std::all_of(p.begin(), p.end(),
                      [&](std::uint32_t v) { return g.degree(v) > 0; })) {
        break;
      }
    }
  }
  double units() const {
    return static_cast<double>(pivots + iterations) * static_cast<double>(g.edges());
  }
  void next_input(std::uint64_t) {}
  void make_oracle() {
    if (bc_ref.empty()) {
      const std::vector<std::uint32_t> p =
          graph::sample_pivots(g.vertices(), pivots, bc_opt.seed);
      bc_ref = graph::bc_serial(g, gt, p);
      pr_ref = graph::pagerank_serial(g, gt, pr_opt.damping, iterations).rank;
    }
  }
  void reset() {}
  template <typename Ctx>
  void body(Ctx& ctx, call_log& log) {
    const std::uint64_t t0 = now_ns();
    bc = graph::betweenness(ctx, g, gt, bc_opt);
    const std::uint64_t t1 = now_ns();
    pr = graph::pagerank(ctx, g, gt, pr_opt);
    const std::uint64_t t2 = now_ns();
    log.calls.push_back({"graph.betweenness", t0, t1});
    log.calls.push_back({"graph.pagerank", t1, t2});
  }
  void check(result& r, bool on_runtime) {
    r.check(bitwise_equal(bc.centrality, bc_ref), "BC differs from bc_serial");
    bool close = pr.rank.size() == pr_ref.size();
    double l1 = 0.0;
    for (std::size_t i = 0; close && i < pr_ref.size(); ++i) {
      l1 += std::abs(pr.rank[i] - pr_ref[i]);
    }
    r.check(close && l1 <= 1e-9, "PageRank L1 vs pagerank_serial > 1e-9");
    // Every runtime result, P = 1 or P = n, is bitwise equal to the first.
    if (on_runtime) {
      if (pr_runtime.empty()) pr_runtime = pr.rank;
      r.check(bitwise_equal(pr.rank, pr_runtime),
              "PageRank differs between P=1 and P=n");
    }
  }
  void after_pn(const call_log& log) {
    bc_ms.push_back(ns_to_ms(log.calls[0].end_ns - log.calls[0].start_ns));
    pr_ms.push_back(ns_to_ms(log.calls[1].end_ns - log.calls[1].start_ns));
  }
  void report(result& r) const {
    r.layer.push_back({"graph.build_s", build_s, "s"});
    r.layer.push_back({"graph.transpose_s", transpose_s, "s"});
    r.layer.push_back({"graph.bc_ms", median(bc_ms), "ms"});
    r.layer.push_back({"graph.pr_ms", median(pr_ms), "ms"});
    r.layer.push_back(
        {"graph.bc_levels", static_cast<double>(bc.levels.size()), "count"});
    r.detail.push_back({"graph.edges", static_cast<double>(g.edges()), "count"});
  }

  graph::csr g;
  graph::csr gt;
  double build_s = 0.0;
  double transpose_s = 0.0;
  graph::bc_options bc_opt;
  graph::pagerank_options pr_opt;
  std::vector<double> bc_ref;
  std::vector<double> pr_ref;
  std::vector<double> pr_runtime;
  graph::bc_result bc;
  graph::pagerank_result pr;
  std::vector<double> bc_ms;
  std::vector<double> pr_ms;
};

// ---------------------------------------------------------------------------

/// Rounds 0 and 1 warm up; the window starts at round 2.
constexpr std::uint64_t warmup_rounds = 2;
/// P = n reps per round: about as long as the round's P = 1 rep on fib and
/// qsort, so Tn has as many samples as the window allows.
constexpr int pn_reps = 3;
/// Set-ups per run; setup_s is their median.
constexpr int setups = 5;

/// One P = n rep.
struct pn_record {
  double tn_ns = 0;
  double ts_ns = 0;            ///< the round's elision, 0 if its pool woke
  double run_overhead_ns = 0;  ///< run() wall minus root-body wall
  rt::worker_stats stats;
  std::uint64_t system_allocs = 0;
  bool traced = false;
};

/// One round's host reference, elision and P = 1 times.
struct round_record {
  double reference_ns = 0;
  double ts_ns = 0;
  double t1_ns = 0;
  /// No pool thread of the P = n scheduler probed for work or napped while
  /// the three were timed, so none of them competed for a CPU.
  bool pool_parked = false;
};

/// The schedulers plus one kernel instance: everything set-up builds.
template <typename Kernel>
class compute_state {
 public:
  explicit compute_state(const options& opt)
      : sched1_(1), schedn_(cpu_count()), kernel_(opt, schedn_) {}

  /// Makes round `index`'s input and its oracle. Returns the nanoseconds
  /// spent on the oracle, which set-up time excludes.
  std::uint64_t prepare(std::uint64_t index) {
    kernel_.next_input(index);
    const std::uint64_t o0 = now_ns();
    kernel_.make_oracle();
    return now_ns() - o0;
  }

  /// Runs the prepared input on all three engines and checks every result.
  /// The P = n reps are appended to pn only when `keep`; they carry the
  /// round's elision time only when the round's pool stayed parked.
  round_record round(std::uint64_t index, bool keep, bool traced, result& r,
                     std::vector<pn_record>& pn) {
    round_record rec;
    call_log log;
    kernel_.reset();
    schedn_.reset_stats();
    std::uint64_t t0 = now_ns();
    {
      rt::serial_context sc;
      kernel_.body(sc, log);
    }
    rec.ts_ns = static_cast<double>(now_ns() - t0);
    kernel_.check(r, false);

    kernel_.reset();
    t0 = now_ns();
    sched1_.run([&](rt::context& ctx) { kernel_.body(ctx, log); });
    rec.t1_ns = static_cast<double>(now_ns() - t0);
    kernel_.check(r, true);

    rec.reference_ns = host_reference_ns();
    const rt::worker_stats idle = schedn_.stats();
    rec.pool_parked = idle.steal_attempts == 0 && idle.backoff_naps == 0;

    for (int rep = 0; rep < pn_reps; ++rep) {
      pn_record p = pn_rep(index, traced, r);
      if (rec.pool_parked) p.ts_ns = rec.ts_ns;
      if (keep) pn.push_back(p);
    }
    return rec;
  }

  /// One checked P = n rep of the prepared input.
  pn_record pn_rep(std::uint64_t index, bool traced, result& r) {
    pn_record p;
    call_log log;
    kernel_.reset();
    schedn_.reset_stats();
    const std::uint64_t allocs0 = alloc::slab_totals().system_allocs;
    std::uint64_t b0 = 0;
    std::uint64_t b1 = 0;
    const std::uint64_t t0 = now_ns();
    schedn_.run([&](rt::context& ctx) {
      b0 = now_ns();
      kernel_.body(ctx, log);
      b1 = now_ns();
    });
    const std::uint64_t t1 = now_ns();
    p.tn_ns = static_cast<double>(t1 - t0);
    p.run_overhead_ns = static_cast<double>((t1 - t0) - (b1 - b0));
    p.stats = schedn_.stats();
    p.system_allocs = alloc::slab_totals().system_allocs - allocs0;
    p.traced = traced;
    kernel_.check(r, true);
    if (index >= warmup_rounds) kernel_.after_pn(log);
    if (traced) {
      const auto run_span = static_cast<std::int64_t>(r.spans.size());
      r.spans.push_back({"runtime.run", t0, t1, -1, index});
      const auto body_span = static_cast<std::int64_t>(r.spans.size());
      r.spans.push_back({"workload.body", b0, b1, run_span, index});
      for (const call_log::call& c : log.calls) {
        r.spans.push_back({c.name, c.start_ns, c.end_ns, body_span, index});
      }
    }
    return p;
  }

  const Kernel& kernel() const { return kernel_; }

 private:
  rt::scheduler sched1_;
  rt::scheduler schedn_;
  Kernel kernel_;
};

template <typename T, typename Get>
std::vector<double> column(const std::vector<T>& rows, Get get) {
  std::vector<double> v;
  v.reserve(rows.size());
  for (const T& row : rows) v.push_back(get(row));
  return v;
}

template <typename Kernel>
result run_compute(const options& opt, const char* throughput_unit) {
  result r;
  r.workload = opt.workload;

  // Set-up: input generation through the system's own API, construction of
  // both schedulers, and the first (cold) P = n rep, where lazy set-up
  // lands. Done `setups` times; setup_s is the median and the last
  // instance is kept.
  std::vector<double> setup_s;
  std::unique_ptr<compute_state<Kernel>> state;
  for (int i = 0; i < setups; ++i) {
    state.reset();
    const std::uint64_t t0 = now_ns();
    state = std::make_unique<compute_state<Kernel>>(opt);
    const std::uint64_t oracle_ns = state->prepare(0);
    state->pn_rep(0, false, r);
    setup_s.push_back(ns_to_s(now_ns() - t0 - oracle_ns));
  }
  std::vector<pn_record> pn;
  for (std::uint64_t index = 0; index < warmup_rounds; ++index) {
    if (index > 0) state->prepare(index);
    state->round(index, false, false, r, pn);
  }

  std::vector<round_record> rounds;
  const std::uint64_t window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t start = now_ns();
  for (std::uint64_t index = warmup_rounds;
       rounds.empty() || now_ns() - start < window_ns; ++index) {
    state->prepare(index);
    // Traced runs alternate traced and untraced rounds; the ratio of their
    // Tn medians is the tracing overhead.
    rounds.push_back(state->round(index, true, opt.trace && index % 2 == 0, r, pn));
  }
  const double rss_mb = peak_rss_mb();

  // Single-CPU times and host samples count only from rounds whose pool
  // threads stayed parked. Idle workers that spin would slow the elision
  // and the reference together, and so read as a gain in every scaled time
  // and ratio; the run fails instead of scaling by such samples.
  const std::size_t windowed = rounds.size();
  std::erase_if(rounds, [](const round_record& x) { return !x.pool_parked; });
  r.check(!rounds.empty(), "no round ran with the P = n pool parked");

  const Kernel& k = state->kernel();
  const std::vector<double> ts =
      column(rounds, [](const round_record& x) { return x.ts_ns; });
  const std::vector<double> t1 =
      column(rounds, [](const round_record& x) { return x.t1_ns; });
  const std::vector<double> tn = column(pn, [](const pn_record& x) { return x.tn_ns; });
  std::vector<double> speedup;
  for (const pn_record& p : pn) {
    if (p.ts_ns > 0) speedup.push_back(p.ts_ns / p.tn_ns);
  }
  const std::vector<double> overhead =
      column(rounds, [](const round_record& x) { return x.t1_ns / x.ts_ns; });
  const std::vector<double> reference =
      column(rounds, [](const round_record& x) { return x.reference_ns; });
  const double factor = host_factor(reference, host_reference_nominal_ns);
  const summary tn_sum = summarize(tn);
  std::vector<double> tn_sorted = tn;
  std::sort(tn_sorted.begin(), tn_sorted.end());
  const double tn_p90 = quantile_sorted(tn_sorted, 0.90);

  // Speedup is the mean, not the median, of the per-rep ratios: the elision
  // runs on one CPU, whose speed flips between two levels for seconds at a
  // time, so the ratios are bimodal. Their median jumps with the share of
  // reps in each mode; their mean moves with it smoothly.
  const double speedup_mean =
      speedup.empty() ? 0.0
                      : std::accumulate(speedup.begin(), speedup.end(), 0.0) /
                            static_cast<double>(speedup.size());
  r.end_to_end = {
      {"setup_s", median(setup_s) * factor, "s"},
      {"throughput", k.units() / (tn_sum.median * 1e-9 * factor), "1/s"},
      {"speedup", speedup_mean, "ratio"},
      {"serial_overhead", median(overhead), "ratio"},
      {"latency_p50_us", tn_sum.median * 1e-3 * factor, "us"},
      {"latency_p90_us", tn_p90 * 1e-3 * factor, "us"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };

  std::uint64_t steals = 0, attempts = 0, refills = 0, spawns = 0, sys_allocs = 0;
  for (const pn_record& p : pn) {
    steals += p.stats.steals;
    attempts += p.stats.steal_attempts;
    refills += p.stats.magazine_refills;
    spawns += p.stats.spawns;
    sys_allocs += p.system_allocs;
  }
  auto stat_median = [&](std::uint64_t rt::worker_stats::*field) {
    return median(column(
        pn, [&](const pn_record& p) { return static_cast<double>(p.stats.*field); }));
  };
  r.layer = {
      {"runtime.run_overhead_us",
       median(column(pn, [](const pn_record& x) { return x.run_overhead_ns; })) * 1e-3,
       "us"},
      {"runtime.spawns", stat_median(&rt::worker_stats::spawns), "count"},
      {"runtime.steals", stat_median(&rt::worker_stats::steals), "count"},
      {"runtime.steal_success", share(steals, attempts), "ratio"},
      {"runtime.backoff_naps", stat_median(&rt::worker_stats::backoff_naps), "count"},
      {"runtime.peak_deque", stat_median(&rt::worker_stats::peak_deque), "count"},
      {"alloc.system_allocs", static_cast<double>(sys_allocs), "count"},
      {"alloc.refills_per_mspawn", share(refills, spawns) * 1e6, "count"},
  };
  if (opt.trace) {
    std::vector<double> traced, untraced;
    for (const pn_record& p : pn) (p.traced ? traced : untraced).push_back(p.tn_ns);
    r.layer.push_back(
        {"spans.overhead", median(traced) / median(untraced) - 1.0, "ratio"});
  }

  const tail tn_tail = tail_percentile(tn_sorted);
  r.detail = {
      {"host.reference_ms", median(reference) * 1e-6, "ms"},
      {"host.factor", factor, "ratio"},
      {"raw.setup_s", median(setup_s), "s"},
      {"raw.throughput", k.units() / (tn_sum.median * 1e-9), "1/s"},
      {"raw.latency_p50_us", tn_sum.median * 1e-3, "us"},
      {"raw.latency_p90_us", tn_p90 * 1e-3, "us"},
      {"units_per_rep", k.units(), throughput_unit},
      {"rounds", static_cast<double>(windowed), "count"},
      {"rounds_pool_awake", static_cast<double>(windowed - rounds.size()), "count"},
      {"pn_reps", static_cast<double>(pn.size()), "count"},
      {"ts_ms", median(ts) * 1e-6, "ms"},
      {"t1_ms", median(t1) * 1e-6, "ms"},
      {"tn_ms", tn_sum.median * 1e-6, "ms"},
      {"tn_iqr_ms", (tn_sum.q3 - tn_sum.q1) * 1e-6, "ms"},
      {"tn_tail_pct", tn_tail.pct, "%"},
      {"tn_tail_ms", tn_tail.value * 1e-6, "ms"},
      {"tn_tail_beyond", static_cast<double>(tn_tail.beyond), "count"},
      {"workers", static_cast<double>(cpu_count()), "count"},
  };
  k.report(r);
  auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e-6;
    return v;
  };
  r.series = {{"reference_ms", ms(reference)},
              {"ts_ms", ms(ts)},
              {"t1_ms", ms(t1)},
              {"tn_ms", ms(tn)},
              {"setup_s", setup_s}};
  return r;
}

}  // namespace

result run_fib_spawn(const options& opt) {
  return run_compute<fib_kernel>(opt, "spawns");
}
result run_qsort_sort(const options& opt) {
  return run_compute<qsort_kernel>(opt, "elements");
}
result run_graph_bcpr(const options& opt) {
  return run_compute<graph_kernel>(opt, "edge_passes");
}

}  // namespace cilkbench
