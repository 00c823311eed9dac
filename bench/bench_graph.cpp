// Galois-class graph analytics benchmark (ROADMAP "Galois-class graph
// analytics at scale"): parallel CSR construction + Brandes betweenness
// centrality + push-style PageRank on a 1M-edge RMAT graph, with the full
// certification ring run inline — differential checks against the serial
// references (BC bitwise, PageRank 1e-9 L1), a cilkview profile of each
// kernel's recorded dag, and a sim::machine predicted-speedup sweep at P up
// to 64. Emits BENCH_graph.json (same mold as BENCH_spawn_path.json);
// CI's perf-smoke job archives it.
//
// Thresholds are catastrophic-only: cilkview parallelism >= 8 for both
// kernels on the 1M-edge input (the ISSUE 8 acceptance gate — irregular
// graphs must still expose an order of magnitude of parallelism at this
// scale), plus the differential checks, which are exact contracts and not
// noise-sensitive at all. One timing gate: BC + PageRank at P = 1 against
// the same kernels under the serial elision (rt::serial_context), the median
// of five interleaved rounds, must stay within kElisionRatioMax. Both sides
// run on one thread of one process, so the host's speed cancels out; the
// ratio is the runtime's serial overhead on reducer-heavy leaves (paper
// Sec. 5: reducers cost nothing in serial).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cilkview/profile.hpp"
#include "dag/recorder.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "graph/ref.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "sim/machine.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"

namespace {

using namespace cilkpp;

constexpr unsigned kScale = 17;             // 131072 vertices
constexpr std::uint64_t kEdges = 1'000'000; // the ISSUE's 1M-edge input
constexpr std::uint64_t kSeed = 2026;
constexpr std::uint64_t kGrain = 256;
constexpr std::uint32_t kPivots = 4;
constexpr std::uint32_t kIterations = 10;
constexpr unsigned kElisionRounds = 5;
constexpr double kElisionRatioMax = 1.3;

void emit_iteration_stats(json_writer& w, const char* key,
                          const std::vector<graph::iteration_stats>& iters) {
  w.key(key);
  w.begin_array();
  for (const graph::iteration_stats& it : iters) {
    w.begin_object();
    w.field("iteration", it.index);
    w.field("active", it.active);
    w.field("claimed", it.claimed);
    w.field("items", it.hist.items);
    w.field("work", it.hist.work);
    w.field("max_work", it.hist.max_work);
    w.field("mean_work", it.hist.mean_work());
    w.field("top_bucket", it.hist.top_bucket());
    // Nonzero log2 buckets only: [bit_width, count] pairs.
    w.key("buckets");
    w.begin_array();
    for (unsigned b = 0; b < graph::work_histogram::bucket_count; ++b) {
      if (it.hist.buckets[b] == 0) continue;
      w.begin_array();
      w.value(b);
      w.value(it.hist.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void emit_profile(json_writer& w, const char* key,
                  const cilkview::profile& p) {
  w.key(key);
  w.begin_object();
  w.field("work", p.work);
  w.field("span", p.span);
  w.field("parallelism", p.parallelism());
  w.field("burdened_parallelism", p.burdened_parallelism());
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_graph.json";
  if (argc > 1) out_path = argv[1];

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;

  const graph::bc_options bc_opt{
      .pivots = kPivots, .seed = 7, .grain = kGrain};
  const graph::pagerank_options pr_opt{.iterations = kIterations,
                                       .grain = kGrain};

  // --- Build (P = hw, then P = 1), with the serial builder as oracle. ---
  stopwatch sw;
  const graph::csr g_serial = graph::rmat_graph_serial(kScale, kEdges, kSeed);
  const double build_serial_s = sw.elapsed_s();

  rt::scheduler sched_hw(hw);
  rt::scheduler sched_1(1);

  sw.reset();
  const graph::csr g = sched_hw.run([&](rt::context& ctx) {
    return graph::rmat_graph(ctx, kScale, kEdges, kSeed, {}, kGrain);
  });
  const double build_hw_s = sw.elapsed_s();
  sw.reset();
  const graph::csr gt = sched_hw.run(
      [&](rt::context& ctx) { return graph::transpose(ctx, g, kGrain); });
  const double transpose_hw_s = sw.elapsed_s();

  const bool build_deterministic = (g == g_serial);
  const double skew = graph::top_decile_degree_mass(g);

  // --- Kernels at P = 1 and P = hw. ---
  sw.reset();
  const graph::bc_result bc_1 = sched_1.run(
      [&](rt::context& ctx) { return graph::betweenness(ctx, g, gt, bc_opt); });
  const double bc_1_s = sw.elapsed_s();
  sw.reset();
  const graph::bc_result bc_hw = sched_hw.run(
      [&](rt::context& ctx) { return graph::betweenness(ctx, g, gt, bc_opt); });
  const double bc_hw_s = sw.elapsed_s();

  sw.reset();
  const graph::pagerank_result pr_1 = sched_1.run(
      [&](rt::context& ctx) { return graph::pagerank(ctx, g, gt, pr_opt); });
  const double pr_1_s = sw.elapsed_s();
  sw.reset();
  const graph::pagerank_result pr_hw = sched_hw.run(
      [&](rt::context& ctx) { return graph::pagerank(ctx, g, gt, pr_opt); });
  const double pr_hw_s = sw.elapsed_s();

  // --- Differential ring on the full-size input. ---
  sw.reset();
  const std::vector<double> bc_ref = graph::bc_serial(
      g, gt, graph::sample_pivots(g.vertices(), bc_opt.pivots, bc_opt.seed));
  const double bc_serial_s = sw.elapsed_s();
  sw.reset();
  const graph::pagerank_serial_result pr_ref =
      graph::pagerank_serial(g, gt, pr_opt.damping, pr_opt.iterations);
  const double pr_serial_s = sw.elapsed_s();

  // --- P = 1 against the elision: kElisionRounds interleaved rounds, the
  // side that goes first alternating. Each round times BC + PageRank on
  // both sides; the gate reads the median of the per-round ratios. ---
  graph::bc_result bc_el;
  graph::pagerank_result pr_el;
  std::vector<double> elision_s;
  std::vector<double> p1_s;
  std::vector<double> ratios;
  for (unsigned round = 0; round < kElisionRounds; ++round) {
    double el = 0.0;
    double p1 = 0.0;
    for (unsigned side = 0; side < 2; ++side) {
      sw.reset();
      if ((side + round) % 2 == 0) {
        rt::serial_context root;
        bc_el = graph::betweenness(root, g, gt, bc_opt);
        pr_el = graph::pagerank(root, g, gt, pr_opt);
        el = sw.elapsed_s();
      } else {
        (void)sched_1.run(
            [&](rt::context& ctx) { return graph::betweenness(ctx, g, gt, bc_opt); });
        (void)sched_1.run(
            [&](rt::context& ctx) { return graph::pagerank(ctx, g, gt, pr_opt); });
        p1 = sw.elapsed_s();
      }
    }
    elision_s.push_back(el);
    p1_s.push_back(p1);
    ratios.push_back(el > 0 ? p1 / el : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double elision_ratio = ratios[ratios.size() / 2];

  const bool bc_exact = bc_hw.centrality == bc_ref &&
                        bc_1.centrality == bc_ref && bc_el.centrality == bc_ref;
  double pr_l1 = 0.0;
  for (std::size_t i = 0; i < pr_ref.rank.size(); ++i) {
    pr_l1 += std::abs(pr_hw.rank[i] - pr_ref.rank[i]);
  }
  const bool pr_p_identical = pr_hw.rank == pr_1.rank;
  const bool pr_elision_identical = pr_el.rank == pr_1.rank;

  // --- cilkview profile + sim::machine sweep on each kernel's dag. ---
  const dag::graph bc_dag = dag::record([&](dag::recorder_context& ctx) {
    (void)graph::betweenness(ctx, g, gt, bc_opt);
  });
  const dag::graph pr_dag = dag::record([&](dag::recorder_context& ctx) {
    (void)graph::pagerank(ctx, g, gt, pr_opt);
  });
  const cilkview::profile bc_prof = cilkview::analyze_dag(bc_dag);
  const cilkview::profile pr_prof = cilkview::analyze_dag(pr_dag);

  const std::vector<unsigned> procs{1, 2, 4, 8, 16, 32, 64};
  sim::machine_config cfg;
  cfg.steal_latency = 20;
  cfg.seed = 1;
  const std::vector<sim::sim_result> bc_sim =
      sim::simulate_sweep(bc_dag, cfg, procs);
  const std::vector<sim::sim_result> pr_sim =
      sim::simulate_sweep(pr_dag, cfg, procs);

  // --- Thresholds (catastrophic-only for timings; exact for contracts). ---
  constexpr double parallelism_min = 8.0;
  constexpr double pr_l1_max = 1e-9;
  bool ok = true;
  if (!build_deterministic) {
    std::fprintf(stderr, "FAIL: parallel build != serial build\n");
    ok = false;
  }
  if (!bc_exact) {
    std::fprintf(stderr, "FAIL: BC differs from serial Brandes reference\n");
    ok = false;
  }
  if (!pr_p_identical) {
    std::fprintf(stderr, "FAIL: PageRank differs between P=1 and P=%u\n", hw);
    ok = false;
  }
  if (!pr_elision_identical) {
    std::fprintf(stderr, "FAIL: PageRank differs between the elision and P=1\n");
    ok = false;
  }
  if (elision_ratio > kElisionRatioMax) {
    std::fprintf(stderr,
                 "FAIL: BC + PageRank at P=1 take %.2fx the elision's time "
                 "(median of %u rounds) > %.1fx\n",
                 elision_ratio, kElisionRounds, kElisionRatioMax);
    ok = false;
  }
  if (pr_l1 > pr_l1_max) {
    std::fprintf(stderr, "FAIL: PageRank L1 vs serial %.3e > %.0e\n", pr_l1,
                 pr_l1_max);
    ok = false;
  }
  if (bc_prof.parallelism() < parallelism_min) {
    std::fprintf(stderr, "FAIL: BC parallelism %.1f < %.0f\n",
                 bc_prof.parallelism(), parallelism_min);
    ok = false;
  }
  if (pr_prof.parallelism() < parallelism_min) {
    std::fprintf(stderr, "FAIL: PageRank parallelism %.1f < %.0f\n",
                 pr_prof.parallelism(), parallelism_min);
    ok = false;
  }

  json_writer w;
  w.begin_object();
  w.field("benchmark", "graph");
  w.field("hardware_concurrency", hw);
  w.key("graph");
  w.begin_object();
  w.field("kind", "rmat");
  w.field("scale", kScale);
  w.field("vertices", g.vertices());
  w.field("edges", g.edges());
  w.field("seed", kSeed);
  w.field("top_decile_degree_mass", skew);
  w.field("build_serial_s", build_serial_s);
  w.field("build_parallel_s", build_hw_s);
  w.field("transpose_parallel_s", transpose_hw_s);
  w.field("deterministic", build_deterministic);
  w.end_object();
  w.key("bc");
  w.begin_object();
  w.field("pivots", bc_opt.pivots);
  w.field("grain", bc_opt.grain);
  w.field("serial_s", bc_serial_s);
  w.field("p1_s", bc_1_s);
  w.field("phw_s", bc_hw_s);
  w.field("speedup_vs_p1", bc_hw_s > 0 ? bc_1_s / bc_hw_s : 0.0);
  w.field("exact_vs_serial", bc_exact);
  emit_iteration_stats(w, "levels", bc_hw.levels);
  w.end_object();
  w.key("pagerank");
  w.begin_object();
  w.field("iterations", pr_opt.iterations);
  w.field("grain", pr_opt.grain);
  w.field("serial_s", pr_serial_s);
  w.field("p1_s", pr_1_s);
  w.field("phw_s", pr_hw_s);
  w.field("speedup_vs_p1", pr_hw_s > 0 ? pr_1_s / pr_hw_s : 0.0);
  w.field("l1_vs_serial", pr_l1);
  w.field("bitwise_p1_vs_phw", pr_p_identical);
  w.field("bitwise_elision_vs_p1", pr_elision_identical);
  w.field("final_residual",
          pr_hw.residuals.empty() ? 0.0 : pr_hw.residuals.back());
  emit_iteration_stats(w, "iters", pr_hw.iters);
  w.end_object();
  w.key("p1_vs_elision");
  w.begin_object();
  w.field("rounds", kElisionRounds);
  w.field("ratio_median", elision_ratio);
  w.field("ratio_max", kElisionRatioMax);
  w.key("elision_s");
  w.begin_array();
  for (const double t : elision_s) w.value(t);
  w.end_array();
  w.key("p1_s");
  w.begin_array();
  for (const double t : p1_s) w.value(t);
  w.end_array();
  w.end_object();
  w.key("cilkview");
  w.begin_object();
  emit_profile(w, "bc", bc_prof);
  emit_profile(w, "pagerank", pr_prof);
  w.end_object();
  w.key("sim");
  w.begin_object();
  w.key("processors");
  w.begin_array();
  for (const unsigned p : procs) w.value(p);
  w.end_array();
  w.key("bc_speedup");
  w.begin_array();
  for (const sim::sim_result& r : bc_sim) w.value(r.speedup(bc_prof.work));
  w.end_array();
  w.key("pagerank_speedup");
  w.begin_array();
  for (const sim::sim_result& r : pr_sim) w.value(r.speedup(pr_prof.work));
  w.end_array();
  w.end_object();
  w.key("thresholds");
  w.begin_object();
  w.field("parallelism_min", parallelism_min);
  w.field("pagerank_l1_max", pr_l1_max);
  w.field("passed", ok);
  w.end_object();
  w.end_object();

  const std::string doc = w.take();
  std::ofstream out(out_path);
  out << doc;
  out.close();
  std::printf("%s", doc.c_str());
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}
