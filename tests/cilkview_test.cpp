// Tests for the cilkview performance analyzer: the Fig. 3 bound formulas,
// the report rendering, and the online (dag-free) analyzer — which must
// agree bit-for-bit with recording the dag and analyzing it.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "cilkview/online.hpp"
#include "cilkview/profile.hpp"
#include "cilkview/scaling.hpp"
#include "dag/analysis.hpp"
#include "dag/generators.hpp"
#include "dag/recorder.hpp"
#include "dag/serialize.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "support/rng.hpp"
#include "workloads/bfs.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"
#include "workloads/spmv.hpp"

namespace cilkpp::cilkview {
namespace {

TEST(Profile, AnalyzeDagBasics) {
  const dag::graph g = dag::figure2_dag();
  const profile p = analyze_dag(g, /*burden=*/0);
  EXPECT_EQ(p.work, 18u);
  EXPECT_EQ(p.span, 9u);
  EXPECT_EQ(p.burdened_span, 9u);
  EXPECT_DOUBLE_EQ(p.parallelism(), 2.0);
  EXPECT_EQ(p.strands, 18u);
}

TEST(Profile, SpeedupBoundsShapes) {
  profile p;
  p.work = 1000000;
  p.span = 10000;
  p.burdened_span = 20000;
  // Work-law region: bound grows linearly.
  EXPECT_DOUBLE_EQ(speedup_upper_bound(p, 2), 2.0);
  EXPECT_DOUBLE_EQ(speedup_upper_bound(p, 64), 64.0);
  // Span-law region: capped at parallelism.
  EXPECT_DOUBLE_EQ(speedup_upper_bound(p, 200), 100.0);
  // Burdened estimate below the cap, monotone in P, saturating.
  double prev = 0.0;
  for (unsigned procs : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const double est = burdened_speedup_estimate(p, procs);
    EXPECT_LE(est, speedup_upper_bound(p, procs) + 1e-9);
    EXPECT_GE(est, prev);
    prev = est;
  }
  // Saturation limit: T1 / (2·burdened span).
  EXPECT_LT(burdened_speedup_estimate(p, 1 << 20), 1000000.0 / 40000.0 + 0.01);
}

TEST(Profile, ReportContainsCurves) {
  const profile p = analyze_dag(dag::fib_dag(12, 2, 5), 100);
  std::ostringstream os;
  print_report(os, p, {1, 2, 4}, {1.0, 1.9, 3.5});
  const std::string s = os.str();
  EXPECT_NE(s.find("Parallelism"), std::string::npos);
  EXPECT_NE(s.find("Burdened"), std::string::npos);
  EXPECT_NE(s.find("measured"), std::string::npos);
  EXPECT_NE(s.find("3.5"), std::string::npos);
}

// --- Online analyzer ≡ recorder + dag analysis. ---

// A random program shape driven identically through both engines.
template <typename Ctx>
void random_program(Ctx& ctx, xoshiro256& rng, unsigned depth) {
  const auto steps = 1 + rng.below(5);
  for (std::uint64_t s = 0; s < steps; ++s) {
    switch (rng.below(depth == 0 ? 2 : 5)) {
      case 0:
      case 1:
        ctx.account(1 + rng.below(50));
        break;
      case 2:
        ctx.spawn([&](Ctx& c) { random_program(c, rng, depth - 1); });
        break;
      case 3:
        ctx.call([&](Ctx& c) { random_program(c, rng, depth - 1); });
        break;
      case 4:
        ctx.sync();
        break;
    }
  }
  if (rng.below(2) == 0) ctx.sync();
}

class OnlineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineEquivalence, MatchesRecordedDagExactly) {
  const std::uint64_t burden = 100 + GetParam();

  online_analyzer online(burden);
  {
    xoshiro256 rng(GetParam());
    online.run([&](online_context& ctx) { random_program(ctx, rng, 5); });
  }
  const profile live = online.result();

  dag::graph g = [&] {
    xoshiro256 rng(GetParam());
    return dag::record([&](dag::recorder_context& ctx) {
      random_program(ctx, rng, 5);
    });
  }();
  const profile recorded = analyze_dag(g, burden);

  EXPECT_EQ(live.work, recorded.work);
  EXPECT_EQ(live.span, recorded.span);
  EXPECT_EQ(live.burdened_span, recorded.burdened_span);
  EXPECT_EQ(live.spawns, recorded.spawns);
  EXPECT_EQ(live.strands, recorded.strands);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineEquivalence,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(OnlineAnalyzer, FibMatchesRecorder) {
  online_analyzer online(0);
  online.run([](online_context& ctx) { (void)workloads::fib(ctx, 16, 4); });
  const profile live = online.result();

  const dag::graph g = dag::record([](dag::recorder_context& ctx) {
    (void)workloads::fib(ctx, 16, 4);
  });
  const profile rec = analyze_dag(g, 0);
  EXPECT_EQ(live.work, rec.work);
  EXPECT_EQ(live.span, rec.span);
}

TEST(OnlineAnalyzer, QsortThroughParallelForAndSpawns) {
  auto data1 = workloads::random_doubles(20000, 3);
  auto data2 = data1;

  online_analyzer online(500);
  online.run([&](online_context& ctx) {
    workloads::qsort(ctx, data1.data(), data1.data() + data1.size(), 256);
  });
  const profile live = online.result();

  const dag::graph g = dag::record([&](dag::recorder_context& ctx) {
    workloads::qsort(ctx, data2.data(), data2.data() + data2.size(), 256);
  });
  const profile rec = analyze_dag(g, 500);
  EXPECT_EQ(live.work, rec.work);
  EXPECT_EQ(live.span, rec.span);
  EXPECT_EQ(live.burdened_span, rec.burdened_span);
  EXPECT_GT(live.parallelism(), 2.0);
}

TEST(OnlineAnalyzer, UsesConstantFrameMemory) {
  // 100k serial spawns: the analyzer's frame stack stays at depth ~1 while
  // a recorded dag would hold ~300k vertices.
  online_analyzer online(10);
  online.run([](online_context& ctx) {
    for (int i = 0; i < 100000; ++i) {
      ctx.spawn([](online_context& c) { c.account(5); });
      ctx.sync();
    }
  });
  const profile p = online.result();
  EXPECT_EQ(p.work, 500000u);
  EXPECT_EQ(p.span, 500000u);  // fully serialized by the per-spawn syncs
  EXPECT_EQ(p.spawns, 100000u);
}

// --- Pinned recordings: the same dags and profile on every commit. ---
//
// The engine-vs-engine checks above cannot see a change that the recorder
// and the online analyzer share (both run the one cilk_for lowering). These
// pin the serialized text of each recorded dag, and the online profile of a
// loop grid, to constants; a change to the lowering or to a workload's loops
// that moves a single vertex, edge or work unit fails here.

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t saved_hash(const dag::graph& g) {
  std::ostringstream text;
  dag::save(text, g);
  return fnv1a(text.str());
}

constexpr std::array<std::uint64_t, 7> grid_sizes{1, 2, 5, 33, 100, 1000, 5000};
constexpr std::array<std::uint64_t, 6> grid_grains{0, 1, 3, 7, 64, 10000};

/// Every (n, grain) loop of the grid in one frame, in the body(ctx, i) form
/// (each iteration charges i % 5 + 1) or the body(i) form (leaves are
/// empty; the shape and the split charges remain). Each loop is followed by
/// one unit on the caller's strand, so neighbouring loops stay apart.
template <typename Ctx>
void loop_grid(Ctx& ctx, bool ctx_body) {
  for (const std::uint64_t n : grid_sizes) {
    for (const std::uint64_t grain : grid_grains) {
      if (ctx_body) {
        parallel_for(
            ctx, std::uint64_t{0}, n,
            [](Ctx& leaf, std::uint64_t i) { leaf.account(i % 5 + 1); },
            grain);
      } else {
        parallel_for(ctx, std::uint64_t{0}, n, [](std::uint64_t) {}, grain);
      }
      ctx.account(1);
    }
  }
}

TEST(PinnedRecordings, LoopGridDags) {
  const std::uint64_t ctx_body = saved_hash(dag::record(
      [](dag::recorder_context& ctx) { loop_grid(ctx, true); }));
  const std::uint64_t index_body = saved_hash(dag::record(
      [](dag::recorder_context& ctx) { loop_grid(ctx, false); }));
  EXPECT_EQ(ctx_body, 0x67456f4bfc0b4818ULL);
  EXPECT_EQ(index_body, 0xb264bbf101ef4362ULL);
}

TEST(PinnedRecordings, LoopGridOnlineProfile) {
  online_analyzer online;
  online.run([](online_context& ctx) {
    loop_grid(ctx, true);
    loop_grid(ctx, false);
  });
  const profile p = online.result();
  EXPECT_EQ(p.work, 142'155u);
  EXPECT_EQ(p.span, 19'829u);
  EXPECT_EQ(p.burdened_span, 726'626u);
  EXPECT_EQ(p.spawns, 31'581u);
  EXPECT_EQ(p.syncs, 7'888u);
  EXPECT_EQ(p.strands, 71'051u);
}

/// The grains each workload is pinned at: the engine default, 1, and a
/// coarse grain.
constexpr std::array<std::uint64_t, 3> workload_grains{0, 1, 256};

TEST(PinnedRecordings, WorkloadDags) {
  const workloads::csr matrix = workloads::random_sparse_matrix(1500, 6, 7);
  const std::vector<double> x(matrix.rows(), 0.5);
  const graph::csr g = graph::rmat_graph_serial(10, 6000, 3);
  const graph::csr gt = graph::transpose_serial(g);
  constexpr std::array<std::uint64_t, 3> spmv{0xd1be7d45914e0e8fULL,
                                              0xd1be7d45914e0e8fULL,
                                              0xa745bac48d7f7d35ULL};
  constexpr std::array<std::uint64_t, 3> bfs{0x5c1a43c1cd203018ULL,
                                             0x5c1a43c1cd203018ULL,
                                             0x07a5f92f13767fdbULL};
  constexpr std::array<std::uint64_t, 3> bc_pr{0xaeb05931691ea91aULL,
                                               0xaeb05931691ea91aULL,
                                               0xec795395978ce0b4ULL};
  constexpr std::array<std::uint64_t, 3> rmat{0x95e2eabf9fa1a49eULL,
                                              0x95e2eabf9fa1a49eULL,
                                              0x5d9152cb8d1aa1feULL};
  for (std::size_t k = 0; k < workload_grains.size(); ++k) {
    const std::uint64_t grain = workload_grains[k];
    SCOPED_TRACE("grain " + std::to_string(grain));
    EXPECT_EQ(saved_hash(dag::record([&](dag::recorder_context& ctx) {
                (void)workloads::spmv(ctx, matrix, x, grain);
              })),
              spmv[k]);
    EXPECT_EQ(saved_hash(dag::record([&](dag::recorder_context& ctx) {
                (void)workloads::bfs(ctx, g, 0, grain);
              })),
              bfs[k]);
    EXPECT_EQ(saved_hash(dag::record([&](dag::recorder_context& ctx) {
                (void)graph::betweenness(
                    ctx, g, gt, {.pivots = 2, .seed = 1, .grain = grain});
                (void)graph::pagerank(ctx, g, gt,
                                      {.iterations = 3, .grain = grain});
              })),
              bc_pr[k]);
    EXPECT_EQ(saved_hash(dag::record([&](dag::recorder_context& ctx) {
                (void)graph::rmat_graph(ctx, 10, 4000, 5, {}, grain);
              })),
              rmat[k]);
  }
}

// --- Scaling-law fits. ---

TEST(Scaling, ExactPowerLawRecovered) {
  // y = 3 n^2 exactly: the fit must recover exponent 2, coefficient 3, R²=1.
  std::vector<std::pair<double, double>> samples;
  for (double n : {8.0, 16.0, 32.0, 64.0}) samples.emplace_back(n, 3 * n * n);
  const power_fit fit = fit_power_law(samples);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(100), 30000.0, 1e-3);
}

TEST(Scaling, LoopDagScalesLinearlyInWorkConstantInSpan) {
  // cilk_for with fixed grain: work ~ n, span ~ lg n (≈ constant exponent).
  std::vector<scale_point> points;
  for (std::uint64_t n : {1024ull, 4096ull, 16384ull, 65536ull}) {
    points.push_back({static_cast<double>(n),
                      analyze_dag(dag::loop_dag(n, 16, 50), 0)});
  }
  const scaling_report r = analyze_scaling(points);
  EXPECT_NEAR(r.work.exponent, 1.0, 0.05);
  EXPECT_LT(r.span.exponent, 0.3);  // logarithmic growth fits a tiny power
  EXPECT_GT(r.parallelism_exponent, 0.7);
  EXPECT_GT(r.work.r_squared, 0.999);
}

TEST(Scaling, FibWorkGrowsExponentiallyFasterThanSpan) {
  // In terms of the *result size* this isn't a power law in n, but across
  // the sampled range the fit still orders work ≫ span growth.
  std::vector<scale_point> points;
  for (unsigned n : {14u, 16u, 18u, 20u}) {
    points.push_back({static_cast<double>(n),
                      analyze_dag(dag::fib_dag(n, 4, 10), 0)});
  }
  const scaling_report r = analyze_scaling(points);
  EXPECT_GT(r.parallelism_exponent, 1.0);
  EXPECT_GT(r.predicted_parallelism(25), r.predicted_parallelism(20));
}

}  // namespace
}  // namespace cilkpp::cilkview
