// The certification ring for src/graph (ISSUE 8): structural invariants of
// parallel CSR construction, bitwise generator determinism across engines
// and worker counts, RMAT skew sanity, and differential oracles for the
// analytics kernels — BC exactly equal to the serial Brandes reference
// (the kernels are deterministic by construction: fixed-order per-vertex
// sums, no atomics), PageRank within 1e-9 L1 of the serial push reference.
// Race certification under cilkscreen rides both here (small graphs, both
// detector engines) and in stress_test's chaos graph leg.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cilkscreen/detector.hpp"
#include "cilkscreen/screen_context.hpp"
#include "cilkscreen/sporder.hpp"
#include "dag/recorder.hpp"
#include "graph/bc.hpp"
#include "graph/csr.hpp"
#include "graph/generate.hpp"
#include "graph/histogram.hpp"
#include "graph/pagerank.hpp"
#include "graph/ref.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"

namespace cilkpp::graph {
namespace {

using rt::scheduler;
using rt::serial_context;

// --- Work histogram unit checks. ---

TEST(WorkHistogram, BucketsByBitWidth) {
  work_histogram h;
  h.add(0);   // bucket 0
  h.add(1);   // bit_width 1
  h.add(2);   // bit_width 2
  h.add(3);   // bit_width 2
  h.add(9);   // bit_width 4
  EXPECT_EQ(h.items, 5u);
  EXPECT_EQ(h.work, 15u);
  EXPECT_EQ(h.max_work, 9u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[4], 1u);
  EXPECT_EQ(h.top_bucket(), 4u);
  EXPECT_DOUBLE_EQ(h.mean_work(), 3.0);

  work_histogram other;
  other.add(1U << 20);
  h.merge(other);
  EXPECT_EQ(h.items, 6u);
  EXPECT_EQ(h.max_work, 1u << 20);
  EXPECT_EQ(h.top_bucket(), 21u);

  // Monoid identity: merging the identity changes nothing.
  work_histogram copy = h;
  hist_merge::reduce(h, hist_merge::identity());
  EXPECT_EQ(h, copy);
}

// --- CSR structural invariants. ---

TEST(Csr, ParallelBuildMatchesSerialAndValidates) {
  serial_context root;
  const std::vector<edge> edges = uniform_edges(root, 500, 4000, 7);
  const csr serial = build_csr_serial(500, edges);

  std::string why;
  ASSERT_TRUE(validate(serial, &why)) << why;
  EXPECT_EQ(serial.vertices(), 500u);
  EXPECT_EQ(serial.edges(), 4000u);

  for (const unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    const csr parallel = sched.run(
        [&](rt::context& ctx) { return build_csr(ctx, 500, edges); });
    ASSERT_TRUE(validate(parallel, &why)) << why;
    EXPECT_EQ(parallel, serial) << "workers=" << workers;
  }

  // Degree sum equals the edge count (the offsets telescope).
  std::uint64_t degree_sum = 0;
  for (std::uint32_t v = 0; v < serial.vertices(); ++v)
    degree_sum += serial.degree(v);
  EXPECT_EQ(degree_sum, serial.edges());
}

TEST(Csr, RoundTripEdgeListCsr) {
  serial_context root;
  const csr g = uniform_graph(root, 300, 2500, 11);
  // to_edge_list emits row-major sorted edges; rebuilding from them must
  // reproduce the graph exactly, and re-expanding must reproduce the list.
  const std::vector<edge> list = to_edge_list(g);
  const csr rebuilt = build_csr_serial(g.vertices(), list);
  EXPECT_EQ(rebuilt, g);
  EXPECT_EQ(to_edge_list(rebuilt), list);
}

TEST(Csr, TransposeMatchesSerialAndInverts) {
  serial_context root;
  const csr g = uniform_graph(root, 400, 3000, 13);
  const csr ts = transpose_serial(g);
  std::string why;
  ASSERT_TRUE(validate(ts, &why)) << why;

  for (const unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    const csr tp =
        sched.run([&](rt::context& ctx) { return transpose(ctx, g); });
    EXPECT_EQ(tp, ts) << "workers=" << workers;
  }

  // edge_ref cross-links: transposed edge (v <- u, ref k) must point at
  // g's edge k = (u -> v).
  for (std::uint32_t v = 0; v < ts.vertices(); ++v) {
    for (std::uint64_t k = ts.offsets[v]; k < ts.offsets[v + 1]; ++k) {
      const std::uint32_t u = ts.targets[k];
      const std::uint64_t r = ts.edge_ref[k];
      EXPECT_EQ(g.targets[r], v);
      EXPECT_GE(r, g.offsets[u]);
      EXPECT_LT(r, g.offsets[u + 1]);
    }
  }

  // Double transpose restores the adjacency structure.
  csr tt = transpose_serial(ts);
  tt.edge_ref.clear();
  EXPECT_EQ(tt.offsets, g.offsets);
  EXPECT_EQ(tt.targets, g.targets);
}

TEST(Csr, ValidateCatchesCorruption) {
  serial_context root;
  csr g = uniform_graph(root, 50, 300, 5);
  ASSERT_TRUE(validate(g));
  csr bad = g;
  bad.targets[0] = 1000;  // out of range
  EXPECT_FALSE(validate(bad));
  bad = g;
  std::swap(bad.offsets[1], bad.offsets[2]);
  if (bad.offsets[1] != bad.offsets[2]) {
    EXPECT_FALSE(validate(bad));
  }
  bad = g;
  if (bad.degree(0) >= 2 && bad.targets[0] != bad.targets[1]) {
    std::swap(bad.targets[0], bad.targets[1]);
    EXPECT_FALSE(validate(bad));  // row no longer sorted
  }
}

// --- Generator determinism: the graph is a pure function of the seed. ---

TEST(Generators, SameSeedBitIdenticalAcrossEnginesWorkersAndGrains) {
  const csr ref = uniform_graph_serial(1000, 8000, 42);
  const csr rmat_ref = rmat_graph_serial(10, 8000, 42);

  serial_context root;
  EXPECT_EQ(uniform_graph(root, 1000, 8000, 42), ref);
  EXPECT_EQ(rmat_graph(root, 10, 8000, 42), rmat_ref);

  for (const unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    for (const std::uint64_t grain : {std::uint64_t{0}, std::uint64_t{17}}) {
      EXPECT_EQ(sched.run([&](rt::context& ctx) {
                  return uniform_graph(ctx, 1000, 8000, 42, grain);
                }),
                ref)
          << "workers=" << workers << " grain=" << grain;
      EXPECT_EQ(sched.run([&](rt::context& ctx) {
                  return rmat_graph(ctx, 10, 8000, 42, {}, grain);
                }),
                rmat_ref)
          << "workers=" << workers << " grain=" << grain;
    }
  }

  // Different seeds give different graphs (sanity against a constant fn).
  EXPECT_NE(uniform_graph_serial(1000, 8000, 43), ref);
  EXPECT_NE(rmat_graph_serial(10, 8000, 43), rmat_ref);
}

TEST(Generators, NoSelfLoopsAndInRange) {
  serial_context root;
  for (const edge e : uniform_edges(root, 64, 5000, 9)) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 64u);
    EXPECT_LT(e.dst, 64u);
  }
  for (const edge e : rmat_edges(root, 6, 5000, 9)) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 64u);
    EXPECT_LT(e.dst, 64u);
  }
}

TEST(Generators, RmatSkewTopDecileDegreeMass) {
  // RMAT's recursive bias concentrates out-edges on hub vertices; a
  // uniform graph spreads them. The top decile of vertices by out-degree
  // should own most RMAT edges and only a modest uniform share.
  const csr rmat = rmat_graph_serial(12, 50000, 3);
  const csr unif = uniform_graph_serial(1u << 12, 50000, 3);
  const double rmat_mass = top_decile_degree_mass(rmat);
  const double unif_mass = top_decile_degree_mass(unif);
  EXPECT_GT(rmat_mass, 0.3);
  EXPECT_LT(unif_mass, 0.25);
  EXPECT_GT(rmat_mass, unif_mass + 0.1);
}

// --- Pivot sampling. ---

TEST(Pivots, DistinctDeterministicAndExactWhenSaturated) {
  const auto p = sample_pivots(100, 8, 5);
  EXPECT_EQ(p.size(), 8u);
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (const std::uint32_t v : p) EXPECT_LT(v, 100u);
  EXPECT_EQ(sample_pivots(100, 8, 5), p);   // deterministic
  EXPECT_NE(sample_pivots(100, 8, 6), p);   // seed matters
  const auto all = sample_pivots(10, 10, 5);
  std::vector<std::uint32_t> iota(10);
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(all, iota);
  EXPECT_EQ(sample_pivots(10, 99, 5), iota);
}

// --- Betweenness centrality. ---

TEST(Betweenness, HandComputedPathGraph) {
  // 0 -> 1 -> 2 -> 3. With all pivots, dependency sums are exact directed
  // BC: vertex 1 carries (0,2),(0,3); vertex 2 carries (0,3),(1,3).
  const csr g = build_csr_serial(4, {{0, 1}, {1, 2}, {2, 3}});
  const csr gt = transpose_serial(g);
  scheduler sched(2);
  const bc_result r = sched.run([&](rt::context& ctx) {
    return betweenness(ctx, g, gt, bc_options{.pivots = 4, .seed = 1});
  });
  const std::vector<double> expected{0.0, 2.0, 2.0, 0.0};
  EXPECT_EQ(r.centrality, expected);
  EXPECT_EQ(r.pivots.size(), 4u);
}

TEST(Betweenness, HandComputedDiamond) {
  // 0 -> {1,2} -> 3: two shortest 0->3 paths, half through each middle.
  const csr g = build_csr_serial(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const csr gt = transpose_serial(g);
  scheduler sched(2);
  const bc_result r = sched.run([&](rt::context& ctx) {
    return betweenness(ctx, g, gt, bc_options{.pivots = 4, .seed = 1});
  });
  const std::vector<double> expected{0.0, 0.5, 0.5, 0.0};
  EXPECT_EQ(r.centrality, expected);
}

TEST(Betweenness, ExactDifferentialVsSerialReference) {
  // All-pivots BC on a small RMAT graph: the parallel kernel must equal
  // the independently-written serial Brandes bitwise (fixed-order sums).
  const csr g = rmat_graph_serial(7, 1200, 21);
  const csr gt = transpose_serial(g);
  const std::vector<double> expected =
      bc_serial(g, gt, sample_pivots(g.vertices(), g.vertices(), 1));

  for (const unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    const bc_result r = sched.run([&](rt::context& ctx) {
      return betweenness(ctx, g, gt,
                         bc_options{.pivots = g.vertices(), .seed = 1});
    });
    EXPECT_EQ(r.centrality, expected) << "workers=" << workers;
  }

  serial_context root;
  EXPECT_EQ(betweenness(root, g, gt,
                        bc_options{.pivots = g.vertices(), .seed = 1})
                .centrality,
            expected);
}

TEST(Betweenness, PivotSampledMatchesReferenceWithSamePivots) {
  const csr g = uniform_graph_serial(600, 4800, 17);
  const csr gt = transpose_serial(g);
  const bc_options opt{.pivots = 12, .seed = 9};
  const std::vector<double> expected =
      bc_serial(g, gt, sample_pivots(g.vertices(), opt.pivots, opt.seed));
  scheduler sched(4);
  const bc_result r = sched.run(
      [&](rt::context& ctx) { return betweenness(ctx, g, gt, opt); });
  EXPECT_EQ(r.centrality, expected);
  EXPECT_EQ(r.pivots, sample_pivots(g.vertices(), opt.pivots, opt.seed));
  // The forward phase recorded at least one level per pivot, with work.
  EXPECT_GE(r.levels.size(), r.pivots.size());
  std::uint64_t total_work = 0;
  for (const iteration_stats& lvl : r.levels) total_work += lvl.hist.work;
  EXPECT_GT(total_work, 0u);
}

// --- PageRank. ---

TEST(Pagerank, UniformOnCycle) {
  // On a directed cycle every vertex keeps rank 1/n at every iteration.
  std::vector<edge> edges;
  for (std::uint32_t v = 0; v < 64; ++v) edges.push_back({v, (v + 1) % 64});
  const csr g = build_csr_serial(64, edges);
  const csr gt = transpose_serial(g);
  scheduler sched(2);
  const pagerank_result r = sched.run([&](rt::context& ctx) {
    return pagerank(ctx, g, gt, pagerank_options{.iterations = 5});
  });
  for (const double x : r.rank) EXPECT_NEAR(x, 1.0 / 64, 1e-15);
  EXPECT_EQ(r.residuals.size(), 5u);
}

TEST(Pagerank, DifferentialVsSerialReference) {
  const csr g = rmat_graph_serial(9, 6000, 33);  // has dangling vertices
  const csr gt = transpose_serial(g);
  const pagerank_options opt{.iterations = 15};
  const pagerank_serial_result expected =
      pagerank_serial(g, gt, opt.damping, opt.iterations);

  // The serial elision adds in serial order, a one-worker scheduler shares
  // one view per reducer, P > 1 folds per-strand views: summing in fixed
  // point (to_fixed) makes every one of them come out bit-identical.
  rt::serial_context elision;
  const pagerank_result first = pagerank(elision, g, gt, opt);
  for (const unsigned workers : {1u, 4u}) {
    scheduler sched(workers);
    const pagerank_result r = sched.run(
        [&](rt::context& ctx) { return pagerank(ctx, g, gt, opt); });
    EXPECT_EQ(r.rank, first.rank) << "workers=" << workers;
    EXPECT_EQ(r.residuals, first.residuals) << "workers=" << workers;
    ASSERT_EQ(r.rank.size(), expected.rank.size());
    double l1 = 0.0;
    for (std::size_t i = 0; i < r.rank.size(); ++i)
      l1 += std::abs(r.rank[i] - expected.rank[i]);
    EXPECT_LT(l1, 1e-9) << "workers=" << workers;
    ASSERT_EQ(r.residuals.size(), expected.residuals.size());
    for (std::size_t i = 0; i < r.residuals.size(); ++i)
      EXPECT_NEAR(r.residuals[i], expected.residuals[i], 1e-9);
    // Probability mass is conserved.
    double sum = 0.0;
    for (const double x : r.rank) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Per-sweep stats cover every vertex.
    ASSERT_EQ(r.iters.size(), r.residuals.size());
    EXPECT_EQ(r.iters[0].hist.items, g.vertices());
  }
}

TEST(Pagerank, EarlyExitOnTolerance) {
  const csr g = uniform_graph_serial(200, 1600, 4);
  const csr gt = transpose_serial(g);
  scheduler sched(2);
  const pagerank_result r = sched.run([&](rt::context& ctx) {
    return pagerank(ctx, g, gt,
                    pagerank_options{.iterations = 100, .tolerance = 1e-10});
  });
  EXPECT_LT(r.residuals.size(), 100u);
  EXPECT_LT(r.residuals.back(), 1e-10);
}

// --- cilkscreen certification: both kernels, both detector engines, on a
// reduced graph. Every shared-array access in the kernels is reported via
// the instrument shims, so a phase-discipline violation would surface as a
// race report here. ---

template <typename Detector>
void certify_kernels_race_free() {
  const csr g = rmat_graph_serial(6, 600, 8);
  const csr gt = transpose_serial(g);
  Detector d;
  screen::run_under_detector(
      d, [&](screen::basic_screen_context<Detector>& ctx) {
        const bc_result bc = betweenness(
            ctx, g, gt, bc_options{.pivots = 4, .seed = 2, .grain = 8});
        const pagerank_result pr = pagerank(
            ctx, g, gt, pagerank_options{.iterations = 3, .grain = 8});
        EXPECT_EQ(bc.centrality.size(), g.vertices());
        EXPECT_EQ(pr.rank.size(), g.vertices());
      });
  EXPECT_FALSE(d.found_races());
}

TEST(ScreenCertification, KernelsRaceFreeUnderSpBags) {
  certify_kernels_race_free<screen::detector>();
}

TEST(ScreenCertification, KernelsRaceFreeUnderSpOrder) {
  certify_kernels_race_free<screen::order_detector>();
}

// The kernels also run under the dag recorder (the cilkview/bench path).
TEST(Engines, KernelsRunUnderRecorder) {
  const csr g = uniform_graph_serial(200, 1600, 2);
  const csr gt = transpose_serial(g);
  const std::vector<double> bc_expected =
      bc_serial(g, gt, sample_pivots(g.vertices(), 4, 1));
  std::vector<double> bc_got;
  dag::record([&](dag::recorder_context& ctx) {
    bc_got = betweenness(ctx, g, gt, bc_options{.pivots = 4, .seed = 1})
                 .centrality;
  });
  EXPECT_EQ(bc_got, bc_expected);
}

}  // namespace
}  // namespace cilkpp::graph
