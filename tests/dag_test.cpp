// Unit and property tests for the dag model (paper Sec. 2, Fig. 2).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <sstream>

#include "dag/analysis.hpp"
#include "dag/builder.hpp"
#include "dag/dot.hpp"
#include "dag/generators.hpp"
#include "dag/recorder.hpp"
#include "dag/serialize.hpp"
#include "dag/graph.hpp"

namespace cilkpp::dag {
namespace {

TEST(Graph, AddVerticesAndEdges) {
  graph g;
  const auto a = g.add_vertex(3);
  const auto b = g.add_vertex(4);
  g.add_edge(a, b);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.vertex_work(a), 3u);
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  EXPECT_TRUE(g.successors(b).empty());
}

TEST(Graph, InDegreesSourcesSinks) {
  graph g;
  const auto a = g.add_vertex(1);
  const auto b = g.add_vertex(1);
  const auto c = g.add_vertex(1);
  g.add_edge(a, c);
  g.add_edge(b, c);
  const auto deg = g.in_degrees();
  EXPECT_EQ(deg[c], 2u);
  EXPECT_EQ(g.sources(), (std::vector<vertex_id>{a, b}));
  EXPECT_EQ(g.sinks(), (std::vector<vertex_id>{c}));
}

TEST(Graph, TopologicalOrderRespectsEdges) {
  graph g = random_sp_dag(200, 5, 99);
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<std::size_t> position(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (vertex_id v = 0; v < g.num_vertices(); ++v)
    for (vertex_id s : g.successors(v)) EXPECT_LT(position[v], position[s]);
}

TEST(Graph, CycleDetection) {
  graph g;
  const auto a = g.add_vertex(1);
  const auto b = g.add_vertex(1);
  g.add_edge(a, b);
  EXPECT_TRUE(g.is_acyclic());
  g.add_edge(b, a);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_TRUE(g.topological_order().empty());
}

TEST(Graph, EmptyGraphIsAcyclic) {
  graph g;
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.sources().empty());
}

// --- Fig. 2: every fact the paper states about the example dag. ---

TEST(Figure2, WorkIs18) {
  const graph g = figure2_dag();
  EXPECT_EQ(g.num_vertices(), 18u);
  EXPECT_EQ(analyze(g).work, 18u);  // "the work for the example dag is 18"
}

TEST(Figure2, SpanIs9AlongStatedCriticalPath) {
  const graph g = figure2_dag();
  EXPECT_EQ(analyze(g).span, 9u);  // "The span of the dag in our example is 9"
  // "…which corresponds to the path 1≺2≺3≺6≺7≺8≺11≺12≺18."
  const int labels[] = {1, 2, 3, 6, 7, 8, 11, 12, 18};
  for (std::size_t i = 0; i + 1 < std::size(labels); ++i) {
    EXPECT_TRUE(precedes(g, figure2_vertex(labels[i]),
                         figure2_vertex(labels[i + 1])));
  }
  const auto path = critical_path(g);
  EXPECT_EQ(path.size(), 9u);
}

TEST(Figure2, StatedOrderingRelations) {
  const graph g = figure2_dag();
  // "we have 1≺2, 6≺12, and 4‖9"
  EXPECT_TRUE(precedes(g, figure2_vertex(1), figure2_vertex(2)));
  EXPECT_TRUE(precedes(g, figure2_vertex(6), figure2_vertex(12)));
  EXPECT_TRUE(in_parallel(g, figure2_vertex(4), figure2_vertex(9)));
}

TEST(Figure2, ParallelismIs2) {
  // "the parallelism of the dag in Fig. 2 is 18/9 = 2"
  EXPECT_DOUBLE_EQ(analyze(figure2_dag()).parallelism(), 2.0);
}

// --- Laws (Sec. 2.1-2.3). ---

TEST(Laws, WorkAndSpanBounds) {
  const metrics m{.work = 1000, .span = 50};
  EXPECT_DOUBLE_EQ(work_law_bound(m, 4), 250.0);
  EXPECT_DOUBLE_EQ(span_law_bound(m), 50.0);
  EXPECT_DOUBLE_EQ(lower_bound_tp(m, 4), 250.0);   // work law dominates
  EXPECT_DOUBLE_EQ(lower_bound_tp(m, 64), 50.0);   // span law dominates
  EXPECT_DOUBLE_EQ(speedup_upper_bound(m, 4), 4.0);
  EXPECT_DOUBLE_EQ(speedup_upper_bound(m, 64), 20.0);  // capped at parallelism
}

TEST(Laws, AmdahlFiftyFiftyCapsAtTwo) {
  // "even if the 50% that is parallel were run on an infinite number of
  //  processors, the total time is cut at most in half"
  EXPECT_DOUBLE_EQ(amdahl_limit(0.5), 2.0);
  EXPECT_LT(amdahl_speedup(0.5, 1000000), 2.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.5, 1), 1.0);
}

TEST(Laws, AmdahlFullyParallelIsUnbounded) {
  EXPECT_TRUE(std::isinf(amdahl_limit(1.0)));
  EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 8), 8.0);
}

TEST(Laws, DagModelSubsumesAmdahl) {
  // An Amdahl dag with fraction p has parallelism → 1/(1-p) as width → ∞;
  // the dag speedup cap matches Amdahl's limit.
  const graph g = amdahl_dag(/*serial=*/500, /*parallel=*/500, /*width=*/1000);
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 1000u);
  EXPECT_NEAR(m.parallelism(), amdahl_limit(0.5), 0.01);
}

// --- Analysis on generated shapes with known closed forms. ---

TEST(Analysis, ChainHasParallelismOne) {
  const graph g = chain(100, 7);
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 700u);
  EXPECT_EQ(m.span, 700u);
  EXPECT_DOUBLE_EQ(m.parallelism(), 1.0);
  EXPECT_EQ(critical_path(g).size(), 100u);
}

TEST(Analysis, WideFanParallelismEqualsWidth) {
  const graph g = wide_fan(64, 10);
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 640u);
  EXPECT_EQ(m.span, 10u);
  EXPECT_DOUBLE_EQ(m.parallelism(), 64.0);
}

TEST(Analysis, LoopDagMatchesIterationWork) {
  const std::uint64_t n = 4096, grain = 16, per = 3;
  const graph g = loop_dag(n, grain, per);
  const metrics m = analyze(g);
  // Work: n*per iterations plus one split vertex per internal node
  // (n/grain - 1 splits for a perfectly balanced power-of-two split).
  EXPECT_EQ(m.work, n * per + (n / grain - 1));
  // Span: log2(n/grain) splits plus one grain of serial iterations.
  EXPECT_EQ(m.span, 8 + grain * per);
  EXPECT_GT(m.parallelism(), 100.0);
}

TEST(Analysis, SpawnLoopSpanIsSpinePlusOneChild) {
  const graph g = spawn_loop_dag(1000, 50);
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 1000u * 51);
  // The spine's n unit strands then one child's work.
  EXPECT_EQ(m.span, 1000u + 50);
}

TEST(Analysis, FibDagCutoffPreservesWork) {
  const metrics fine = analyze(fib_dag(18, 2, 10));
  const metrics coarse = analyze(fib_dag(18, 8, 10));
  // Leaf accounting is calibrated so total leaf calls are identical.
  EXPECT_EQ(fine.work % 10, 0u);
  // Coarsening strictly lengthens the span and removes spawn strands.
  EXPECT_GE(coarse.span, 10u);
  EXPECT_LT(coarse.parallelism(), fine.parallelism());
}

TEST(Analysis, BurdenedSpanAtLeastSpan) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const graph g = random_sp_dag(300, 9, seed);
    const metrics m = analyze(g);
    EXPECT_EQ(burdened_span(g, 0), m.span);
    EXPECT_GE(burdened_span(g, 100), m.span);
    // Monotone in the burden.
    EXPECT_GE(burdened_span(g, 200), burdened_span(g, 100));
  }
}

TEST(Analysis, BurdenChargesSpawnsOnCriticalPath) {
  // fan: source (out-degree = width ≥ 2) and sink (in-degree ≥ 2) burdened.
  const graph g = wide_fan(4, 10);
  EXPECT_EQ(burdened_span(g, 5), 10u + 2 * 5);
}

// --- Builder. ---

TEST(Builder, AccountAccumulatesOnCurrentStrand) {
  sp_builder b;
  b.account(5);
  b.account(7);
  const graph g = std::move(b).finish();
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 12u);
  EXPECT_EQ(m.span, 12u);
}

TEST(Builder, SpawnCreatesForkShape) {
  sp_builder b;
  b.account(1);
  b.begin_spawn();
  b.account(10);
  b.end_spawn();
  b.account(3);
  b.sync();
  const graph g = std::move(b).finish();
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 14u);
  EXPECT_EQ(m.span, 11u);  // 1 + max(10, 3) through the join
}

TEST(Builder, SpawnCountTracksBeginSpawn) {
  sp_builder b;
  b.begin_spawn();
  b.end_spawn();
  b.begin_spawn();
  b.end_spawn();
  EXPECT_EQ(b.spawn_count(), 2u);
  (void)std::move(b).finish();
}

TEST(Builder, ImplicitSyncAtFinish) {
  sp_builder b;
  b.begin_spawn();
  b.account(100);
  b.end_spawn();
  // no explicit sync: finish() must still join the child
  const graph g = std::move(b).finish();
  EXPECT_EQ(analyze(g).span, 100u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(g.sinks().size(), 1u);
}

TEST(Builder, NestedSpawnsFormSeriesParallelDag) {
  sp_builder b;
  b.begin_spawn();
  {
    b.begin_spawn();
    b.account(4);
    b.end_spawn();
    b.account(4);
    // implicit sync at end_spawn joins the inner child
  }
  b.end_spawn();
  b.account(4);
  b.sync();
  const graph g = std::move(b).finish();
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 12u);
  EXPECT_EQ(m.span, 4u);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(Builder, SyncWithoutChildrenIsNoop) {
  sp_builder b;
  b.account(2);
  b.sync();
  b.sync();
  const graph g = std::move(b).finish();
  EXPECT_EQ(g.num_vertices(), 1u);
}

TEST(Builder, CalledFramesScopeSyncs) {
  sp_builder b;
  b.begin_spawn();
  b.account(10);
  b.end_spawn();
  b.begin_call();
  {
    b.begin_spawn();
    b.account(5);
    b.end_spawn();
    // end_call's implicit sync joins only the callee's child.
  }
  b.end_call();
  b.account(1);
  b.sync();
  const graph g = std::move(b).finish();
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 16u);
  // The callee's child (5) runs inside the call, serial after nothing in
  // particular; the outer spawned child (10) joins only at the final sync,
  // so it overlaps both the call and the trailing account.
  EXPECT_EQ(m.span, 10u);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(Builder, LockedSectionsAnnotateVertices) {
  sp_builder b;
  b.account(3);
  b.begin_locked(7);
  b.account(20);
  b.end_locked();
  b.account(4);
  const graph g = std::move(b).finish();
  EXPECT_EQ(g.num_locks(), 8u);  // one past the largest id used
  std::size_t locked_vertices = 0;
  std::uint64_t locked_work = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_lock(v) != graph::no_lock) {
      ++locked_vertices;
      locked_work += g.vertex_work(v);
      EXPECT_EQ(g.vertex_lock(v), 7u);
    }
  }
  EXPECT_EQ(locked_vertices, 1u);
  EXPECT_EQ(locked_work, 20u);
  // Locked sections are serialized into the strand: work and span both 27.
  const metrics m = analyze(g);
  EXPECT_EQ(m.work, 27u);
  EXPECT_EQ(m.span, 27u);
}

TEST(Recorder, RecordingMutexBracketsCriticalSections) {
  const graph g = record([](recorder_context& ctx) {
    recording_mutex mu(ctx, 0);
    for (int i = 0; i < 4; ++i) {
      ctx.spawn([&mu](recorder_context& c) {
        c.account(10);
        recording_mutex inner(c, 0);
        inner.lock();
        c.account(2);
        inner.unlock();
      });
    }
    (void)mu;
    ctx.sync();
  });
  std::size_t locked = 0;
  for (vertex_id v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_lock(v) != graph::no_lock) ++locked;
  }
  EXPECT_EQ(locked, 4u);
  EXPECT_EQ(analyze(g).work, 4u * 12);
}

TEST(Recorder, EngineEquivalenceWithBuilderEvents) {
  // A recorder-driven program equals the same builder-event sequence.
  const graph via_recorder = record([](recorder_context& ctx) {
    ctx.account(2);
    ctx.spawn([](recorder_context& c) { c.account(9); });
    ctx.account(3);
    ctx.sync();
  });
  sp_builder b;
  b.account(2);
  b.begin_spawn();
  b.account(9);
  b.end_spawn();
  b.account(3);
  b.sync();
  const graph via_builder = std::move(b).finish();
  const metrics mr = analyze(via_recorder);
  const metrics mb = analyze(via_builder);
  EXPECT_EQ(mr.work, mb.work);
  EXPECT_EQ(mr.span, mb.span);
  EXPECT_EQ(via_recorder.num_vertices(), via_builder.num_vertices());
}

// --- Property tests over random series-parallel dags. ---

class RandomSpDag : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSpDag, StructuralInvariants) {
  const graph g = random_sp_dag(500, 20, GetParam());
  EXPECT_TRUE(g.is_acyclic());
  // Exactly one source and one sink (series-parallel between endpoints).
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  const metrics m = analyze(g);
  EXPECT_GE(m.work, m.span);           // span can't exceed work
  EXPECT_GE(m.parallelism(), 1.0);
  // Critical path weight equals the span.
  std::uint64_t path_work = 0;
  for (vertex_id v : critical_path(g)) path_work += g.vertex_work(v);
  EXPECT_EQ(path_work, m.span);
}

TEST_P(RandomSpDag, CriticalPathIsAChain) {
  const graph g = random_sp_dag(200, 10, GetParam() + 1000);
  const auto path = critical_path(g);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    bool edge = false;
    for (vertex_id s : g.successors(path[i])) edge |= (s == path[i + 1]);
    EXPECT_TRUE(edge) << "critical path hop " << i << " is not an edge";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpDag,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// --- Serialization. ---

TEST(Serialize, RoundTripPreservesEverything) {
  for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
    graph g = random_sp_dag(300, 12, seed);
    g.set_vertex_lock(5, 2);
    g.set_vertex_lock(9, 0);
    std::stringstream buffer;
    save(buffer, g);
    const graph back = load(buffer);

    ASSERT_EQ(back.num_vertices(), g.num_vertices());
    ASSERT_EQ(back.num_edges(), g.num_edges());
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(back.vertex_work(v), g.vertex_work(v));
      EXPECT_EQ(back.vertex_depth(v), g.vertex_depth(v));
      EXPECT_EQ(back.vertex_lock(v), g.vertex_lock(v));
      ASSERT_EQ(back.successors(v).size(), g.successors(v).size());
      for (std::size_t i = 0; i < g.successors(v).size(); ++i)
        EXPECT_EQ(back.successors(v)[i], g.successors(v)[i]);
    }
    const metrics ma = analyze(g);
    const metrics mb = analyze(back);
    EXPECT_EQ(ma.work, mb.work);
    EXPECT_EQ(ma.span, mb.span);
  }
}

TEST(Serialize, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "",                                    // empty
      "not-a-dag 1\n",                       // wrong magic
      "cilkpp-dag 2\nvertices 0\nedges 0\n", // wrong version
      "cilkpp-dag 1\nvertices 1\nv 1 0 -\nedges 1\ne 0 5\n",  // dangling edge
      "cilkpp-dag 1\nvertices 2\nv 1 0 -\n",  // truncated
  };
  for (const char* text : bad_inputs) {
    std::stringstream in(text);
    EXPECT_THROW((void)load(in), std::runtime_error) << text;
  }
}

TEST(Serialize, EmptyGraphRoundTrips) {
  graph g;
  std::stringstream buffer;
  save(buffer, g);
  EXPECT_EQ(load(buffer).num_vertices(), 0u);
}

// --- DOT export. ---

TEST(Dot, EmitsAllVerticesAndEdges) {
  const graph g = figure2_dag();
  std::ostringstream os;
  write_dot(os, g, {.name = "fig2"});
  const std::string s = os.str();
  EXPECT_NE(s.find("digraph \"fig2\""), std::string::npos);
  EXPECT_NE(s.find("n0 -> n1"), std::string::npos);  // 1 → 2
  EXPECT_NE(s.find("lightcoral"), std::string::npos);  // critical path marked
  // Every vertex declared.
  for (int label = 1; label <= 18; ++label) {
    std::string vertex = "n";
    vertex += std::to_string(label - 1);
    vertex += " [";
    EXPECT_NE(s.find(vertex), std::string::npos);
  }
}

TEST(Dot, EmptyGraphStillValid) {
  graph g;
  std::ostringstream os;
  write_dot(os, g);
  EXPECT_NE(os.str().find("digraph"), std::string::npos);
}

}  // namespace
}  // namespace cilkpp::dag
