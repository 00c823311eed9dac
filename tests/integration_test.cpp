// Integration tests across the whole platform: the umbrella header, the
// four engines agreeing on every workload, the record → analyze → simulate
// pipeline being self-consistent, and stress scenarios that mix features
// (reducers + exceptions, detector + workload templates, repeated runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cilk.hpp"
#include "graph/generate.hpp"
#include "graph/ref.hpp"
#include "support/rng.hpp"
#include "workloads/bfs.hpp"
#include "workloads/fib.hpp"
#include "workloads/matmul.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/qsort.hpp"
#include "workloads/spmv.hpp"
#include "workloads/treewalk.hpp"

namespace cilkpp {
namespace {

// --- Four engines, one workload implementation. ---

TEST(Engines, FibAgreesEverywhere) {
  const std::uint64_t expected = workloads::fib_serial(20);

  rt::scheduler sched(4);
  EXPECT_EQ(sched.run([](rt::context& c) { return workloads::fib(c, 20, 6); }),
            expected);

  rt::serial_context serial;
  EXPECT_EQ(workloads::fib(serial, 20, 6), expected);

  std::uint64_t recorded = 0;
  (void)dag::record([&](dag::recorder_context& c) {
    recorded = workloads::fib(c, 20, 6);
  });
  EXPECT_EQ(recorded, expected);

  screen::detector d;
  std::uint64_t screened = 0;
  screen::run_under_detector(d, [&](screen::screen_context& c) {
    screened = workloads::fib(c, 20, 6);
  });
  EXPECT_EQ(screened, expected);
  EXPECT_FALSE(d.found_races());  // fib shares nothing (results by value)

  cilkview::online_analyzer online(0);
  std::uint64_t analyzed = 0;
  online.run([&](cilkview::online_context& c) {
    analyzed = workloads::fib(c, 20, 6);
  });
  EXPECT_EQ(analyzed, expected);
}

TEST(Engines, NqueensAgreesEverywhere) {
  rt::scheduler sched(3);
  EXPECT_EQ(sched.run([](rt::context& c) { return workloads::nqueens(c, 9); }),
            352u);
  rt::serial_context serial;
  EXPECT_EQ(workloads::nqueens(serial, 9), 352u);
  std::uint64_t recorded = 0;
  (void)dag::record([&](dag::recorder_context& c) {
    recorded = workloads::nqueens(c, 9);
  });
  EXPECT_EQ(recorded, 352u);
}

TEST(Engines, SpmvAgreesOnOnlineAnalyzer) {
  const workloads::csr a = workloads::random_sparse_matrix(500, 6, 11);
  std::vector<double> x(a.rows(), 0.5);
  const auto expected = workloads::spmv_serial(a, x);
  cilkview::online_analyzer online;
  std::vector<double> y;
  online.run([&](cilkview::online_context& c) { y = workloads::spmv(c, a, x); });
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], expected[i], 1e-12);
  EXPECT_GT(online.result().parallelism(), 10.0);
}

// --- record → analyze → simulate self-consistency. ---

class Pipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pipeline, SimulatorAgreesWithAnalyzerOnEveryDag) {
  const dag::graph g = dag::random_sp_dag(600, 25, GetParam());
  const dag::metrics m = dag::analyze(g);
  const cilkview::profile p = cilkview::analyze_dag(g, 0);
  EXPECT_EQ(p.work, m.work);
  EXPECT_EQ(p.span, m.span);

  // T1 from the simulator equals the analyzer's work; TP respects both
  // laws and the speedup cap for every P.
  for (const unsigned procs : {1u, 3u, 8u, 17u}) {
    sim::machine_config cfg;
    cfg.processors = procs;
    cfg.steal_latency = 5;
    cfg.seed = GetParam() ^ 0xabcdULL;
    const sim::sim_result r = sim::simulate(g, cfg);
    if (procs == 1) {
      EXPECT_EQ(r.makespan, m.work);
    }
    EXPECT_GE(r.makespan, m.span);
    EXPECT_GE(static_cast<double>(procs) * static_cast<double>(r.makespan),
              static_cast<double>(m.work));
    EXPECT_LE(r.speedup(m.work),
              cilkview::speedup_upper_bound(p, procs) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pipeline, ::testing::Values(2, 5, 11, 23, 47));

TEST(Pipeline, QsortEndToEnd) {
  // One program through the full tool chain: execute on the runtime,
  // record the dag, profile it, simulate it — everything must line up.
  auto data = workloads::random_doubles(50000, 77);
  auto to_sort = data;

  rt::scheduler sched(4);
  sched.run([&](rt::context& c) {
    workloads::qsort(c, to_sort.data(), to_sort.data() + to_sort.size(), 512);
  });
  EXPECT_TRUE(std::is_sorted(to_sort.begin(), to_sort.end()));

  const dag::graph g = dag::record([&](dag::recorder_context& c) {
    workloads::qsort(c, data.data(), data.data() + data.size(), 512);
  });
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  const cilkview::profile p = cilkview::analyze_dag(g);
  EXPECT_GT(p.parallelism(), 2.0);
  EXPECT_LT(p.parallelism(), 64.0);  // O(lg n)

  sim::machine_config cfg;
  cfg.processors = 16;
  cfg.steal_latency = 10;
  cfg.seed = 5;
  const double speedup = sim::simulate(g, cfg).speedup(p.work);
  EXPECT_GT(speedup, 0.6 * p.parallelism());  // pins near the ceiling
  EXPECT_LE(speedup, p.parallelism() + 1e-9);
}

// --- Feature interactions. ---

TEST(Interactions, ReducerSurvivesSiblingException) {
  // An exception in one child must not corrupt reducer folding in others.
  rt::scheduler sched(4);
  hyper::reducer_opadd<std::int64_t> sum;
  for (int round = 0; round < 5; ++round) {
    sum.take();
    try {
      sched.run([&](rt::context& ctx) {
        for (int i = 0; i < 100; ++i) {
          ctx.spawn([&sum, i](rt::context& c) {
            if (i == 50) throw std::runtime_error("mid-flight");
            sum.view(c) += i;
          });
        }
        ctx.sync();
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error&) {
    }
    // All children completed; 99 of them contributed.
    // (Views of completed children fold before the rethrow.)
    const std::int64_t total = 100 * 99 / 2 - 50;
    EXPECT_EQ(sum.value(), total) << "round " << round;
  }
}

TEST(Interactions, DetectorRunsWorkloadTemplatesCleanly) {
  // The engine-generic tree walk under the race detector: the reducer
  // variant shares nothing through raw memory (the reducer itself is not
  // instrumented), so the detector must stay quiet on instrumented fields.
  const workloads::collision_model model{.cost = 3, .threshold = 256};
  const workloads::assembly a = workloads::build_assembly(8, model, 2);
  screen::detector d;
  hyper::reducer<hyper::list_append<std::uint64_t>> out;
  screen::run_under_detector(d, [&](screen::screen_context& ctx) {
    workloads::walk_reducer(ctx, a.root.get(), model, out);
  });
  EXPECT_FALSE(d.found_races());
  EXPECT_EQ(out.value().size(), a.hit_count);
}

TEST(Interactions, ManySchedulersSequentially) {
  // Construction/destruction must be clean under repetition (threads join,
  // no leaks — run under sanitizers in CI).
  for (int i = 0; i < 25; ++i) {
    rt::scheduler sched(1 + static_cast<unsigned>(i % 4));
    const int r = sched.run([&](rt::context& ctx) {
      hyper::reducer_opadd<int> sum;
      rt::parallel_for(ctx, 0, 100, [&](rt::context& leaf, int k) {
        sum.view(leaf) += k;
      }, 8);
      return sum.collect(ctx);
    });
    EXPECT_EQ(r, 4950);
  }
}

TEST(Interactions, StressMixedWorkloadsOneScheduler) {
  rt::scheduler sched(4);
  for (int round = 0; round < 3; ++round) {
    auto data = workloads::random_doubles(20000, 1000 + round);
    const graph::csr g = graph::uniform_graph_serial(
        2000, 12000, static_cast<std::uint64_t>(round) + 1);
    std::uint64_t fib_result = 0;
    std::vector<std::uint32_t> dist;
    sched.run([&](rt::context& ctx) {
      ctx.spawn([&](rt::context& c) { fib_result = workloads::fib(c, 18, 5); });
      ctx.spawn([&](rt::context& c) {
        workloads::qsort(c, data.data(), data.data() + data.size(), 256);
      });
      dist = workloads::bfs(ctx, g, 0, 32);
      ctx.sync();
    });
    EXPECT_EQ(fib_result, workloads::fib_serial(18));
    EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
    EXPECT_EQ(dist, graph::bfs_serial(g, 0));
  }
}

// --- Cross-engine determinism fuzz. ---
//
// A random series-parallel program is pre-generated as a tree (so every
// engine runs the *identical* program; generating during execution would
// race on the generator under the real scheduler). Leaves append numbered
// tokens to an order-sensitive string reducer: the final string under the
// real scheduler, at any worker count, must equal the serial elision's —
// the full Sec. 5 guarantee over arbitrary spawn/sync/call structure.

struct prog_node {
  enum class op { token, spawn, call, sync, pfor };
  op kind = op::token;
  int value = 0;                    // token id / pfor base
  std::vector<prog_node> body;      // children of spawn/call bodies
};

std::vector<prog_node> gen_program(xoshiro256& rng, unsigned depth, int& counter) {
  std::vector<prog_node> seq;
  const auto steps = 1 + rng.below(5);
  for (std::uint64_t s = 0; s < steps; ++s) {
    prog_node n;
    switch (rng.below(depth == 0 ? 1 : 5)) {
      case 0:
        n.kind = prog_node::op::token;
        n.value = counter++;
        break;
      case 1:
        n.kind = prog_node::op::spawn;
        n.body = gen_program(rng, depth - 1, counter);
        break;
      case 2:
        n.kind = prog_node::op::call;
        n.body = gen_program(rng, depth - 1, counter);
        break;
      case 3:
        n.kind = prog_node::op::sync;
        break;
      case 4:
        n.kind = prog_node::op::pfor;
        n.value = counter;
        counter += 3;
        break;
    }
    seq.push_back(std::move(n));
  }
  if (rng.below(2) == 0) {
    prog_node join;
    join.kind = prog_node::op::sync;
    seq.push_back(std::move(join));
  }
  return seq;
}

template <typename Ctx>
void interpret(Ctx& ctx, const std::vector<prog_node>& seq,
               hyper::reducer<hyper::string_concat>& text) {
  for (const prog_node& n : seq) {
    switch (n.kind) {
      case prog_node::op::token:
        text.view(ctx) += std::to_string(n.value) + ".";
        break;
      case prog_node::op::spawn:
        ctx.spawn([&](Ctx& c) { interpret(c, n.body, text); });
        break;
      case prog_node::op::call:
        ctx.call([&](Ctx& c) { interpret(c, n.body, text); });
        break;
      case prog_node::op::sync:
        ctx.sync();
        break;
      case prog_node::op::pfor: {
        const int base = n.value;
        parallel_for(ctx, 0, 3, [&text, base](Ctx& leaf, int i) {
          text.view(leaf) += std::to_string(base + i) + ".";
        }, 1);
        break;
      }
    }
  }
}

class CrossEngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossEngineFuzz, ReducerStringIdenticalEverywhere) {
  xoshiro256 rng(GetParam());
  int counter = 0;
  const std::vector<prog_node> program = gen_program(rng, 4, counter);
  // (A program may happen to contain no tokens; empty-vs-empty still tests
  // the control path.)

  // Ground truth: serial elision.
  std::string expected;
  {
    hyper::reducer<hyper::string_concat> text;
    rt::serial_context root;
    interpret(root, program, text);
    expected = text.take();
  }

  for (const unsigned workers : {1u, 2u, 4u}) {
    rt::scheduler sched(workers);
    for (int round = 0; round < 2; ++round) {
      hyper::reducer<hyper::string_concat> text;
      sched.run([&](rt::context& ctx) { interpret(ctx, program, text); });
      EXPECT_EQ(text.value(), expected)
          << "seed " << GetParam() << " workers " << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngineFuzz,
                         ::testing::Range<std::uint64_t>(100, 140));

}  // namespace
}  // namespace cilkpp
