#include "dag/generators.hpp"

#include <utility>

#include "dag/builder.hpp"
#include "support/assert.hpp"

namespace cilkpp::dag {

vertex_id figure2_vertex(int label) {
  CILKPP_ASSERT(label >= 1 && label <= 18, "Fig. 2 labels are 1..18");
  return static_cast<vertex_id>(label - 1);
}

graph figure2_dag() {
  graph g;
  for (int label = 1; label <= 18; ++label) (void)g.add_vertex(1);
  auto edge = [&](int a, int b) { g.add_edge(figure2_vertex(a), figure2_vertex(b)); };
  // Main strand and first fork.
  edge(1, 2);
  edge(2, 3);
  edge(2, 4);
  // Left subcomputation forks again at 3.
  edge(3, 5);
  edge(3, 6);
  edge(5, 9);
  edge(9, 10);
  edge(10, 12);
  edge(6, 7);
  edge(7, 8);
  edge(7, 16);
  edge(16, 17);
  edge(17, 12);
  edge(8, 11);
  edge(11, 12);  // 12 is the sync joining strands 10, 11, 17
  edge(12, 18);
  // Continuation of the main strand (parallel with the left subcomputation).
  edge(4, 13);
  edge(13, 14);
  edge(14, 15);
  edge(15, 18);  // 18 is the final sync
  return g;
}

graph chain(std::uint32_t n, std::uint64_t work_per_strand) {
  CILKPP_ASSERT(n > 0, "chain needs at least one strand");
  graph g;
  vertex_id prev = g.add_vertex(work_per_strand);
  for (std::uint32_t i = 1; i < n; ++i) {
    const vertex_id v = g.add_vertex(work_per_strand);
    g.add_edge(prev, v);
    prev = v;
  }
  return g;
}

graph wide_fan(std::uint32_t width, std::uint64_t work_per_strand) {
  CILKPP_ASSERT(width > 0, "fan needs at least one strand");
  graph g;
  const vertex_id source = g.add_vertex(0);
  const vertex_id sink = g.add_vertex(0);
  for (std::uint32_t i = 0; i < width; ++i) {
    const vertex_id v = g.add_vertex(work_per_strand);
    g.add_edge(source, v);
    g.add_edge(v, sink);
  }
  return g;
}

graph amdahl_dag(std::uint64_t serial_work, std::uint64_t parallel_work,
                 std::uint32_t width) {
  CILKPP_ASSERT(width > 0, "amdahl dag needs at least one parallel strand");
  graph g;
  const vertex_id serial = g.add_vertex(serial_work);
  const vertex_id sink = g.add_vertex(0);
  const std::uint64_t share = parallel_work / width;
  std::uint64_t remainder = parallel_work % width;
  for (std::uint32_t i = 0; i < width; ++i) {
    std::uint64_t w = share;
    if (remainder > 0) {
      ++w;
      --remainder;
    }
    const vertex_id v = g.add_vertex(w);
    g.add_edge(serial, v);
    g.add_edge(v, sink);
  }
  return g;
}

namespace {

void fib_record(sp_builder& b, unsigned n, unsigned cutoff,
                std::uint64_t strand_work) {
  if (n < 2 || n <= cutoff) {
    // Serial leaf: charge the whole serial subtree as one strand.
    // fib(n) executes fib(n) leaf additions ≈ golden-ratio growth; charge
    // proportional work so cutoff choices change granularity, not totals.
    std::uint64_t leaf_calls = 1;
    if (n >= 2) {
      std::uint64_t a = 1, c = 1;
      for (unsigned i = 2; i <= n; ++i) {
        const std::uint64_t next = a + c;
        a = c;
        c = next;
      }
      leaf_calls = c;
    }
    b.account(strand_work * leaf_calls);
    return;
  }
  b.account(strand_work);
  b.begin_spawn();
  fib_record(b, n - 1, cutoff, strand_work);
  b.end_spawn();
  fib_record(b, n - 2, cutoff, strand_work);
  b.sync();
  b.account(strand_work);
}

void loop_record(sp_builder& b, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t grain, std::uint64_t work_per_iteration) {
  const std::uint64_t count = hi - lo;
  if (count <= grain) {
    b.account(count * work_per_iteration);
    return;
  }
  const std::uint64_t mid = lo + count / 2;
  b.account(1);  // split bookkeeping
  b.begin_spawn();
  loop_record(b, lo, mid, grain, work_per_iteration);
  b.end_spawn();
  loop_record(b, mid, hi, grain, work_per_iteration);
  b.sync();
}

void random_record(sp_builder& b, std::uint32_t strands,
                   std::uint64_t max_strand_work, xoshiro256& rng) {
  if (strands <= 1) {
    b.account(1 + rng.below(max_strand_work));
    return;
  }
  // Split into two pieces, composed either in series or in parallel.
  const std::uint32_t left = 1 + static_cast<std::uint32_t>(rng.below(strands - 1));
  const std::uint32_t right = strands - left;
  if (rng.below(2) == 0) {
    random_record(b, left, max_strand_work, rng);
    random_record(b, right, max_strand_work, rng);
  } else {
    b.begin_spawn();
    random_record(b, left, max_strand_work, rng);
    b.end_spawn();
    random_record(b, right, max_strand_work, rng);
    b.sync();
  }
}

}  // namespace

graph fib_dag(unsigned n, unsigned cutoff, std::uint64_t strand_work) {
  CILKPP_ASSERT(strand_work > 0, "strands need nonzero work");
  sp_builder b;
  fib_record(b, n, cutoff, strand_work);
  return std::move(b).finish();
}

graph loop_dag(std::uint64_t iterations, std::uint64_t grain,
               std::uint64_t work_per_iteration) {
  CILKPP_ASSERT(iterations > 0, "loop needs at least one iteration");
  CILKPP_ASSERT(grain > 0, "grain must be at least one iteration");
  sp_builder b;
  loop_record(b, 0, iterations, grain, work_per_iteration);
  return std::move(b).finish();
}

graph spawn_loop_dag(std::uint32_t n, std::uint64_t child_work) {
  CILKPP_ASSERT(n > 0, "spawn loop needs at least one child");
  sp_builder b;
  for (std::uint32_t i = 0; i < n; ++i) {
    b.account(1);  // loop increment / spawn setup
    b.begin_spawn();
    b.account(child_work);
    b.end_spawn();
  }
  b.sync();
  return std::move(b).finish();
}

graph lazy_adversary_dag(std::uint32_t tiny, std::uint64_t serial_work,
                         std::uint64_t iterations, std::uint64_t grain,
                         std::uint64_t work_per_iteration) {
  CILKPP_ASSERT(serial_work > 0, "the serial child needs nonzero work");
  CILKPP_ASSERT(iterations > 0, "loop needs at least one iteration");
  CILKPP_ASSERT(grain > 0, "grain must be at least one iteration");
  sp_builder b;
  for (std::uint32_t i = 0; i < tiny; ++i) {
    b.account(1);
    b.begin_spawn();
    b.account(1);
    b.end_spawn();
  }
  b.account(1);
  b.begin_spawn();
  b.account(serial_work);
  b.end_spawn();
  b.begin_call();  // the loop's own frame, as cilk_for lowers it
  loop_record(b, 0, iterations, grain, work_per_iteration);
  b.end_call();
  b.sync();
  return std::move(b).finish();
}

graph random_sp_dag(std::uint32_t target_strands, std::uint64_t max_strand_work,
                    std::uint64_t seed) {
  CILKPP_ASSERT(target_strands > 0, "need at least one strand");
  CILKPP_ASSERT(max_strand_work > 0, "strands need nonzero work");
  xoshiro256 rng(seed);
  sp_builder b;
  random_record(b, target_strands, max_strand_work, rng);
  return std::move(b).finish();
}

}  // namespace cilkpp::dag
