// Synthetic computation-dag generators for the experiments and tests.
//
// Each generator returns the dag a particular Cilk++ program shape would
// produce; parameters let the benchmarks sweep work, span and parallelism
// independently.
#pragma once

#include <cstdint>

#include "dag/graph.hpp"
#include "support/rng.hpp"

namespace cilkpp::dag {

/// The example dag of the paper's Fig. 2: 18 unit-cost instructions,
/// work 18, span 9 (critical path 1≺2≺3≺6≺7≺8≺11≺12≺18), parallelism 2,
/// with 1≺2, 6≺12, and 4‖9 as the paper calls out.
/// Vertex ids are label-1 (paper label k is vertex k-1).
graph figure2_dag();
/// Maps a Fig. 2 vertex label (1..18) to its vertex id.
vertex_id figure2_vertex(int label);

/// Serial chain of n strands, each of the given work (parallelism 1).
graph chain(std::uint32_t n, std::uint64_t work_per_strand);

/// source → `width` independent strands → sink (embarrassingly parallel).
graph wide_fan(std::uint32_t width, std::uint64_t work_per_strand);

/// Amdahl-shaped dag: a serial strand of `serial_work` followed by
/// `parallel_work` split evenly over `width` parallel strands. The
/// parallelizable fraction is parallel_work / (serial_work + parallel_work).
graph amdahl_dag(std::uint64_t serial_work, std::uint64_t parallel_work,
                 std::uint32_t width);

/// The dag of the classic doubly recursive fib(n) with serial leaves below
/// `cutoff`; every strand is charged `strand_work` instructions.
graph fib_dag(unsigned n, unsigned cutoff, std::uint64_t strand_work);

/// The dag cilk_for produces (paper Sec. 2: "divide-and-conquer parallel
/// recursion over the iteration space"): binary splitting of `iterations`
/// until ≤ `grain` remain, each iteration costing `work_per_iteration`.
graph loop_dag(std::uint64_t iterations, std::uint64_t grain,
               std::uint64_t work_per_iteration);

/// The Sec. 3.1 stack-space example: a single function that spawns `n`
/// children of `child_work` each in a loop, then syncs once ("one billion
/// invocations of foo").
graph spawn_loop_dag(std::uint32_t n, std::uint64_t child_work);

/// The adversary of lazy spawning (sim::spawn_policy::lazy): a frame spawns
/// `tiny` unit-work children, then one serial child of `serial_work`, and
/// its continuation runs a cilk_for of `iterations` (grain `grain`,
/// `work_per_iteration` each) — all the parallelism. With tiny = P − 1 the
/// serial child is spawned on a full deque, so under lazy spawning it runs
/// as a call and the loop waits for it.
graph lazy_adversary_dag(std::uint32_t tiny, std::uint64_t serial_work,
                         std::uint64_t iterations, std::uint64_t grain,
                         std::uint64_t work_per_iteration);

/// Random series-parallel dag for property tests: composed from serial and
/// parallel combinations down to `target_strands` leaves; deterministic in
/// the seed.
graph random_sp_dag(std::uint32_t target_strands, std::uint64_t max_strand_work,
                    std::uint64_t seed);

}  // namespace cilkpp::dag
