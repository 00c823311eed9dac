// Deterministic discrete-event simulation of a P-processor machine running
// the randomized work-stealing scheduler of paper Sec. 3 over a computation
// dag (DESIGN.md substitution #2: this machine reproduces the paper's
// multiprocessor results on a single-core host).
//
// Model:
//  * time is measured in instructions; a strand of weight w occupies its
//    processor for w time units;
//  * each processor owns a deque; enabled strands are pushed at the bottom;
//  * under the child_first policy (Cilk's): at a spawn the processor dives
//    into the child and leaves the continuation in its deque — thieves steal
//    from the top, taking the *oldest* continuation, exactly Sec. 3.2
//    (spawn_policy lists the runtime's own policies);
//  * a steal probe costs `steal_latency` time units whether or not it finds
//    work (victims are chosen uniformly at random); a processor with no
//    probe target sleeps until somebody pushes;
//  * an optional adversary takes processors offline for given intervals —
//    their deques remain stealable (Sec. 3.2's multiprogramming story).
//
// The simulation is deterministic in config.seed.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/graph.hpp"

namespace cilkpp::sim {

/// Half-open interval [begin, end) during which a processor is offline.
struct offline_interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

enum class spawn_policy : std::uint8_t {
  /// Cilk: execute the child, queue the continuation (work-first).
  child_first,
  /// Help-first: queue the child, keep running the continuation — what a
  /// library-level runtime, which cannot queue a continuation, does while
  /// its deque holds fewer than P − 1 tasks. Ablation E14 compares.
  parent_first,
  /// What src/runtime does (lazy spawning): parent_first while the
  /// processor's deque holds fewer than P − 1 strands; from P − 1 on, the
  /// processor runs the child and keeps the continuation unstealable until
  /// the child's frame returns — its last strand completes — as a spawn
  /// run as a call does. No deque ever holds more than P − 1 strands, and
  /// at P = 1 the schedule is the serial one. A spawn is recognized by the
  /// depths sp_builder records (child one deeper than the spawning strand,
  /// continuation level with it); any other fork is handled parent_first.
  lazy,
};

struct machine_config {
  unsigned processors = 1;
  /// Cost of one steal probe (hit or miss), in instructions.
  std::uint64_t steal_latency = 10;
  spawn_policy policy = spawn_policy::child_first;
  std::uint64_t seed = 1;
  /// offline[p] = intervals during which processor p is descheduled.
  /// Processors beyond the vector's size are always online.
  std::vector<std::vector<offline_interval>> offline;
  /// Extra cost paid when a mutex-guarded strand starts on a different
  /// processor than the lock's previous holder (the contended cache-line
  /// transfer of Sec. 5's anecdote). Uncontended re-acquisition is free.
  std::uint64_t lock_transfer_cost = 200;
  /// Record a per-strand execution trace (processor, start, end) into
  /// sim_result::trace. Off by default: traces cost one entry per strand.
  bool collect_trace = false;
};

/// One executed strand, for schedule visualization (Gantt charts).
struct trace_entry {
  std::uint32_t proc = 0;
  dag::vertex_id vertex = dag::invalid_vertex;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

struct proc_stats {
  std::uint64_t busy = 0;            ///< instructions executed
  std::uint64_t steals = 0;          ///< successful steals
  std::uint64_t steal_attempts = 0;  ///< probes, including misses
  std::uint64_t strands_executed = 0;
  std::size_t peak_deque = 0;        ///< deepest this processor's deque got
  std::uint32_t peak_frame_depth = 0;
};

struct sim_result {
  std::uint64_t makespan = 0;  ///< T_P in instructions
  std::uint64_t work = 0;      ///< instructions executed (= dag work)
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  /// Mutex statistics (zero for lock-free dags): acquisitions that had to
  /// wait, total instructions processors spent blocked on locks, and
  /// cross-processor lock handoffs (each costing lock_transfer_cost).
  std::uint64_t lock_contentions = 0;
  std::uint64_t lock_wait_time = 0;
  std::uint64_t lock_transfers = 0;
  /// Peak, over time, of the total number of enabled-but-waiting strands in
  /// all deques — the scheduler's memory footprint (Sec. 3.1's contrast
  /// with the naive one-billion-task queue).
  std::size_t peak_residency = 0;
  /// Peak, over time, of Σ_p (frame depth of p's running strand + 1): the
  /// machine-wide stack footprint in frames; the paper bounds it by P·S1.
  std::uint64_t peak_stack_frames = 0;
  double utilization = 0;  ///< Σ busy / (P · makespan)
  std::vector<proc_stats> per_proc;
  /// Execution trace (empty unless machine_config::collect_trace).
  std::vector<trace_entry> trace;

  double speedup(std::uint64_t t1) const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(t1) / static_cast<double>(makespan);
  }
};

/// Runs the dag to completion under randomized work stealing.
/// Precondition: g is acyclic and nonempty.
sim_result simulate(const dag::graph& g, const machine_config& config);

/// Runs the same dag once per processor count (config.processors is
/// overridden; everything else — seed, latencies, policy — is shared), in
/// the order given. The P-sweep every what-if/scalability caller writes.
std::vector<sim_result> simulate_sweep(const dag::graph& g,
                                       machine_config config,
                                       const std::vector<unsigned>& processors);

}  // namespace cilkpp::sim
