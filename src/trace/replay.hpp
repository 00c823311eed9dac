// What-if replay: turn one captured trace into a computation dag whose
// strand weights are *measured* (exclusive nanoseconds, 1 ns = 1 simulator
// instruction) and re-schedule it in sim::machine at other worker counts
// and steal costs — the cilkview idea (paper Fig. 3) closed into a loop
// with the real runtime: a single run at P workers yields predictions for
// T_P′ at any P′, checked against the work/span-law bounds.
//
// Reconstruction replays the frame tree serially through dag::sp_builder —
// the same series-parallel builder the workload recorders use — so the
// resulting dag has exactly the spawn/sync structure the runtime executed,
// with each strand carrying the time its worker measurably spent in it.
#pragma once

#include <cstdint>
#include <vector>

#include "cilkview/profile.hpp"
#include "dag/graph.hpp"
#include "sim/machine.hpp"
#include "support/table.hpp"
#include "trace/timeline.hpp"

namespace cilkpp::trace {

struct replay_options {
  /// Simulator cost of one steal probe, in nanoseconds (the what-if steal
  /// cost; sweep it for steal-cost sensitivity).
  std::uint64_t steal_latency_ns = 2000;
  /// The real runtime queues children and runs the continuation
  /// (help-first) until P − 1 tasks are queued, and runs further children
  /// as calls (lazy), so that is the faithful default.
  sim::spawn_policy policy = sim::spawn_policy::lazy;
  std::uint64_t seed = 1;
  /// Burden charged per spawn/sync on the critical path for the cilkview
  /// lower curve, in nanoseconds.
  std::uint64_t burden_ns = 2000;
};

/// A dag rebuilt from a trace.
struct reconstruction {
  dag::graph g;
  /// Σ exclusive strand time — the measured serial work; equals the dag's
  /// total work by construction, and sim T_1 up to simulator identities.
  std::uint64_t measured_busy_ns = 0;
  /// Wall-clock span of the traced window (the run's real T_P).
  std::uint64_t measured_wall_ns = 0;
  std::size_t frames = 0;
  /// Spawned/called children referenced by a control event but missing
  /// from the trace (ring drops), plus children whose links would revisit
  /// a frame (cycle/duplicate in a corrupted trace); replayed as empty
  /// frames.
  std::size_t missing_frames = 0;
};

/// Rebuilds the series-parallel dag from an assembled timeline.
/// Requires timeline.has_root (an empty reconstruction is returned
/// otherwise).
reconstruction reconstruct_dag(const timeline& t);

/// One simulated what-if point.
struct what_if_point {
  unsigned processors = 0;
  std::uint64_t predicted_ns = 0;  ///< simulated T_P
  double predicted_speedup = 0;    ///< measured work / predicted_ns
  double upper_bound = 0;          ///< min(P, parallelism) — Work/Span Laws
  double burdened_estimate = 0;    ///< cilkview's pessimistic lower curve
  std::uint64_t sim_steals = 0;
};

struct what_if_report {
  reconstruction rec;
  cilkview::profile prof;  ///< work/span/burden of the reconstructed dag
  std::vector<what_if_point> points;
  /// True iff every prediction lies between cilkview's burdened lower
  /// curve (with factor-2 slack — it is an estimate, and the simulator is
  /// stochastic) and the Work/Span-Law upper bound (within tolerance). A
  /// false value flags a degenerate simulation, not a program property.
  bool within_bounds = true;
};

/// Reconstructs the dag once and simulates it at each processor count.
what_if_report what_if(const timeline& t,
                       const std::vector<unsigned>& processors,
                       replay_options opts = {});

/// The report as a text table (P, predicted ms, speedup, bounds, steals).
table what_if_table(const what_if_report& r);

}  // namespace cilkpp::trace
