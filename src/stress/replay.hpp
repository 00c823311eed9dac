// Seed + pedigree → single-strand replay of a generated stress program.
//
// The workflow stress reports advertise: a failure names the program seed
// and the pedigree of the strand that produced the wrong value; replaying
// needs no schedule, no chaos policy, and no other strand — the
// ped::replay_context re-executes only the spine leading to that pedigree.
// These helpers bind that machinery to the stress interpreter:
//
//   * pedigree_of_slot / pedigree_of_cell map an output index back to the
//     strand that wrote it (a full, unpruned replay with a write observer);
//   * replay_strand runs the pruned replay and reports what executed.
//
// Everything here is serial and deterministic: same seed + same pedigree →
// the same strand executes with the same pedigree, every time.
#pragma once

#include "pedigree/replay.hpp"
#include "stress/interp.hpp"

namespace cilkpp::stress {

/// What a pruned replay executed (plus the usual run_result over whatever
/// state the spine actually produced — off-path slots stay zero).
struct replay_outcome {
  bool reached = false;             ///< the target strand actually ran
  std::uint64_t executed_work = 0;  ///< accounted units on the spine
  std::uint64_t frames_entered = 0;
  std::uint64_t frames_skipped = 0;
  run_result result;
};

/// Re-executes only the prefix of program `p` needed to reach `target`.
inline replay_outcome replay_strand(const program& p,
                                    const ped::pedigree& target) {
  run_state st(p);
  ped::replay_context ctx(target);
  interp(ctx, p, p.root, st);
  replay_outcome o;
  o.reached = ctx.reached();
  o.executed_work = ctx.executed_work();
  o.frames_entered = ctx.frames_entered();
  o.frames_skipped = ctx.frames_skipped();
  o.result = finish(p, st);
  return o;
}

/// The pedigree of the strand that writes `slots[slot]` — a full replay
/// watching for the store (noted_store reports every leaf write).
inline ped::pedigree pedigree_of_slot(const program& p, std::size_t slot) {
  run_state st(p);
  ped::replay_context ctx;
  ped::pedigree out;
  ctx.set_write_observer([&](const ped::replay_context::write_event& e) {
    if (e.address == &st.slots[slot].value) out = e.ped;
  });
  interp(ctx, p, p.root, st);
  return out;
}

/// Same for a pfor iteration's cell.
inline ped::pedigree pedigree_of_cell(const program& p, std::size_t cell) {
  run_state st(p);
  ped::replay_context ctx;
  ped::pedigree out;
  ctx.set_write_observer([&](const ped::replay_context::write_event& e) {
    if (e.address == &st.cells[cell].value) out = e.ped;
  });
  interp(ctx, p, p.root, st);
  return out;
}

}  // namespace cilkpp::stress
