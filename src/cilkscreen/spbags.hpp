// The SP-bags algorithm (Feng & Leiserson, SPAA'97) — the provably good
// series-parallel maintenance algorithm Cilkscreen is built on (paper
// Sec. 4: "Cilkscreen uses efficient data structures to track the
// series-parallel relationships of the executing application during a
// serial execution of the parallel code").
//
// During a serial, depth-first (elision-order) execution, every Cilk
// procedure instance F owns two bags of procedure ids:
//   S_F — descendants whose completed work *precedes* F's current strand;
//   P_F — descendants that operate logically *in parallel* with it.
// The protocol:
//   spawn/call F'  : S_F' = {F'}, P_F' = {}
//   F' returns to F: P_F ∪= S_F' ∪ P_F'    (spawned children)
//                    S_F ∪= S_F' ∪ P_F'    (called children — serial)
//   sync in F      : S_F ∪= P_F ; P_F = {}
// A memory access by the current strand races with a previous access by
// procedure X iff FIND(X) is currently a P-bag.
//
// Bags are sets in one disjoint-set forest (union by rank + path
// compression, amortized near-O(1)); each set's representative carries a
// tag saying whether the set currently is an S-bag or a P-bag.
#pragma once

#include <cstdint>
#include <vector>

#include "cilkscreen/race_types.hpp"  // proc_id

namespace cilkpp::screen {

class sp_bags {
 public:
  sp_bags();

  /// Creates the root procedure; call once per program execution.
  proc_id create_root();

  /// F spawns or calls F': creates F' with S_F' = {F'}, P_F' = {}.
  proc_id enter_procedure(proc_id parent);

  /// A *spawned* F' returns to F: its bags drain into P_F (its completed
  /// work runs logically in parallel with F's continuation until F syncs).
  void return_spawned(proc_id parent, proc_id child);

  /// A *called* F' returns to F: its bags drain into S_F (a plain call is
  /// serial before everything that follows in F).
  void return_called(proc_id parent, proc_id child);

  /// cilk_sync in F: everything F spawned so far is now serial before F.
  void sync(proc_id f);

  /// Is procedure x currently in a P-bag — i.e. does x's completed work run
  /// logically in parallel with the currently executing strand?
  bool in_p_bag(proc_id x);

  std::size_t num_procedures() const { return parent_.size(); }

  // --- The series-parallel relation basic_detector drives (detector.hpp).
  // Strands are procedure ids. ---
  using strand = proc_id;
  proc_id enter_spawn(proc_id parent) { return enter_procedure(parent); }
  void exit_spawn(proc_id parent, proc_id child) {
    return_spawned(parent, child);
  }
  proc_id enter_call(proc_id parent) { return enter_procedure(parent); }
  void exit_call(proc_id parent, proc_id child) {
    return_called(parent, child);
  }
  strand current(proc_id p) const { return p; }
  bool parallel(strand /*current*/, strand remembered) {
    return in_p_bag(remembered);
  }
  /// SP-bags orders a remembered strand only against the CURRENT one, so
  /// two remembered strands are conservatively parallel.
  static bool pair_parallel(strand, strand) { return true; }

 private:
  enum class bag_kind : std::uint8_t { s_bag, p_bag };

  proc_id find(proc_id x);
  /// Unions the set rooted at `from_root` into the set rooted at
  /// `into_root` and tags the merged set; roots must be distinct.
  proc_id link(proc_id into_root, proc_id from_root, bag_kind kind);

  // Per-element union-find state (elements are procedure ids).
  std::vector<proc_id> parent_;
  std::vector<std::uint8_t> rank_;
  std::vector<bag_kind> tag_;  // meaningful at representatives only

  // Per-procedure bag handles: representative of S_F / P_F, or invalid if
  // the bag is currently empty (P-bags start empty).
  std::vector<proc_id> s_bag_of_;
  std::vector<proc_id> p_bag_of_;
};

}  // namespace cilkpp::screen
