// The SP-order algorithm (Bender, Fineman, Gilbert & Leiserson, SPAA'04 —
// the paper's ref [2] for "on-the-fly maintenance of series-parallel
// relationships").
//
// Two order-maintenance lists are kept over *strands*:
//   English order E — the serial execution order (spawned child's subtree
//                     before the continuation);
//   Hebrew  order H — the mirror order (continuation strands before the
//                     spawned children's subtrees, children reversed).
// Strand x precedes strand y iff x comes before y in BOTH orders; since
// execution is serial (every remembered access is E-before the current
// strand), x runs logically in parallel with the current strand iff x is
// H-AFTER it — one label comparison per check, O(1).
//
// Insertion discipline (derived in comments below; validated against both
// SP-bags and dag-reachability ground truth by the property tests):
//  * first spawn of a sync block pre-creates the block's post-sync strand
//    node j in H, immediately after the current strand;
//  * each spawned child's H node is inserted immediately BEFORE the
//    previous child's (or before j for the first child), giving the
//    reversed-children Hebrew order  s0, s1, …, sk, ck, …, c1, j;
//  * continuations extend E and H right after the current strand;
//  * sync adopts j as the frame's current H node.
//
// This is only the series-parallel relation; basic_detector<sp_order>
// (detector.hpp, screen::order_detector) adds the memory checks, locks,
// reducer awareness and reports the SP-bags engine shares.
#pragma once

#include <cstdint>
#include <vector>

#include "cilkscreen/order_maintenance.hpp"
#include "cilkscreen/race_types.hpp"  // proc_id
#include "support/assert.hpp"

namespace cilkpp::screen {

class sp_order {
 public:
  /// Strands are identified by their Hebrew-order node.
  using strand = om_list::node*;

  /// Creates the root procedure's frame; call once per program execution.
  proc_id create_root();
  proc_id enter_spawn(proc_id parent);
  /// The child's strands keep their positions inside its E/H intervals;
  /// nothing moves at return.
  void exit_spawn(proc_id, proc_id) {}
  proc_id enter_call(proc_id parent);
  void exit_call(proc_id parent, proc_id child);
  void sync(proc_id f);

  strand current(proc_id p) const {
    CILKPP_ASSERT(p < frames_.size(), "unknown frame");
    return frames_[p].cur_h;
  }
  /// A remembered strand runs logically in parallel with the current one
  /// iff the current strand H-precedes it.
  static bool parallel(strand current, strand remembered) {
    return om_list::precedes(current, remembered);
  }
  /// Two remembered strands, `earlier` recorded (E-)before `later`:
  /// parallel iff `later` H-precedes `earlier` — exact, unlike SP-bags.
  static bool pair_parallel(strand earlier, strand later) {
    return om_list::precedes(later, earlier);
  }

  std::uint64_t relabel_count() const {
    return english_.relabel_count() + hebrew_.relabel_count();
  }

 private:
  struct frame {
    om_list::node* cur_e = nullptr;
    om_list::node* cur_h = nullptr;
    om_list::node* block_join = nullptr;   // pre-created post-sync H node
    om_list::node* last_child_h = nullptr; // H insertion barrier for children
  };

  proc_id push_frame(const frame& f);

  om_list english_;
  om_list hebrew_;
  std::vector<frame> frames_;
};

}  // namespace cilkpp::screen
