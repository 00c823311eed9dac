#include "cilkscreen/sporder.hpp"

#include "support/assert.hpp"

namespace cilkpp::screen {

proc_id sp_order::push_frame(const frame& f) {
  frames_.push_back(f);
  return static_cast<proc_id>(frames_.size() - 1);
}

proc_id sp_order::create_root() {
  CILKPP_ASSERT(frames_.empty(), "root procedure already exists");
  frame root;
  root.cur_e = english_.insert_first();
  root.cur_h = hebrew_.insert_first();
  return push_frame(root);
}

proc_id sp_order::enter_spawn(proc_id parent) {
  CILKPP_ASSERT(parent < frames_.size(), "unknown frame");
  frame child;
  frame& p = frames_[parent];
  if (p.block_join == nullptr) {
    // First spawn of this sync block: pre-create the post-sync strand's
    // H node so children can pile up in reverse order before it.
    p.block_join = hebrew_.insert_after(p.cur_h);
    p.last_child_h = p.block_join;
  }
  // Child strand: E right after the parent's current strand; H reversed —
  // immediately before the previous child (or the join).
  child.cur_e = english_.insert_after(p.cur_e);
  child.cur_h = hebrew_.insert_before(p.last_child_h);
  p.last_child_h = child.cur_h;
  // Parent's continuation strand: E after the child's interval start,
  // H after the old current strand (still before every child).
  p.cur_e = english_.insert_after(child.cur_e);
  p.cur_h = hebrew_.insert_after(p.cur_h);
  return push_frame(child);
}

proc_id sp_order::enter_call(proc_id parent) {
  CILKPP_ASSERT(parent < frames_.size(), "unknown frame");
  // A called frame continues the caller's current strand; it only scopes
  // its own sync blocks.
  frame child;
  child.cur_e = frames_[parent].cur_e;
  child.cur_h = frames_[parent].cur_h;
  return push_frame(child);
}

void sp_order::exit_call(proc_id parent, proc_id child) {
  // Implicit sync of the callee, then the caller resumes the callee's
  // final strand (a plain call is serial). The detector fires no lint
  // event here: a call return is not a programmer-written strand boundary.
  sync(child);
  frames_[parent].cur_e = frames_[child].cur_e;
  frames_[parent].cur_h = frames_[child].cur_h;
}

void sp_order::sync(proc_id f) {
  CILKPP_ASSERT(f < frames_.size(), "unknown frame");
  frame& fr = frames_[f];
  if (fr.block_join == nullptr) return;  // no spawns since the last sync
  fr.cur_h = fr.block_join;
  fr.cur_e = english_.insert_after(fr.cur_e);
  fr.block_join = nullptr;
  fr.last_child_h = nullptr;
}

}  // namespace cilkpp::screen
