#include "cilkscreen/sporder.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cilkpp::screen {

order_detector::order_detector() {
  frame root;
  root.cur_e = english_.insert_first();
  root.cur_h = hebrew_.insert_first();
  frames_.push_back(root);
  tree_.add_root();
  stats_.procedures = 1;
}

proc_id order_detector::enter_spawn(proc_id parent) {
  CILKPP_ASSERT(parent < frames_.size(), "unknown frame");
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::spawn, parent);
  ++stats_.procedures;
  frame child;
  {
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
  }
  frames_.push_back(child);
  const proc_id id = static_cast<proc_id>(frames_.size() - 1);
  const proc_id tree_id = tree_.add_spawn(parent);
  CILKPP_ASSERT(tree_id == id, "procedure numbering out of step");
  peds_.on_child(parent, id);  // after the lint boundary: it sees the
                               // parent's pre-spawn rank
  return id;
}

void order_detector::exit_spawn(proc_id parent, proc_id child) {
  // The child's strands keep their positions inside its E/H intervals;
  // nothing moves at return.
  (void)parent;
  if (lint_ != nullptr) lint_->on_procedure_exit(child);
}

proc_id order_detector::enter_call(proc_id parent) {
  CILKPP_ASSERT(parent < frames_.size(), "unknown frame");
  ++stats_.procedures;
  // A called frame continues the caller's current strand; it only scopes
  // its own sync blocks.
  frame child;
  child.cur_e = frames_[parent].cur_e;
  child.cur_h = frames_[parent].cur_h;
  frames_.push_back(child);
  const proc_id id = static_cast<proc_id>(frames_.size() - 1);
  const proc_id tree_id = tree_.add_call(parent);
  CILKPP_ASSERT(tree_id == id, "procedure numbering out of step");
  peds_.on_child(parent, id);  // a call consumes a parent rank, like spawn
  return id;
}

void order_detector::exit_call(proc_id parent, proc_id child) {
  // Implicit sync of the callee, then the caller resumes the callee's
  // final strand (a plain call is serial). sync_impl, not sync: a call
  // return is not a programmer-written strand boundary, so no lint event.
  sync_impl(child);
  frames_[parent].cur_e = frames_[child].cur_e;
  frames_[parent].cur_h = frames_[child].cur_h;
}

void order_detector::sync(proc_id f) {
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::sync, f);
  sync_impl(f);
  // Unconditional, unlike sync_impl's no-spawn fast path: the runtime's
  // rank advances at every sync regardless of pending children.
  peds_.on_sync(f);
}

void order_detector::sync_impl(proc_id f) {
  CILKPP_ASSERT(f < frames_.size(), "unknown frame");
  frame& fr = frames_[f];
  if (fr.block_join == nullptr) return;  // no spawns since the last sync
  fr.cur_h = fr.block_join;
  fr.cur_e = english_.insert_after(fr.cur_e);
  fr.block_join = nullptr;
  fr.last_child_h = nullptr;
}

void order_detector::report(race_kind rk, std::uintptr_t addr,
                            const entry& first, proc_id current,
                            access_kind second_kind,
                            const char* second_label) {
  ++stats_.races_found;
  if (rk == race_kind::view) ++stats_.view_races;
  if (races_.size() >= max_reports) return;
  std::uint64_t key = (static_cast<std::uint64_t>(addr) << 3) |
                      (rk == race_kind::view ? 4u : 0u) |
                      (static_cast<std::uint64_t>(first.kind) << 1) |
                      static_cast<std::uint64_t>(second_kind);
  // Pedigree-keyed dedup, matching the SP-bags engine bit for bit.
  key = ped::mix(ped::mix(key, peds_.strand_hash_at(first.proc, first.ped_rank)),
                 peds_.strand_hash(current));
  if (!reported_.insert(key).second) return;
  race_record r;
  r.kind = rk;
  r.address = addr;
  r.first = first.kind;
  r.second = second_kind;
  r.first_proc = first.proc;
  r.second_proc = current;
  r.first_ped = peds_.strand_at(first.proc, first.ped_rank);
  r.second_ped = peds_.strand(current);
  if (first.label != nullptr) r.first_label = first.label;
  if (second_label != nullptr) r.second_label = second_label;
  races_.push_back(std::move(r));
  races_sorted_ = false;
}

void order_detector::on_access(proc_id current, const void* addr,
                               std::size_t size, access_kind kind,
                               const char* label) {
  CILKPP_ASSERT(current < frames_.size(), "unknown frame");
  om_list::node* const cur_h = frames_[current].cur_h;
  const auto parallel = [cur_h](const entry& e) {
    return om_list::precedes(cur_h, e.strand);
  };
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t cur_rank = peds_.rank(current);
  // Cache-line sharing analysis rides the same stream and the same SP
  // query; once per event, before the byte loop (see detector.cpp).
  if (lens_ != nullptr) {
    lens_->on_access(cur_h, current, base, size, kind, label,
                     [cur_h](om_list::node* const& s) {
                       return om_list::precedes(cur_h, s);
                     });
  }
  for (std::size_t k = 0; k < size; ++k) {
    shadow_.cell(base + k).hist.access(
        cur_h, current, cur_rank, kind, held_, label, parallel,
        [&](const entry& e) {
          report(race_kind::determinacy, base + k, e, current, kind, label);
        },
        stats_);
  }
  // Reducer awareness: raw access vs remembered view accesses (locks are
  // irrelevant — views never take the raw path).
  for (hyper_state& hs : hypers_) {
    if (base + size <= hs.lo || hs.hi <= base) continue;
    for (const entry& e : hs.views.entries()) {
      const bool write_involved =
          e.kind == access_kind::write || kind == access_kind::write;
      if (write_involved && parallel(e)) {
        report(race_kind::view, hs.lo, e, current, kind, label);
      }
    }
    if (lint_ != nullptr) {
      lint_->on_raw_view_access(
          hs.id, current,
          [cur_h](om_list::node* const& s) {
            return om_list::precedes(cur_h, s);
          },
          label);
    }
  }
}

void order_detector::on_read(proc_id current, const void* addr,
                             std::size_t size, const char* label) {
  ++stats_.reads_checked;
  on_access(current, addr, size, access_kind::read, label);
}

void order_detector::on_write(proc_id current, const void* addr,
                              std::size_t size, const char* label) {
  ++stats_.writes_checked;
  on_access(current, addr, size, access_kind::write, label);
}

void order_detector::lock_acquired(proc_id current, lock_id id) {
  CILKPP_ASSERT(!lockset_contains(held_, id),
                "lock acquired twice (not recursive)");
  if (lint_ != nullptr) {
    CILKPP_ASSERT(current < frames_.size(), "unknown frame");
    om_list::node* const cur_h = frames_[current].cur_h;
    lint_->on_acquire(
        cur_h, current, id,
        // Remembered vs current: parallel iff the remembered strand is
        // H-after the current one (the engine's own race query).
        [cur_h](om_list::node* const& s) {
          return om_list::precedes(cur_h, s);
        },
        // Two remembered strands, `earlier` recorded (E-)before `later`:
        // parallel iff `later` H-precedes `earlier` — exact, unlike the
        // SP-bags engine's conservative answer.
        [](om_list::node* const& earlier, om_list::node* const& later) {
          return om_list::precedes(later, earlier);
        });
  }
  held_.push_back(id);
}

void order_detector::lock_released(proc_id current, lock_id id) {
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i] == id) {
      held_.swap_remove(i);
      if (lint_ != nullptr) lint_->on_release(current, id);
      return;
    }
  }
  // Double unlock / unlock of a never-locked mutex: the lockset is already
  // consistent, so record the fact and keep going (see detector.cpp).
  ++stats_.unmatched_releases;
  if (lint_ != nullptr) lint_->on_unmatched_release(current, id);
}

order_detector::hyper_state* order_detector::find_hyper(
    const rt::hyperobject_base& h) {
  for (hyper_state& hs : hypers_) {
    if (hs.id == &h) return &hs;
  }
  return nullptr;
}

void order_detector::register_hyperobject(const rt::hyperobject_base& h,
                                          const void* base, std::size_t size,
                                          const char* label) {
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  // Mirror of detector.cpp: the value bytes are a padding-lint region.
  if (lens_ != nullptr) {
    lens_->on_region(base, size, label != nullptr ? label : "reducer view");
  }
  if (hyper_state* hs = find_hyper(h)) {
    hs->lo = lo;
    hs->hi = lo + size;
    if (hs->label == nullptr) hs->label = label;  // first label wins
    return;
  }
  hypers_.push_back({&h, lo, lo + size, label, {}});
}

void order_detector::on_view_access(proc_id current,
                                    const rt::hyperobject_base& h,
                                    const void* base, std::size_t size,
                                    access_kind kind, const char* label) {
  CILKPP_ASSERT(current < frames_.size(), "unknown frame");
  register_hyperobject(h, base, size, label);
  hyper_state& hs = *find_hyper(h);
  ++stats_.view_accesses;
  om_list::node* const cur_h = frames_[current].cur_h;
  const auto parallel = [cur_h](const entry& e) {
    return om_list::precedes(cur_h, e.strand);
  };
  // A remembered raw access logically parallel with this view access is a
  // view race (the raw strand bypassed the reducer).
  for (std::uintptr_t byte = hs.lo; byte < hs.hi; ++byte) {
    if (shadow_cell* c = shadow_.find(byte)) {
      for (const entry& e : c->hist.entries()) {
        const bool write_involved =
            e.kind == access_kind::write || kind == access_kind::write;
        if (write_involved && parallel(e)) {
          report(race_kind::view, hs.lo, e, current, kind, hs.label);
        }
      }
    }
  }
  // View-vs-view accesses are exempt (the reducer guarantee); record with an
  // empty lockset so no lock discipline can mask the raw-vs-view check.
  const std::uint64_t cur_rank = peds_.rank(current);
  hs.views.access(cur_h, current, cur_rank, kind, lockset{}, hs.label,
                  parallel, [](const entry&) {}, stats_);
}

void order_detector::on_view_fetch(proc_id current,
                                   const rt::hyperobject_base& h,
                                   const void* base, std::size_t size,
                                   const char* label) {
  CILKPP_ASSERT(current < frames_.size(), "unknown frame");
  register_hyperobject(h, base, size, label);
  if (lint_ == nullptr) return;
  lint_->on_view_fetch(&h, frames_[current].cur_h, current,
                       reinterpret_cast<std::uintptr_t>(base), label);
}

const std::vector<race_record>& order_detector::races() const {
  if (!races_sorted_) {
    std::sort(races_.begin(), races_.end(), race_report_order);
    races_sorted_ = true;
  }
  return races_;
}

std::vector<std::uint64_t> order_detector::history_histogram() const {
  std::vector<std::uint64_t> histogram;
  shadow_.for_each([&](std::uintptr_t, const shadow_cell& c) {
    const std::size_t n = c.hist.entries().size();
    if (histogram.size() <= n) histogram.resize(n + 1);
    ++histogram[n];
  });
  return histogram;
}

}  // namespace cilkpp::screen
