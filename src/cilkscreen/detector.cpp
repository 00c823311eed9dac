#include "cilkscreen/detector.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cilkpp::screen {

template <typename Sp>
basic_detector<Sp>::basic_detector() {
  root_ = sp_.create_root();
  const proc_id tree_root = tree_.add_root();
  CILKPP_ASSERT(tree_root == root_, "procedure numbering out of step");
  stats_.procedures = 1;
}

template <typename Sp>
proc_id basic_detector<Sp>::enter_spawn(proc_id parent) {
  // Fire before the child exists: any lock still held belongs to the
  // parent's (or an ancestor's) strand crossing this spawn boundary.
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::spawn, parent);
  ++stats_.procedures;
  const proc_id child = sp_.enter_spawn(parent);
  const proc_id tree_child = tree_.add_spawn(parent);
  CILKPP_ASSERT(tree_child == child, "procedure numbering out of step");
  peds_.on_child(parent, child);  // after the lint boundary: it sees the
                                  // parent's pre-spawn rank
  return child;
}

template <typename Sp>
void basic_detector<Sp>::exit_spawn(proc_id parent, proc_id child) {
  // The spawned child's strand ends here: locks it acquired and still
  // holds are abandoned.
  if (lint_ != nullptr) lint_->on_procedure_exit(child);
  sp_.exit_spawn(parent, child);
}

template <typename Sp>
proc_id basic_detector<Sp>::enter_call(proc_id parent) {
  ++stats_.procedures;
  const proc_id child = sp_.enter_call(parent);
  const proc_id tree_child = tree_.add_call(parent);
  CILKPP_ASSERT(tree_child == child, "procedure numbering out of step");
  peds_.on_child(parent, child);  // a call consumes a parent rank, like spawn
  return child;
}

template <typename Sp>
void basic_detector<Sp>::exit_call(proc_id parent, proc_id child) {
  // The callee's implicit sync is the relation's business: a call return
  // is not a programmer-written strand boundary, so no lint event and no
  // pedigree rank.
  sp_.exit_call(parent, child);
}

template <typename Sp>
void basic_detector<Sp>::sync(proc_id f) {
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::sync, f);
  sp_.sync(f);
  // Unconditional, unlike the relations' no-spawn fast paths: the
  // runtime's rank advances at every sync regardless of pending children.
  peds_.on_sync(f);
}

template <typename Sp>
void basic_detector<Sp>::report(race_kind rk, std::uintptr_t addr,
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
  // Pedigree-keyed dedup: distinct endpoint strands at the same address and
  // kind pair are distinct races. Same-strand repeats still fold to one.
  key = ped::mix(ped::mix(key, peds_.strand_hash_at(first.proc, first.ped_rank)),
                 peds_.strand_hash(current));
  if (!reported_.insert(key).second) return;  // already reported this shape
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

template <typename Sp>
void basic_detector<Sp>::on_access(proc_id current, const void* addr,
                                   std::size_t size, access_kind kind,
                                   const char* label) {
  const strand cur = sp_.current(current);
  const auto parallel_with = [this, cur](const strand& s) {
    return sp_.parallel(cur, s);
  };
  const auto parallel = [this, cur](const entry& e) {
    return sp_.parallel(cur, e.strand);
  };
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t cur_rank = peds_.rank(current);
  // Cache-line sharing analysis rides the same stream and the same SP
  // query; it classifies whole accesses (not bytes), so it runs once per
  // event, before the byte loop.
  if (lens_ != nullptr) {
    lens_->on_access(cur, current, base, size, kind, label, parallel_with);
  }
  for (std::size_t k = 0; k < size; ++k) {
    shadow_.cell(base + k).hist.access(
        cur, current, cur_rank, kind, held_, label, parallel,
        [&](const entry& e) {
          report(race_kind::determinacy, base + k, e, current, kind, label);
        },
        stats_);
  }
  // Reducer awareness: a raw access on a registered hyperobject's value
  // bytes races with any logically parallel view access — no lockset can
  // suppress it, because views never take the raw path.
  for (hyper_state& hs : hypers_) {
    if (base + size <= hs.lo || hs.hi <= base) continue;
    for (const entry& e : hs.views.entries()) {
      const bool write_involved =
          e.kind == access_kind::write || kind == access_kind::write;
      if (write_involved && parallel(e)) {
        report(race_kind::view, hs.lo, e, current, kind, label);
      }
    }
    // The serially-ordered counterpart is lint's view-escape check: a view
    // reference cached across a strand boundary.
    if (lint_ != nullptr) {
      lint_->on_raw_view_access(hs.id, current, parallel_with, label);
    }
  }
}

template <typename Sp>
void basic_detector<Sp>::on_read(proc_id current, const void* addr,
                                 std::size_t size, const char* label) {
  ++stats_.reads_checked;
  on_access(current, addr, size, access_kind::read, label);
}

template <typename Sp>
void basic_detector<Sp>::on_write(proc_id current, const void* addr,
                                  std::size_t size, const char* label) {
  ++stats_.writes_checked;
  on_access(current, addr, size, access_kind::write, label);
}

template <typename Sp>
void basic_detector<Sp>::lock_acquired(proc_id current, lock_id id) {
  CILKPP_ASSERT(!lockset_contains(held_, id),
                "lock acquired twice (not recursive)");
  if (lint_ != nullptr) {
    const strand cur = sp_.current(current);
    lint_->on_acquire(
        cur, current, id,
        [this, cur](const strand& s) { return sp_.parallel(cur, s); },
        [](const strand& earlier, const strand& later) {
          return Sp::pair_parallel(earlier, later);
        });
  }
  held_.push_back(id);
}

template <typename Sp>
void basic_detector<Sp>::lock_released(proc_id current, lock_id id) {
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i] == id) {
      held_.swap_remove(i);
      if (lint_ != nullptr) lint_->on_release(current, id);
      return;
    }
  }
  // A release with no matching acquisition (double unlock, unlock of a
  // never-locked mutex). The lockset is already consistent — there is
  // nothing to remove — so record the fact and keep going.
  ++stats_.unmatched_releases;
  if (lint_ != nullptr) lint_->on_unmatched_release(current, id);
}

template <typename Sp>
typename basic_detector<Sp>::hyper_state* basic_detector<Sp>::find_hyper(
    const rt::hyperobject_base& h) {
  for (hyper_state& hs : hypers_) {
    if (hs.id == &h) return &hs;
  }
  return nullptr;
}

template <typename Sp>
typename basic_detector<Sp>::hyper_state& basic_detector<Sp>::register_view(
    const rt::hyperobject_base& h, const void* base, std::size_t size,
    const char* label) {
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  // The hyperobject's value bytes are a runtime-owned region: co-residency
  // with a neighboring structure is a padding lint (memlens/analyzer.hpp).
  if (lens_ != nullptr) {
    lens_->on_region(base, size, label != nullptr ? label : "reducer view");
  }
  if (hyper_state* hs = find_hyper(h)) {
    hs->lo = lo;
    hs->hi = lo + size;
    if (hs->label == nullptr) hs->label = label;  // first label wins
    return *hs;
  }
  hypers_.push_back({&h, lo, lo + size, label, {}});
  return hypers_.back();
}

template <typename Sp>
void basic_detector<Sp>::register_hyperobject(const rt::hyperobject_base& h,
                                              const void* base,
                                              std::size_t size,
                                              const char* label) {
  (void)register_view(h, base, size, label);
}

template <typename Sp>
void basic_detector<Sp>::on_view(proc_id current, const rt::hyperobject_base& h,
                                 const void* base, std::size_t size,
                                 access_kind kind, const char* label) {
  hyper_state& hs = register_view(h, base, size, label);
  const strand cur = sp_.current(current);
  // The fetch: this strand obtained the view, so an attached lint analyzer
  // can flag the reference escaping to a serially-later strand.
  if (lint_ != nullptr) {
    lint_->on_view_fetch(&h, cur, current,
                         reinterpret_cast<std::uintptr_t>(base), label);
  }
  // The access.
  ++stats_.view_accesses;
  const auto parallel = [this, cur](const entry& e) {
    return sp_.parallel(cur, e.strand);
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
  // View-vs-view accesses are exempt — that is the reducer guarantee — so
  // the history's race callback is a no-op; the entries exist only for the
  // raw-vs-view check above and its mirror in on_access. Views are recorded
  // with an empty lockset: a lock never protects against a view race.
  const std::uint64_t cur_rank = peds_.rank(current);
  hs.views.access(cur, current, cur_rank, kind, lockset{}, hs.label, parallel,
                  [](const entry&) {}, stats_);
}

template <typename Sp>
const std::vector<race_record>& basic_detector<Sp>::races() const {
  if (!races_sorted_) {
    std::sort(races_.begin(), races_.end(), race_report_order);
    races_sorted_ = true;
  }
  return races_;
}

template <typename Sp>
std::vector<std::uint64_t> basic_detector<Sp>::history_histogram() const {
  std::vector<std::uint64_t> histogram;
  shadow_.for_each([&](std::uintptr_t, const shadow_cell& c) {
    const std::size_t n = c.hist.entries().size();
    if (histogram.size() <= n) histogram.resize(n + 1);
    ++histogram[n];
  });
  return histogram;
}

template class basic_detector<sp_bags>;
template class basic_detector<sp_order>;

}  // namespace cilkpp::screen
