#include "cilkscreen/detector.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cilkpp::screen {

detector::detector() {
  root_ = bags_.create_root();
  const proc_id tree_root = tree_.add_root();
  CILKPP_ASSERT(tree_root == root_, "procedure numbering out of step");
  stats_.procedures = 1;
}

proc_id detector::enter_spawn(proc_id parent) {
  // Fire before the child exists: any lock still held belongs to the
  // parent's (or an ancestor's) strand crossing this spawn boundary.
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::spawn, parent);
  ++stats_.procedures;
  const proc_id child = bags_.enter_procedure(parent);
  const proc_id tree_child = tree_.add_spawn(parent);
  CILKPP_ASSERT(tree_child == child, "procedure numbering out of step");
  peds_.on_child(parent, child);  // after the lint boundary: it sees the
                                  // parent's pre-spawn rank
  return child;
}

void detector::exit_spawn(proc_id parent, proc_id child) {
  // The spawned child's strand ends here: locks it acquired and still
  // holds are abandoned.
  if (lint_ != nullptr) lint_->on_procedure_exit(child);
  bags_.return_spawned(parent, child);
}

proc_id detector::enter_call(proc_id parent) {
  ++stats_.procedures;
  const proc_id child = bags_.enter_procedure(parent);
  const proc_id tree_child = tree_.add_call(parent);
  CILKPP_ASSERT(tree_child == child, "procedure numbering out of step");
  peds_.on_child(parent, child);  // a call consumes a parent rank, like spawn
  return child;
}

void detector::exit_call(proc_id parent, proc_id child) {
  bags_.return_called(parent, child);
}

void detector::sync(proc_id f) {
  if (lint_ != nullptr) lint_->on_boundary(lint::boundary::sync, f);
  bags_.sync(f);
  peds_.on_sync(f);
}

void detector::report(race_kind rk, std::uintptr_t addr,
                      const history_entry<proc_id>& first, proc_id current,
                      access_kind second_kind, const char* second_label) {
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

void detector::on_access(proc_id current, const void* addr, std::size_t size,
                         access_kind kind, const char* label) {
  const auto parallel = [this](const history_entry<proc_id>& e) {
    return bags_.in_p_bag(e.strand);
  };
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uint64_t cur_rank = peds_.rank(current);
  // Cache-line sharing analysis rides the same stream and the same SP
  // query; it classifies whole accesses (not bytes), so it runs once per
  // event, before the byte loop.
  if (lens_ != nullptr) {
    lens_->on_access(current, current, base, size, kind, label,
                     [this](const proc_id& s) { return bags_.in_p_bag(s); });
  }
  for (std::size_t k = 0; k < size; ++k) {
    shadow_.cell(base + k).hist.access(
        current, current, cur_rank, kind, held_, label, parallel,
        [&](const history_entry<proc_id>& e) {
          report(race_kind::determinacy, base + k, e, current, kind, label);
        },
        stats_);
  }
  // Reducer awareness: a raw access on a registered hyperobject's value
  // bytes races with any logically parallel view access — no lockset can
  // suppress it, because views never take the raw path.
  for (hyper_state& hs : hypers_) {
    if (base + size <= hs.lo || hs.hi <= base) continue;
    for (const history_entry<proc_id>& e : hs.views.entries()) {
      const bool write_involved =
          e.kind == access_kind::write || kind == access_kind::write;
      if (write_involved && parallel(e)) {
        report(race_kind::view, hs.lo, e, current, kind, label);
      }
    }
    // The serially-ordered counterpart is lint's view-escape check: a view
    // reference cached across a strand boundary.
    if (lint_ != nullptr) {
      lint_->on_raw_view_access(
          hs.id, current,
          [this](const proc_id& s) { return bags_.in_p_bag(s); }, label);
    }
  }
}

void detector::on_read(proc_id current, const void* addr, std::size_t size,
                       const char* label) {
  ++stats_.reads_checked;
  on_access(current, addr, size, access_kind::read, label);
}

void detector::on_write(proc_id current, const void* addr, std::size_t size,
                        const char* label) {
  ++stats_.writes_checked;
  on_access(current, addr, size, access_kind::write, label);
}

lock_id detector::register_lock() { return next_lock_++; }

void detector::lock_acquired(proc_id current, lock_id id) {
  CILKPP_ASSERT(!lockset_contains(held_, id),
                "lock acquired twice (not recursive)");
  if (lint_ != nullptr) {
    // SP-bags answers remembered-vs-current exactly; it cannot order two
    // remembered strands, so the pair predicate is conservatively true.
    lint_->on_acquire(
        current, current, id,
        [this](const proc_id& s) { return bags_.in_p_bag(s); },
        [](const proc_id&, const proc_id&) { return true; });
  }
  held_.push_back(id);
}

void detector::lock_released(proc_id current, lock_id id) {
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

detector::hyper_state* detector::find_hyper(const rt::hyperobject_base& h) {
  for (hyper_state& hs : hypers_) {
    if (hs.id == &h) return &hs;
  }
  return nullptr;
}

void detector::register_hyperobject(const rt::hyperobject_base& h,
                                    const void* base, std::size_t size,
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
    return;
  }
  hypers_.push_back({&h, lo, lo + size, label, {}});
}

void detector::on_view_access(proc_id current, const rt::hyperobject_base& h,
                              const void* base, std::size_t size,
                              access_kind kind, const char* label) {
  register_hyperobject(h, base, size, label);
  hyper_state& hs = *find_hyper(h);
  ++stats_.view_accesses;
  const auto parallel = [this](const history_entry<proc_id>& e) {
    return bags_.in_p_bag(e.strand);
  };
  // A remembered raw access logically parallel with this view access is a
  // view race (the raw strand bypassed the reducer).
  for (std::uintptr_t byte = hs.lo; byte < hs.hi; ++byte) {
    if (shadow_cell* c = shadow_.find(byte)) {
      for (const history_entry<proc_id>& e : c->hist.entries()) {
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
  hs.views.access(current, current, cur_rank, kind, lockset{}, hs.label,
                  parallel, [](const history_entry<proc_id>&) {}, stats_);
}

void detector::on_view_fetch(proc_id current, const rt::hyperobject_base& h,
                             const void* base, std::size_t size,
                             const char* label) {
  register_hyperobject(h, base, size, label);
  if (lint_ == nullptr) return;
  lint_->on_view_fetch(&h, current, current,
                       reinterpret_cast<std::uintptr_t>(base), label);
}

const std::vector<race_record>& detector::races() const {
  if (!races_sorted_) {
    std::sort(races_.begin(), races_.end(), race_report_order);
    races_sorted_ = true;
  }
  return races_;
}

std::vector<std::uint64_t> detector::history_histogram() const {
  std::vector<std::uint64_t> histogram;
  shadow_.for_each([&](std::uintptr_t, const shadow_cell& c) {
    const std::size_t n = c.hist.entries().size();
    if (histogram.size() <= n) histogram.resize(n + 1);
    ++histogram[n];
  });
  return histogram;
}

}  // namespace cilkpp::screen
