#include <algorithm>
#include <thread>

#include "runtime/scheduler.hpp"

// The slow paths of a frame: the helping loop of a sync that has to wait,
// the delivering fold, the called/root epilogues and reducer access. The
// spawn/join fast path itself is defined inline in scheduler.hpp; it is
// entirely lock-free and, for a child that is never stolen, free of atomic
// read-modify-writes (DESIGN.md §4.7, "lock-free join"). The ownership
// discipline:
//
//   * Arena STRUCTURE (append, clear/fold) is touched only by the single
//     strand executing this frame — only it spawns, calls, syncs, or
//     accesses reducers through this frame. Appends never move existing
//     slots (chunked storage), so children holding slot pointers are safe.
//   * A child slot holds the child's task record from the spawn until the
//     child's implicit sync; the child then destroys the record, rebuilds
//     the slot's result fields and writes its results there. Exactly one
//     child owns each slot, from the spawn until it counts its join.
//   * The join counts: spawned_ (owner-only), joined_local_ (bumped with a
//     plain increment by a child that ran on this frame's own worker —
//     that worker's thread is the one executing this frame, so the
//     increment is sequenced with every owner read), and joined_stolen_
//     (release-incremented by a child that ran on another worker).
//   * The owner reads child-slot contents only in fold paths, which run
//     strictly after wait_children saw every child joined. Its acquire
//     load of joined_stolen_ pairs with every stolen child's release
//     increment (RMWs extend the release sequence), ordering all their
//     slot writes before the fold reads; local children's writes are
//     ordered by program order. A slot is reused only after that fold.

namespace cilkpp::rt {

void context::help_until_joined() noexcept {
  // The paper's sync is a *local* barrier: only this frame's children are
  // awaited. While they run elsewhere, this worker helps — first its own
  // deque (deepest work, preserving the stack discipline), then stealing —
  // rather than blocking the OS thread. A child this worker runs counts
  // its join in joined_local_ from inside help_one, on this very thread.
  std::uint32_t idle_rounds = 0;
  while (!all_joined()) {
    if (sched_->help_one(*home_)) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

std::exception_ptr context::fold_delivered() {
  // Folding consumes view objects; the strand-local cache may point into a
  // consumed segment. Only the owning strand calls fold paths, so this is
  // a plain write.
  cached_hyper_ = nullptr;
  std::exception_ptr first_exception;
  view_map folded;
  arena_.for_each([&](frame_slot& s) {
    if (s.exception() && !first_exception) first_exception = s.exception();
    fold_view_maps(folded, std::move(s.views()));
  });
  arena_.clear();
  child_delivered_.store(false, std::memory_order_relaxed);
  if (!folded.empty()) {
    arena_.append(/*is_child=*/false)->views() = std::move(folded);
  }
  return first_exception;
}

void context::finish_called() {
  sync();  // implicit sync; rethrows child exceptions to the caller
  view_map final_views = take_final_views();
  finished_ = true;
  if (final_views.empty()) return;
  // Owner-only: a called frame runs synchronously on the strand executing
  // the parent, so appending to the parent's arena here is the same
  // single-strand append as the parent's own spawns. The parent's outstanding
  // children (if any) write only their own slots' contents, never the
  // arena structure.
  context* parent = parent_;
  frame_slot* tail = parent->arena_.last();
  if (tail == nullptr || tail->is_child) {
    tail = parent->arena_.append(/*is_child=*/false);
  }
  // Caller updates so far are serially before the callee's: fold left.
  fold_view_maps(tail->views(), std::move(final_views));
}

void context::finish_root() {
  sync();
  view_map final_views = take_final_views();
  finished_ = true;
  for (view_map::entry& e : final_views) {
    // Null the entry before absorb_final runs: absorb_final calls the
    // user's reduce, which may throw, and final_views' destructor would
    // otherwise delete the view a second time during unwinding.
    std::unique_ptr<view_base> view(e.view);
    e.view = nullptr;
    e.hyper->absorb_final(std::move(view));
  }
  final_views.detach_all();
}

void context::finish_root_abandoned() noexcept {
  trace_record(home_, trace::event_kind::sync_begin, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  wait_children();
  (void)fold_slots();  // child exceptions are superseded by the body's
  trace_record(home_, trace::event_kind::sync_end, ped_hash_, 0,
               static_cast<std::uint32_t>(rank_), /*implicit=*/1);
  view_map final_views = take_final_views();
  finished_ = true;
  for (view_map::entry& e : final_views) {
    std::unique_ptr<view_base> view(e.view);
    e.view = nullptr;  // sole owner is now `view`; no double free on throw
    try {
      e.hyper->absorb_final(std::move(view));
    } catch (...) {
      // A throwing reduce during unwinding: drop this view, keep going.
    }
  }
  final_views.detach_all();
}

std::unique_ptr<view_base> context::extract_view(hyperobject_base& h) {
  CILKPP_ASSERT(all_joined(),
                "extract_view with children still running; sync() first");
  if (std::exception_ptr ex = fold_slots()) std::rethrow_exception(ex);
  frame_slot* tail = arena_.last();
  if (tail == nullptr) return nullptr;
  std::unique_ptr<view_base> out = tail->views().extract(&h);
  if (out != nullptr && cached_hyper_ == &h) cached_hyper_ = nullptr;
  return out;
}

view_base& context::hyper_view(hyperobject_base& h) {
  if (cached_hyper_ == &h) return *cached_view_;  // strand-local fast path
  // Owner-only: open (or reuse) the current strand segment at the arena
  // tail. Pending children never touch the arena structure, so no lock.
  frame_slot* tail = arena_.last();
  if (tail == nullptr || tail->is_child) {
    tail = arena_.append(/*is_child=*/false);
  }
  view_base* v = tail->views().find(&h);
  if (v == nullptr) v = tail->views().insert_new(&h, h.identity_view());
  cached_hyper_ = &h;
  cached_view_ = v;
  return *v;
}

#if CILKPP_PEDIGREE_ENABLED
std::uint64_t context::strand_id() const { return ped_mix(ped_hash_, rank_); }

std::uint64_t context::dprng_draw() {
  // Chain the strand id with the per-strand draw index; draws_ resets when
  // the rank advances, so the k-th draw of a strand is schedule-invariant.
  return ped_mix(strand_id(), ++draws_);
}

ped::pedigree context::pedigree() const {
  // Collect birth ranks leaf-to-root; every field read here is immutable
  // after the frame's construction, and a parent strictly outlives its
  // children, so the walk is safe even from a stolen child's worker.
  ped::pedigree p;
  std::uint64_t depth = 0;
  for (const context* f = this; f->parent_ != nullptr; f = f->parent_) ++depth;
  p.ranks.resize(depth + 1);
  p.ranks[depth] = rank_;
  std::uint64_t i = depth;
  for (const context* f = this; f->parent_ != nullptr; f = f->parent_) {
    p.ranks[--i] = f->birth_rank_;
  }
  return p;
}
#endif

void worker_stats::merge(const worker_stats& o) {
  spawns += o.spawns;
  steals += o.steals;
  steal_attempts += o.steal_attempts;
  tasks_executed += o.tasks_executed;
  max_frame_depth = std::max(max_frame_depth, o.max_frame_depth);
  peak_deque = std::max(peak_deque, o.peak_deque);
  peak_live_frames = std::max(peak_live_frames, o.peak_live_frames);
  backoff_naps += o.backoff_naps;
  magazine_refills += o.magazine_refills;
  magazine_returns += o.magazine_returns;
  slabs_created += o.slabs_created;
  oversize_allocs += o.oversize_allocs;
  for (std::size_t b = 0; b < steal_distance_buckets; ++b) {
    steal_distance[b] += o.steal_distance[b];
  }
  if (steals_by_victim.size() < o.steals_by_victim.size()) {
    steals_by_victim.resize(o.steals_by_victim.size(), 0);
  }
  for (std::size_t v = 0; v < o.steals_by_victim.size(); ++v) {
    steals_by_victim[v] += o.steals_by_victim[v];
  }
}

}  // namespace cilkpp::rt
