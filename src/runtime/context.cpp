#include <algorithm>
#include <thread>

#include "runtime/scheduler.hpp"

// The slow paths of a frame: the helping loop of a sync that has to wait,
// the delivering fold, the ends of frames that run as calls and reducer
// access. The spawn/join fast path itself is defined inline in
// scheduler.hpp; it is entirely lock-free and, for a child that is never
// stolen, free of atomic read-modify-writes (DESIGN.md §4.7, "lock-free
// join"). The ownership discipline:
//
//   * The arena, the join counts and the cross-worker join fields live in
//     the frame's join_state, which the frame takes from its worker's
//     join_stack at its first pushed spawn, first view segment or first
//     delivery kept from a child that ran as a call, and gives back when it
//     ends; until then the frame has nothing to wait for and nothing to
//     fold.
//   * Arena STRUCTURE (append, clear/fold) is touched only by the single
//     strand executing this frame — only it spawns, calls, syncs, or
//     accesses reducers through this frame. Appends never move existing
//     slots (chunked storage), so children holding slot pointers are safe.
//     On a one-worker scheduler a reducer access opens no segment at all:
//     it updates the reducer's leftmost value (hyper_view), and only
//     holder views reach a segment.
//   * A child slot holds the child's task record from the spawn until the
//     child's implicit sync; the child then destroys the record, rebuilds
//     the slot's result fields and writes its results there. Exactly one
//     child owns each slot, from the spawn until it counts its join.
//   * The join counts: spawned (owner-only), joined_local (bumped with a
//     plain increment by a child that ran on this frame's own worker —
//     that worker's thread is the one executing this frame, so the
//     increment is sequenced with every owner read), and joined_stolen
//     (release-incremented by a child that ran on another worker).
//   * The owner reads child-slot contents only in fold paths, which run
//     strictly after wait_children saw every child joined. Its acquire
//     load of joined_stolen pairs with every stolen child's release
//     increment (RMWs extend the release sequence), ordering all their
//     slot writes before the fold reads; local children's writes are
//     ordered by program order. A slot is reused only after that fold.

namespace cilkpp::rt {

void context::help_until_joined() noexcept {
  // The paper's sync is a *local* barrier: only this frame's children are
  // awaited. While they run elsewhere, this worker helps — first its own
  // deque (deepest work, preserving the stack discipline), then stealing —
  // rather than blocking the OS thread. A child this worker runs counts
  // its join in joined_local from inside help_one, on this very thread.
  // Every task it runs meanwhile starts above this frame, so this frame's
  // census is the one under them until the wait ends.
  worker& w = *home_;
  const std::uint64_t outer = w.live_frames.load(std::memory_order_relaxed);
  CILKPP_ASSERT(outer < live_, "live-frame census out of order");
  w.live_frames.store(live_, std::memory_order_relaxed);
  std::uint32_t idle_rounds = 0;
  while (!all_joined()) {
    if (w.sched->help_one(w)) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      // Asks for 50 µs; timer slack makes it about 106 µs on a Linux VM
      // (the worker_main backoff comment has the measurement).
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  w.live_frames.store(outer, std::memory_order_relaxed);
}

std::exception_ptr context::fold_delivered() {
  // Folding replaces every segment; the strand's cached segment goes with
  // them. Only the owning strand calls fold paths, so this is a plain
  // write.
  segment_ = nullptr;
  std::exception_ptr first_exception;
  view_map folded;
  slot_arena& arena = joins_->arena;
  try {
    arena.for_each([&](frame_slot& s) {
      if (s.exception() && !first_exception) first_exception = s.exception();
      fold_view_maps(folded, std::move(s.views()));
    });
  } catch (...) {
    // A reduce threw. fold_view_maps left every view with one owner:
    // `folded`, a slot, or the unwinding that consumed it. The fold ends
    // here and drops them all, each once — the clear() below and folded's
    // destructor — so the next sync finds nothing to fold. The reduce's
    // exception is the fold's result, as a child's would be, unless a
    // serially earlier child already threw.
    if (!first_exception) first_exception = std::current_exception();
    folded.clear();
  }
  arena.clear();
  joins_->child_delivered.store(false, std::memory_order_relaxed);
  if (!folded.empty()) {
    arena.append(/*is_child=*/false)->views() = std::move(folded);
  }
  return first_exception;
}

void context::sync_joins() {
  if (std::exception_ptr ex = sync_bracket<false>(/*implicit=*/false)) {
    std::rethrow_exception(ex);
  }
}

void context::take_joins() { joins_ = home_->joins.push(); }

void context::release_joins() noexcept {
  if (joins_ == nullptr) return;
  home_->joins.pop(joins_);
  joins_ = nullptr;
}

template <bool Observed>
void context::finish_spawn_as_call(context& child,
                                   std::exception_ptr&& body_exception) {
  std::exception_ptr deliver =
      child.sync_spawned<Observed>(std::move(body_exception));
  child.end_frame<Observed>();
  // On a one-worker scheduler only a holder's views can be left: a
  // reducer's strands updated its leftmost value.
  if (!deliver && child.joins_ == nullptr) {
    seal_strand();
    return;
  }
  view_map views = child.take_final_views();
  // The child's join state goes back before this frame may take its own.
  child.release_joins();
  keep_inline_child(std::move(views), std::move(deliver));
}

template <bool Observed>
void context::end_called(std::exception_ptr body_exception) {
  std::exception_ptr ex = sync_spawned<Observed>(std::move(body_exception));
  view_map final_views = take_final_views();
  // The frame's join state goes back before its parent may take its own.
  release_joins();
  end_frame<Observed>();
  if (parent_ == nullptr) {
    for (view_map::entry& e : final_views) {
      // Null the entry before absorb_final runs: absorb_final calls the
      // user's reduce, which may throw, and final_views' destructor would
      // otherwise delete the view a second time. A throw drops only its
      // own view; every other view is still absorbed.
      std::unique_ptr<view_base> view(e.view);
      e.view = nullptr;
      try {
        e.hyper->absorb_final(std::move(view));
      } catch (...) {
        if (!ex) ex = std::current_exception();
      }
    }
  } else if (!final_views.empty()) {
    // Owner-only: a called frame runs synchronously on the strand executing
    // the parent, so appending to the parent's arena here is the same
    // single-strand append as the parent's own spawns. The parent's
    // outstanding children (if any) write only their own slots' contents,
    // never the arena structure.
    // Caller updates so far are serially before the callee's: fold left.
    try {
      fold_view_maps(parent_->current_segment(), std::move(final_views));
    } catch (...) {
      if (!ex) ex = std::current_exception();
    }
  }
  if (ex) std::rethrow_exception(ex);
}

// The epilogues of both instantiations (scheduler.hpp: context).
template void context::finish_spawn_as_call<false>(context&,
                                                   std::exception_ptr&&);
template void context::finish_spawn_as_call<true>(context&, std::exception_ptr&&);
template void context::end_called<false>(std::exception_ptr);
template void context::end_called<true>(std::exception_ptr);

std::unique_ptr<view_base> context::extract_view(hyperobject_base& h) {
  CILKPP_ASSERT(all_joined(),
                "extract_view with children still running; sync() first");
  if (std::exception_ptr ex = fold_slots()) std::rethrow_exception(ex);
  // The folded arena holds at most one segment. On a one-worker scheduler
  // it holds no reducer view: the reducer's leftmost value already has
  // every update. The segment stays put, so the strand's cached segment
  // stays exact without h's entry.
  if (joins_ == nullptr) return nullptr;
  frame_slot* tail = joins_->arena.last();
  if (tail == nullptr) return nullptr;
  return tail->views().extract(&h);
}

view_map& context::current_segment() {
  // Owner-only: open (or reuse) the current strand segment at the arena
  // tail. Pending children never touch the arena structure, so no lock.
  slot_arena& arena = build_joins().arena;
  frame_slot* tail = arena.last();
  if (tail == nullptr || tail->is_child) tail = arena.append(/*is_child=*/false);
  return tail->views();
}

view_base& context::open_view(hyperobject_base& h) {
  // The strand's first access since its frame last spawned, called or
  // synced, or its first access to h: the tail segment is the strand's
  // (current_segment opens it after a child slot), and the cache keeps it
  // for every later access of the strand.
  view_map& segment = current_segment();
  segment_ = &segment;
  if (view_base* v = segment.find(&h)) return *v;
  return *segment.insert_new(&h, h.identity_view());
}

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
