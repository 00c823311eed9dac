// The cilkpp work-stealing runtime (paper Sec. 3).
//
//   "When the runtime system starts up, it allocates as many operating-system
//    threads, called workers, as there are processors … Each worker's stack
//    operates like a work queue … When a worker runs out of work, it becomes
//    a thief and steals the top frame from another victim worker's stack."
//
// Library-level embedding. The Cilk++ compiler steals *continuations*; a
// library cannot capture a C++ continuation, so cilkpp uses the standard
// child-stealing formulation (DESIGN.md substitution #1): `spawn` pushes the
// child task on the worker's deque and the parent keeps running; `sync`
// drains remaining children, helping (executing its own deque bottom, then
// stealing) instead of blocking. Once the worker's deque already holds
// P − 1 tasks — one for every other worker to steal — `spawn` runs the
// child at once, as a call (lazy spawning); on a one-worker scheduler that
// is every spawn, and the whole computation runs in serial order. The
// computation dag — and therefore the work, span, and reducer semantics —
// is the one the paper describes.
//
// Programming model:
//
//   cilk::scheduler sched;                       // workers = hw threads
//   int r = sched.run([&](cilk::context& ctx) {
//     int a = 0, b = 0;
//     ctx.spawn([&](cilk::context& child) { a = fib(child, n - 1); });
//     b = fib(ctx, n - 2);
//     ctx.sync();                                // cilk_sync
//     return a + b;                              // implicit sync ran already
//   });
//
// Every Cilk function instance is a `context`; `spawn` = cilk_spawn,
// `sync` = cilk_sync, `call` = a plain call of a Cilk function (scopes the
// callee's syncs and its implicit sync, exactly as in Cilk++).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "deque/chase_lev.hpp"
#include "pedigree/pedigree.hpp"
#include "runtime/hyper_iface.hpp"
#include "runtime/slot_arena.hpp"
#include "support/assert.hpp"
#include "support/cache.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "trace/event.hpp"
#include "trace/ring.hpp"

namespace cilkpp::rt {

class scheduler;
class context;
struct worker;

/// Scheduling boundaries at which an installed chaos_policy may perturb the
/// schedule (src/stress). Every one of these is a point where the paper's
/// guarantees must hold for *any* adversarial interleaving.
enum class chaos_point : std::uint8_t {
  spawn_push,     ///< a child task was pushed on the spawning worker's deque
  pop_bottom,     ///< a worker is about to pop its own deque bottom
  steal_attempt,  ///< a thief is about to probe a victim
  steal_success,  ///< a thief stole a task and is about to run it
  sync_enter,     ///< a frame entered a sync (explicit or implicit)
  sync_exit,      ///< a frame's sync completed
  task_run,       ///< a worker is about to execute a dequeued task
};

/// Schedule-perturbation hook. Installed via scheduler::install_chaos;
/// src/stress/chaos.hpp provides the seeded implementation. While neither a
/// policy nor a trace session is attached, spawns, syncs, calls and the
/// tasks they push run an instantiation with no chaos point in it (see
/// context). Implementations are called concurrently from every worker and
/// must not throw; `perturb` may yield or sleep but must always return
/// (bounded delays only — an unbounded stall would turn a liveness property
/// into a deadlock).
class chaos_policy {
 public:
  virtual ~chaos_policy() = default;
  /// Called at each scheduling boundary; may delay the calling worker.
  virtual void perturb(unsigned worker_id, chaos_point p) = 0;
  /// True: the worker tries to steal before popping its own deque
  /// ("force-steal-everything" mode — maximizes task migration).
  virtual bool prefer_steal(unsigned worker_id) = 0;
  /// Victim override for one steal probe: return a victim id in
  /// [0, nworkers) different from worker_id, or nworkers to keep the
  /// default uniformly random choice.
  virtual std::size_t pick_victim(unsigned worker_id, std::size_t nworkers) = 0;
};

/// The header of a spawned child's task record. A spawn builds the record
/// in place in the child's frame_slot (slot_arena.hpp), over the result
/// fields the child writes only after its closure is gone, and pushes the
/// slot on its worker's deque: the record's address is its slot, so the
/// header needs no slot pointer, and a child that is never stolen costs no
/// allocation. Whichever worker pops or steals the slot calls `run`, which
/// consumes the record: it runs the child, destroys the record and rebuilds
/// the slot's result fields before it delivers the child's results into
/// them and signals the join — after that signal the parent may reuse or
/// free the slot.
struct task {
  /// Runs the record in `slot` as a child frame on worker w (the calling
  /// thread's worker).
  using run_fn = void (*)(frame_slot& slot, worker& w);

  task(run_fn r, context* parent, std::uint64_t ped, std::uint64_t birth)
      : run(r), parent_frame(parent), child_ped_hash(ped),
        child_birth_rank(birth) {}

  run_fn run;
  context* parent_frame;
  std::uint64_t child_ped_hash;  ///< pedigree prefix captured at spawn time
  /// The parent's rank at the spawn: the child's last rank-list element,
  /// needed only to materialize full pedigrees (the hash above carries the
  /// hot-path identity).
  std::uint64_t child_birth_rank;
};

static_assert(sizeof(task) <= 32, "the record header is 32 bytes");

/// True when a record type fits in a frame_slot.
template <typename Record>
inline constexpr bool fits_in_slot =
    sizeof(Record) <= frame_slot::record_bytes &&
    alignof(Record) <= alignof(frame_slot);

/// Steal-distance histogram buckets: log2-spaced worker distances. Bucket 0
/// is distance 0 (two workers pinned to the same CPU), bucket k ≥ 1 covers
/// distances [2^(k-1), 2^k), and the last bucket absorbs everything beyond.
inline constexpr std::size_t steal_distance_buckets = 8;

/// Per-worker statistics snapshot (paper Sec. 3.2: steals measure all
/// communication).
struct worker_stats {
  std::uint64_t spawns = 0;
  std::uint64_t steals = 0;          ///< successful steals
  std::uint64_t steal_attempts = 0;  ///< including empty/lost attempts
  std::uint64_t tasks_executed = 0;
  std::uint64_t max_frame_depth = 0; ///< deepest spawned frame executed here
  /// Deepest this worker's deque ever got (tasks awaiting execution). The
  /// space bounds checked by the stress oracle: at any instant a worker's
  /// deque holds only outstanding children of frames live on its stack, so
  /// peak_deque ≤ max spawns-per-frame · peak_live_frames, and a spawn
  /// pushes only while the deque holds fewer than P − 1 tasks, so
  /// peak_deque ≤ P − 1.
  std::uint64_t peak_deque = 0;
  /// Peak number of frames (contexts) simultaneously live on this worker —
  /// its call depth including nested helping during syncs.
  std::uint64_t peak_live_frames = 0;
  /// Exponential-backoff naps taken between failed steal sweeps and the
  /// full park (see worker_main): high values mean thieves found the
  /// system drained repeatedly — starvation, not contention.
  std::uint64_t backoff_naps = 0;
  // --- Allocator activity attributed to this worker's thread: deltas of
  // the slab allocator's per-thread counters since the last reset_stats()
  // (src/alloc; all zero when the thread never allocated).
  std::uint64_t magazine_refills = 0;  ///< full magazines pulled from depot
  std::uint64_t magazine_returns = 0;  ///< full magazines pushed to depot
  std::uint64_t slabs_created = 0;     ///< 64 KiB slab carves on this thread
  std::uint64_t oversize_allocs = 0;   ///< requests past the largest class
  /// steal_distance[b]: successful steals whose victim sat at a distance in
  /// log2 bucket b from this worker (CPU-id distance when affinity masks
  /// are set, ring id-distance otherwise). Σ_b == steals. A locality-aware
  /// probe order shows up as mass in the low buckets.
  std::uint64_t steal_distance[steal_distance_buckets] = {};
  /// Steal provenance: steals_by_victim[v] = tasks this worker stole from
  /// worker v (Σ_v == steals). Empty only for a default-constructed value.
  std::vector<std::uint64_t> steals_by_victim;

  void merge(const worker_stats& o);
};

/// What a frame needs only once it has pushed a child, opened a view
/// segment or kept what a child that ran as a call delivered: slot storage,
/// the join counts and the fields stolen children write. A frame takes one
/// from its worker's join_stack at that first use (context::build_joins), so
/// a frame that needs none of it — a fib leaf, a frame whose spawns all ran
/// as calls and left nothing, and every frame of a one-worker scheduler
/// unless a holder or an exception reaches it — carries a null pointer
/// instead.
struct join_state {
  // Slot storage: structure (append/clear) is owner-only; a completing
  // child writes only the contents of its own slot.
  slot_arena arena;
  // Join counts, owner-only (DESIGN.md §4.7): children spawned, and children
  // that ran on the frame's own worker — whose thread is the thread
  // executing the frame, so their joins are plain increments. Sums are
  // compared modulo 2^32; only the number outstanding matters.
  std::uint32_t spawned = 0;
  std::uint32_t joined_local = 0;
  // --- Cross-worker fields, on their own cache line: stolen children
  // write these from other workers while the owner polls them in
  // wait_children. Padding them keeps that contention off the owner-hot
  // fields.
  /// Joins of children that ran on another worker: each one's last act
  /// is a release increment, which publishes its slot writes to the
  /// owner's acquire in all_joined().
  alignas(cache_line_size) std::atomic<std::uint32_t> joined_stolen{0};
  /// Set (relaxed) by any completing child that delivered reducer views
  /// or an exception into its slot; published by the same join that
  /// publishes the slot contents. While it stays false, the post-sync
  /// fold knows every child slot is still pristine and skips the fold
  /// walk entirely (fold_slots' clean fast path).
  std::atomic<bool> child_delivered{false};
};

/// The join states of the frames live on one worker, in a LIFO. Frames on a
/// worker nest like its C++ stack, and a frame takes its join state only
/// while it is the innermost frame there that holds one: from its own strand
/// (a push, a segment, a kept delivery), once every frame it started has
/// given its own back. So a frame's join state is always the top one when it
/// gives it back, and the states of the live frames fill the stack from the
/// bottom. Chunks are never moved or freed before the worker is, so a stolen
/// child may write its parent's join state from another worker; a chunk is
/// plain heap memory, so no spawn takes a slab block for it. Owner-only.
class join_stack {
 public:
  join_stack() = default;
  join_stack(const join_stack&) = delete;
  join_stack& operator=(const join_stack&) = delete;

  /// Builds a join state above every other one and returns it.
  join_state* push() {
    if (size_ == chunks_.size() * chunk_states) {
      chunks_.push_back(std::unique_ptr<chunk>(new chunk));
    }
    void* at = chunks_[size_ / chunk_states]->states[size_ % chunk_states];
    join_state* js = ::new (at) join_state();
    ++size_;
    return js;
  }

  /// Destroys the top join state, which must be js.
  void pop(join_state* js) noexcept {
    CILKPP_ASSERT(size_ != 0 &&
                      static_cast<void*>(js) ==
                          chunks_[(size_ - 1) / chunk_states]
                              ->states[(size_ - 1) % chunk_states],
                  "join state given back out of LIFO order");
    std::destroy_at(js);
    --size_;
  }

  /// Join states built and not yet given back.
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t chunk_states = 16;
  struct chunk {
    alignas(join_state) std::byte states[chunk_states][sizeof(join_state)];
  };
  std::vector<std::unique_ptr<chunk>> chunks_;
  std::size_t size_ = 0;
};

/// One worker: a deque plus scheduling state. Workers are created by the
/// scheduler; worker 0 belongs to the thread that calls run(). Counters are
/// relaxed atomics: each is written by its own worker but snapshot/reset by
/// whoever calls scheduler::stats().
struct worker {
  worker(unsigned id_, scheduler* sched_, std::uint64_t seed, unsigned nworkers)
      : id(id_), solo(nworkers == 1), call_depth(nworkers - 1), sched(sched_),
        rng(seed), steals_from(nworkers) {}

  worker_stats snapshot_stats() const {
    worker_stats s;
    // A spawn whose child ran as a call is one spawn and one executed task,
    // counted once.
    const std::uint64_t called = called_spawns.load(std::memory_order_relaxed);
    s.spawns = pushed_spawns.load(std::memory_order_relaxed) + called;
    s.steals = steals.load(std::memory_order_relaxed);
    s.steal_attempts = steal_attempts.load(std::memory_order_relaxed);
    s.tasks_executed = tasks_executed.load(std::memory_order_relaxed) + called;
    s.max_frame_depth = max_frame_depth.load(std::memory_order_relaxed);
    s.peak_deque = peak_deque.load(std::memory_order_relaxed);
    s.peak_live_frames = peak_live_frames.load(std::memory_order_relaxed);
    s.backoff_naps = backoff_naps.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < steal_distance_buckets; ++b) {
      s.steal_distance[b] = steal_dist_hist[b].load(std::memory_order_relaxed);
    }
    // Allocator attribution: delta of the owning thread's slab counters
    // against the baseline captured at the last reset. The counter block
    // is immortal, so this read is safe even after the thread exited.
    if (const auto* c = alloc_counters.load(std::memory_order_acquire)) {
      s.magazine_refills =
          c->magazine_refills.load(std::memory_order_relaxed) - base_refills;
      s.magazine_returns =
          c->magazine_returns.load(std::memory_order_relaxed) - base_returns;
      s.slabs_created =
          c->slabs_created.load(std::memory_order_relaxed) - base_slabs;
      s.oversize_allocs =
          c->allocs[alloc::oversize_row].load(std::memory_order_relaxed) -
          base_oversize;
    }
    s.steals_by_victim.reserve(steals_from.size());
    for (const auto& c : steals_from) {
      s.steals_by_victim.push_back(c.load(std::memory_order_relaxed));
    }
    return s;
  }

  void reset_stats() {
    pushed_spawns.store(0, std::memory_order_relaxed);
    called_spawns.store(0, std::memory_order_relaxed);
    steals.store(0, std::memory_order_relaxed);
    steal_attempts.store(0, std::memory_order_relaxed);
    tasks_executed.store(0, std::memory_order_relaxed);
    max_frame_depth.store(0, std::memory_order_relaxed);
    peak_deque.store(0, std::memory_order_relaxed);
    peak_live_frames.store(0, std::memory_order_relaxed);
    backoff_naps.store(0, std::memory_order_relaxed);
    for (auto& b : steal_dist_hist) b.store(0, std::memory_order_relaxed);
    // Slab counters are monotone and shared with every scheduler whose
    // worker runs on the same thread, so "reset" means re-basing deltas.
    if (const auto* c = alloc_counters.load(std::memory_order_acquire)) {
      base_refills = c->magazine_refills.load(std::memory_order_relaxed);
      base_returns = c->magazine_returns.load(std::memory_order_relaxed);
      base_slabs = c->slabs_created.load(std::memory_order_relaxed);
      base_oversize = c->allocs[alloc::oversize_row].load(std::memory_order_relaxed);
    }
    for (auto& c : steals_from) c.store(0, std::memory_order_relaxed);
  }

  /// Publishes the owning thread's slab counter block (called from
  /// worker_main for pool workers, from run() for worker 0) and captures
  /// the baselines so the first snapshot doesn't charge this scheduler
  /// for allocator activity that predates it on the same thread.
  void attach_alloc_counters() {
    if (alloc_counters.load(std::memory_order_relaxed) != nullptr) return;
    const alloc::slab_thread_counters* c = alloc::slab_local_counters();
    base_refills = c->magazine_refills.load(std::memory_order_relaxed);
    base_returns = c->magazine_returns.load(std::memory_order_relaxed);
    base_slabs = c->slabs_created.load(std::memory_order_relaxed);
    base_oversize = c->allocs[alloc::oversize_row].load(std::memory_order_relaxed);
    alloc_counters.store(c, std::memory_order_release);
  }

  unsigned id;
  /// True when the scheduler has no other worker, so no thief can take a
  /// child: every frame updates a reducer's leftmost value in place
  /// (context::hyper_view). Immutable; a reducer access reads it from the
  /// worker it already holds, on a line nobody writes.
  const bool solo;
  /// Deque depth from which a spawn runs its child as a call: P − 1, one
  /// queued task for every other worker. Pushes happen only below it, so
  /// the deque never holds more than P − 1 tasks; on a one-worker
  /// scheduler it is 0, and every spawn runs as a call. Immutable, like
  /// solo.
  const std::int64_t call_depth;
  scheduler* sched;
  /// The join states of this worker's live frames (owner-only).
  join_stack joins;
  /// Slots of spawned children, each holding its task record; top_ and
  /// bottom_ are line-padded internally.
  chase_lev_deque<frame_slot*> deque;
  xoshiro256 rng;
  /// Single-writer stat block (every bump_counter target): 8 counters = 64
  /// bytes on exactly one line of their own, so the owner's spawn/sync-path
  /// stores never ping-pong a line shared with the thief-facing deque
  /// fields above or the install pointers below (cilk::memlens lints
  /// exactly this shape as a padding record when regions co-reside).
  /// Spawns whose child was pushed; a pushed child counts in
  /// tasks_executed when it runs.
  alignas(cache_line_size) std::atomic<std::uint64_t> pushed_spawns{0};
  /// Spawns whose child ran as a call: each is a spawn and an executed
  /// task, so snapshot_stats adds it to both, and the spawn stores once.
  std::atomic<std::uint64_t> called_spawns{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> steal_attempts{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> max_frame_depth{0};
  std::atomic<std::uint64_t> peak_deque{0};
  std::atomic<std::uint64_t> peak_live_frames{0};
  /// steals_from[v]: successful steals whose victim was worker v. Sized at
  /// construction and never resized (atomics are immovable). Starts the
  /// next line so the stat block above keeps its line exclusive.
  alignas(cache_line_size) std::vector<std::atomic<std::uint64_t>> steals_from;
  // --- Thief-side state: written only while this worker has no work of
  // its own, so none of it contends with the spawn path.
  /// Victim ids in near-first order (closest CPU / ring distance first);
  /// built once at scheduler construction, immutable afterwards.
  std::vector<std::uint32_t> probe_order;
  /// victim_bucket[v]: log2 distance bucket of victim v from this worker.
  std::vector<std::uint8_t> victim_bucket;
  /// The census under every task this worker starts: the frames live on its
  /// stack when it runs one, which is the census of the frame whose sync is
  /// helping (help_until_joined sets it and puts the old value back), and 0
  /// in worker_main. A frame carries its own census (context::live_), so a
  /// spawn or call that runs as a call never writes it. Zero for every
  /// worker once its threads have joined — the shutdown-balance oracle that
  /// ~scheduler checks.
  std::atomic<std::uint64_t> live_frames{0};
  std::atomic<std::uint64_t> backoff_naps{0};
  std::atomic<std::uint64_t> steal_dist_hist[steal_distance_buckets] = {};
  /// The owning thread's slab counter block (immortal; see src/alloc) and
  /// the baselines snapshots subtract. Null until the thread first enters
  /// worker_main / run().
  std::atomic<const alloc::slab_thread_counters*> alloc_counters{nullptr};
  std::uint64_t base_refills = 0;
  std::uint64_t base_returns = 0;
  std::uint64_t base_slabs = 0;
  std::uint64_t base_oversize = 0;
  // --- The hook pointers, on a line of their own: the install stores
  // (another thread) must not invalidate any line the owner writes on the
  // hot path. A spawn, spawn_leaf, sync, call or root frame loads both once
  // (observed) to pick its instantiation; the observed instantiation and the
  // thief paths load them again at each event site.
  /// Installed by scheduler::install_chaos; null when no chaos policy is
  /// active.
  alignas(cache_line_size) std::atomic<chaos_policy*> chaos{nullptr};
  /// Installed by trace::session via scheduler::install_trace; null when no
  /// trace is being captured. Only this worker pushes into the ring.
  std::atomic<trace::event_ring*> trace_ring{nullptr};
};

/// Bumps a single-writer statistics counter. Every worker counter is written
/// only by its owning worker (a reset requires quiescence), so a plain
/// load+store is race-free and avoids the lock-prefixed RMW a fetch_add would
/// put on the spawn/sync hot path.
inline void bump_counter(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// True when a trace session or a chaos policy is attached to w: the one
/// test a spawn, spawn_leaf, sync, call or root frame makes before it runs
/// its observed or its detached instantiation (see context). Both pointers
/// change only between runs, on every worker at once, so one answer holds
/// for everything the frame does and every task it pushes.
[[gnu::always_inline]] inline bool observed(const worker& w) {
  // Always inlined: inside a function that already inlines spawn, GCC's
  // growth limits would otherwise leave this a call. Both loads, then one
  // branch.
  const bool traced = w.trace_ring.load(std::memory_order_acquire) != nullptr;
  const bool chaotic = w.chaos.load(std::memory_order_acquire) != nullptr;
  return traced | chaotic;
}

/// Calls f() from a function of its own that is never inlined, so that an
/// observed instantiation stays out of the code of the detached path that
/// branches to it.
template <typename F>
[[gnu::noinline]] decltype(auto) out_of_line(F&& f) {
  return std::forward<F>(f)();
}

/// Records one trace event on w's ring, if a trace session is attached. The
/// observed instantiations call it at each event site (so a chaos policy
/// alone still costs one load here), as do the thief paths.
inline void trace_record(worker* w, trace::event_kind kind, std::uint64_t frame,
                         std::uint64_t aux64 = 0, std::uint32_t aux32 = 0,
                         std::uint16_t aux16 = 0) {
  if (trace::event_ring* ring = w->trace_ring.load(std::memory_order_acquire)) {
    ring->try_push(trace::event{now_ns(), frame, aux64, aux32, aux16, kind,
                                static_cast<std::uint16_t>(w->id)});
  }
}

/// Fires one chaos point on w, if a chaos policy is installed. Called by the
/// observed instantiations at each chaos point, and by the thief paths.
inline void chaos_perturb(worker* w, chaos_point p) {
  if (chaos_policy* c = w->chaos.load(std::memory_order_acquire)) {
    c->perturb(w->id, p);
  }
}

/// A Cilk function instance (a "full frame"): owns the children it spawned
/// and the reducer view segments of its strands. Created only by the
/// runtime (run/spawn/call); user code receives references.
class context {
 public:
  context(const context&) = delete;
  context& operator=(const context&) = delete;
  [[gnu::always_inline]] ~context();

  /// cilk_spawn: start fn(child_context&) as a child that may run in
  /// parallel with the rest of this function. The child runs on a copy of
  /// fn. When this worker's deque already holds P − 1 tasks — on a
  /// one-worker scheduler, always — the child runs at once, as a call
  /// would, and an exception it throws waits in a child slot until this
  /// frame's next sync (the work-first principle, Sec. 3).
  template <typename Fn>
  [[gnu::always_inline]] void spawn(Fn&& fn);

  /// Lowering hook for parallel_for's body(i) form: spawns a child strand
  /// that runs `body(i)` for i in [begin, end) WITHOUT constructing a full
  /// context — a body(i) leaf cannot spawn, sync, or touch reducers, so the
  /// frame's arena, view cache, and rank machinery would be dead weight on
  /// the hottest path the runtime has. The leaf still replicates every
  /// observable effect of a spawned frame: trace events (frame/sync
  /// brackets), the live-frame census, depth accounting, pedigree chaining,
  /// and exception delivery at the parent's sync. The leaf refers to `body`
  /// rather than copying it, so `body` must outlive this frame's next sync.
  /// The leaf runs at once when spawn's child would.
  /// Not part of the public model; user code spawns real frames.
  template <typename Index, typename Body>
  void spawn_leaf(Index begin, Index end, const Body& body);

  /// cilk_sync: wait for every child this function instance spawned.
  /// Rethrows the (serially earliest) child exception, if any. Inline while
  /// the frame holds no join state, which is every sync of a frame whose
  /// spawns all ran as calls and left nothing.
  [[gnu::always_inline]] void sync();

  /// A plain call of a Cilk function: callee gets its own frame so its
  /// syncs are local and it syncs implicitly before returning.
  template <typename Fn>
  auto call(Fn&& fn) -> decltype(fn(std::declval<context&>()));

  /// Engine-compatibility hook (the dag recorder charges work here;
  /// the real runtime measures wall time instead).
  void account(std::uint64_t) {}

  /// The strand's current view of hyperobject h (hyperobject library entry
  /// point). The reference is stable until this strand's next spawn/sync;
  /// re-fetch after either. On a one-worker scheduler every strand runs in
  /// serial order, so every frame updates h's serial view in place — a
  /// reducer's leftmost value (hyperobject_base::serial_view) — as the
  /// elision does. Otherwise the view is this strand's own, in this frame's
  /// current segment; the lookup is inline while the frame's cached segment
  /// holds it (open_view is the rest).
  view_base& hyper_view(hyperobject_base& h);

  /// Removes and returns this frame's folded view of h (null if h was never
  /// touched here). Precondition: no pending children (call sync() first).
  /// This is how a locally-scoped hyperobject retires its state before
  /// going out of scope; see reducer::collect.
  std::unique_ptr<view_base> extract_view(hyperobject_base& h);

  scheduler& sched() const { return *home_->sched; }
  /// Worker count of this frame's scheduler (parallel_for's default grain).
  unsigned num_workers() const;
  /// Worker executing this frame (stable: child stealing never migrates a
  /// frame off the worker that started it).
  unsigned worker_id() const { return home_->id; }
  /// Spawn depth of this frame: 0 for the root.
  std::uint64_t depth() const { return depth_; }

  /// Pedigree-based strand identifier: a 64-bit value that identifies the
  /// currently executing strand *independent of scheduling* — the same
  /// strand gets the same id on every run and any worker count (the
  /// mechanism behind deterministic parallel RNG in Cilk-family systems).
  /// Computed as a hash chain over (parent pedigree, spawn rank), advanced
  /// at every spawn, call, and sync. Equals ped::hash(pedigree()).
  std::uint64_t strand_id() const;

  /// One deterministic pseudo-random draw for the current strand: the k-th
  /// draw of a given strand is identical across runs and worker counts.
  std::uint64_t dprng_draw();

  /// Materializes the current strand's full rank list by walking the live
  /// parent chain collecting birth ranks — O(depth), off the hot path (the
  /// chain's links and birth ranks are immutable after construction, and a
  /// parent outlives its children, so the walk is safe from any strand).
  ped::pedigree pedigree() const;

 private:
  friend class scheduler;

  // --- Two instantiations of one source. spawn, spawn_leaf, sync and call,
  // and the root frame in scheduler::run, test the worker's hook pointers
  // once (observed) and run the members below that take `bool Observed`:
  // the detached instantiation (false) inline, without one hook load, and
  // the observed one (true) out of line (out_of_line), firing every trace
  // event and chaos point at the sites marked `if constexpr (Observed)`, in
  // the order the frame reaches them. A pushed spawn builds its record the
  // same way in both and branches only for the count and the push
  // (spawn_record_in_slot). The choice carries over to everything the entry
  // point starts: the child frame of a spawn that runs as a call, the end
  // of a called or root frame, and a pushed child, whose run_fn is
  // run_spawned<Observed, Record> or run_leaf<Observed, Body, Index>, so
  // executing it needs no second test. Hooks are attached and detached only
  // while no run is in flight (DESIGN.md §4.12).

  /// A frame of kind k starting on `home` with `live` frames on that
  /// worker's stack, itself included; the observed instantiation records
  /// its frame_begin.
  template <bool Observed>
  [[gnu::always_inline]] context(std::bool_constant<Observed>, worker* home,
                                 context* parent, frame_slot* parent_slot,
                                 trace::frame_kind k, std::uint64_t ped_hash,
                                 std::uint64_t birth_rank, std::uint64_t live);

  /// Deterministic pedigree chaining: the child born at rank r of a frame
  /// with prefix h gets prefix ped_mix(h, r). Trace uses the hash chain as
  /// the frame identity.
  static std::uint64_t ped_mix(std::uint64_t h, std::uint64_t r) {
    return ped::mix(h, r);
  }

  template <bool Observed>
  [[gnu::always_inline]] void sync_impl();
  /// The detached sync of a frame that holds join state: the wait, the fold
  /// and the rethrow.
  void sync_joins();
  template <bool Observed, typename Fn>
  [[gnu::always_inline]] auto call_impl(Fn& fn)
      -> decltype(fn(std::declval<context&>()));

  /// Counts one spawn in this frame: the trace's spawn event, the new
  /// strand of the continuation, and `counter`, the worker's count of
  /// pushed spawns or of spawns that ran as calls.
  template <bool Observed>
  void count_spawn(std::uint64_t child_ped, std::atomic<std::uint64_t>& counter) {
    if constexpr (Observed) {
      trace_record(home_, trace::event_kind::spawn, ped_hash_, child_ped,
                   static_cast<std::uint32_t>(rank_));
    }
    bump_rank();  // the continuation after this spawn is a new strand
    bump_counter(counter);
  }

  /// The pushed spawn path shared by spawn and spawn_leaf: builds a Record
  /// in a fresh child slot, counts the child only once its record exists,
  /// and pushes the slot. If the record's construction throws, the slot is
  /// left pristine and uncounted and the exception propagates. The record
  /// is built the same way in both instantiations, with the run_fn of the
  /// one the hook test picks; only the count and the push differ
  /// (push_child). So neither instantiation takes the arguments' addresses,
  /// and a closure's captures go straight into the slot.
  template <typename Record, typename... Args>
  [[gnu::always_inline]] void spawn_record_in_slot(task::run_fn detached_run,
                                                   task::run_fn observed_run,
                                                   Args&&... args);
  /// Counts a child whose record is in `slot` and pushes the slot.
  template <bool Observed>
  void push_child(frame_slot* slot, std::uint64_t child_ped);

  /// True when a spawn runs its child as a call: this worker's deque
  /// already holds P − 1 tasks — on a one-worker scheduler, always, since
  /// P − 1 is 0. Owner-only; a stale top index only overstates the depth,
  /// so a push never takes the deque past P − 1.
  bool deque_full() const {
    return home_->deque.size_estimate() >= home_->call_depth;
  }

  /// The spawn path of a child that runs as a call: runs `closure` at once
  /// as a spawned child frame, counted and traced as a spawn and as an
  /// executed task, and keeps what it delivers for this frame's next sync.
  /// Inline at every spawn site: a child that built no join state and threw
  /// nothing, of a frame that holds none, ends without a call.
  template <bool Observed, typename Fn>
  [[gnu::always_inline]] void spawn_as_call(Fn& closure);
  /// spawn_as_call's epilogue for every other child (and every observed
  /// one): the child's implicit sync and end, then what this frame keeps.
  template <bool Observed>
  void finish_spawn_as_call(context& child, std::exception_ptr&& body_exception);
  /// spawn_leaf's path of a leaf that runs as a call.
  template <bool Observed, typename Index, typename Body>
  void spawn_leaf_as_call(Index begin, Index end, const Body& body);

  /// task::run_fn of a spawned frame's record (spawn_record, boxed_record).
  template <bool Observed, typename Record>
  static void run_spawned(frame_slot& slot, worker& w);

  /// task::run_fn of a spawn_leaf record.
  template <bool Observed, typename Body, typename Index>
  static void run_leaf(frame_slot& slot, worker& w);

  /// A spawned leaf frame of this frame, run on w without a context: the
  /// census (`live`) and depth of a spawned frame, frame_begin, body(i) for
  /// i in [begin, end), and the implicit-sync bracket. Returns the body's
  /// exception; the caller ends the frame (frame_end).
  template <bool Observed, typename Body, typename Index>
  std::exception_ptr run_leaf_body(worker& w, std::uint64_t ped,
                                   std::uint64_t live, const Body& body,
                                   Index begin, Index end) const noexcept;

  /// The high-water marks of a frame starting on w at the given depth with
  /// `live` frames on w's stack, itself included. Runs on w's thread, so the
  /// counters are single-writer; nothing is written unless a mark rises.
  [[gnu::always_inline]] static void enter_frame(worker& w, std::uint64_t depth,
                                                std::uint64_t live) noexcept;

  /// Keeps the views and exception of a child that ran as a call in a
  /// child slot appended where a pushed child's slot would be: the next
  /// sync folds it in serial order, so the serially earliest exception
  /// wins, and the continuation opens a fresh segment, as after a pushed
  /// spawn. The slot is not counted: the child has already joined. A child
  /// that left nothing seals the strand instead.
  void keep_inline_child(view_map views, std::exception_ptr ex) {
    if (views.empty() && !ex) {
      seal_strand();
      return;
    }
    join_state& js = build_joins();
    frame_slot* s = js.arena.append(/*is_child=*/true);
    s->views() = std::move(views);
    s->exception() = std::move(ex);
    js.child_delivered.store(true, std::memory_order_relaxed);
  }

  /// Ends the current strand's segment after a child that ran as a call
  /// and left nothing, where a pushed child's slot would have ended it: if
  /// the arena tail is an open segment, appends a pristine, uncounted child
  /// slot (it folds as the identity), so the continuation opens a fresh
  /// segment and the fold associates as it does after a pushed spawn —
  /// whether or not the child was pushed. On a one-worker scheduler a
  /// segment holds only holder views, whose next strand must start from
  /// the prototype.
  void seal_strand() {
    if (joins_ == nullptr) return;
    frame_slot* tail = joins_->arena.last();
    if (tail != nullptr && !tail->is_child) joins_->arena.append(/*is_child=*/true);
  }

  /// The frame's join state, taken from its worker's join_stack on first
  /// use (owner-only). Only the frame's own strand calls it, once every
  /// frame that strand started has given its join state back.
  join_state& build_joins() {
    if (joins_ == nullptr) take_joins();
    return *joins_;
  }
  /// build_joins' first use: pushes the frame's join state on its worker's
  /// join_stack. Out of line, so that the pushed spawn inlined at every
  /// spawn site carries only the test.
  void take_joins();

  /// Gives the frame's join state back to its worker, if it holds one: at
  /// its end, and before a called frame's parent may build its own
  /// (end_called, finish_spawn_as_call).
  /// Every child has joined and the arena holds nothing left to fold.
  void release_joins() noexcept;

  /// True once every child this frame spawned has joined. Only the owner
  /// calls it; the acquire pairs with stolen children's release increments.
  /// A frame that never pushed a spawn has not built its join state.
  bool all_joined() const {
    return joins_ == nullptr ||
           joins_->joined_local +
                   joins_->joined_stolen.load(std::memory_order_acquire) ==
               joins_->spawned;
  }

  /// Counts the join of one child that ran on worker w: a plain increment
  /// when w is this frame's own worker (whose thread is the one executing
  /// this frame), a release increment otherwise. The child's last act on
  /// this frame, whose join state its spawn built.
  void join_child(const worker& w) noexcept {
    if (&w == home_) {
      ++joins_->joined_local;
    } else {
      joins_->joined_stolen.fetch_add(1, std::memory_order_release);
    }
  }

  /// Helps until all spawned children have joined (never throws).
  template <bool Observed>
  void wait_children() noexcept;
  /// wait_children's loop, entered only when a child is still outstanding.
  void help_until_joined() noexcept;

  /// Folds all slots left-to-right into one segment; returns the serially
  /// earliest child exception (or null).
  std::exception_ptr fold_slots();
  /// fold_slots' walk, for a fold that is not the identity.
  std::exception_ptr fold_delivered();

  /// A sync at the frame's current rank: sync_begin, the wait for every
  /// child, the fold and sync_end. Returns the serially earliest child
  /// exception.
  template <bool Observed>
  std::exception_ptr sync_bracket(bool implicit);

  /// Marks the frame finished and records its frame_end. Every frame ends
  /// here, in its epilogue, rather than in ~context: a pushed child's
  /// frame_end must precede its join (finish_spawned).
  template <bool Observed>
  void end_frame() noexcept {
    finished_ = true;
    if constexpr (Observed) {
      trace_record(home_, trace::event_kind::frame_end, ped_hash_);
    }
  }

  /// The implicit sync of a frame with a context, at its current rank:
  /// one implicit sync bracket, the wait and the fold. Returns the exception
  /// the parent must see — the body's, else the serially earliest child
  /// exception. A spawned child's closure is still alive here: this
  /// frame's own children may refer to it until they joined.
  template <bool Observed>
  std::exception_ptr sync_spawned(std::exception_ptr body_exception) noexcept;

  /// Spawned-child epilogue, second half, once the record is destroyed and
  /// the slot's result fields rebuilt: delivers views and exception into
  /// the parent slot, ends the frame and signals the join.
  template <bool Observed>
  void finish_spawned(std::exception_ptr deliver) noexcept;

  /// Runs fn as the body of this root or called frame and ends the frame:
  /// the lean exit inline (finish_called), every other end, and every end
  /// of a body that threw, through end_called.
  template <bool Observed, typename Fn>
  [[gnu::always_inline]] auto run_called(Fn& fn)
      -> decltype(fn(std::declval<context&>()));

  /// The end of a root or called frame whose body returned. Inline while
  /// the frame holds no join state: it then has nothing to wait for or
  /// fold.
  template <bool Observed>
  [[gnu::always_inline]] void finish_called();

  /// The one out-of-line end of a root or called frame — the root is a
  /// called frame without a parent — for every end finish_called's lean
  /// exit does not take. In order: the implicit sync a spawned frame runs
  /// (sync_spawned), release_joins and end_frame, the final views sent on
  /// (folded into the parent's current segment, or at the root each
  /// absorbed into its hyperobject, even after another's reduce threw),
  /// and the rethrow of the first exception: the body's, else the serially
  /// earliest child's, else a reduce's.
  template <bool Observed>
  void end_called(std::exception_ptr body_exception);

  /// Moves this frame's single folded segment out (after fold_slots()).
  view_map take_final_views();

  /// Owner-only: the views of this frame's current strand segment, opened
  /// at the arena tail unless the tail already is one.
  view_map& current_segment();

  /// hyper_view's miss path: caches the current segment and finds h's view
  /// there, creating it from h's identity if the strand has none yet.
  view_base& open_view(hyperobject_base& h);

  /// Advances the pedigree rank (called at spawn and sync so the strands a
  /// frame executes before/after each parallel-control event are distinct).
  /// Also drops the strand's cached segment: the next reducer access must
  /// open a fresh one.
  void bump_rank() {
    ++rank_;
    draws_ = 0;
    segment_ = nullptr;
  }

  // --- Owner-only fields: written exclusively by the strand executing
  // this frame. No lock anywhere on the spawn/join path — see DESIGN.md §4
  // ("lock-free join") for the ownership and fence argument. Twelve words:
  // everything a frame needs whose spawns all ran as calls; the rest is in
  // its join state, which only a frame that pushes, opens a segment or
  // keeps a delivery takes.
  worker* home_;
  context* parent_;
  frame_slot* parent_slot_;
  std::uint64_t depth_;
  // Frames live on home_'s stack while this one runs, itself included: the
  // census of the live-frame high-water mark. A called child's is one more
  // than its parent's; a task's is one more than its worker's live_frames.
  std::uint64_t live_;
  std::uint64_t ped_hash_;  // hash of this frame's pedigree prefix
  std::uint64_t birth_rank_;  // parent's rank when this frame was born
  std::uint64_t rank_ = 0;  // spawn/sync rank within this frame
  std::uint64_t draws_ = 0;       // dprng draws on the current strand
  // Null until the frame's first push, segment or kept delivery
  // (build_joins); given back at its end (release_joins).
  join_state* joins_ = nullptr;
  // Strand-local segment cache: null, or this frame's tail segment — the
  // current strand's views, which every access of the strand scans inline
  // (hyper_view), however many hyperobjects it touches. Safe because a
  // segment's address is stable until the arena's next clear(), which only
  // a fold or the frame's end performs, and the running strand performs
  // both; no other frame touches this frame's segments. Cleared when the
  // tail stops being the strand's segment: at every spawn, call and sync
  // (bump_rank), at a spawn whose closure copy threw, and by a fold
  // (fold_delivered). extract_view leaves it: the extracted view is only
  // gone from the segment.
  view_map* segment_ = nullptr;
  bool finished_ = false;
};

// The join state left the frame for the worker's join_stack, so the frame a
// spawn that runs as a call builds on the spawning function's stack is
// twelve plain words, with no over-aligned member to realign the stack for.
static_assert(sizeof(context) <= 96, "context grew");
static_assert(alignof(context) <= alignof(std::max_align_t),
              "context needs no stack realignment");

/// Construction-time configuration for a scheduler instance. A process may
/// own many independent schedulers (src/serve's runtime_set builds on this):
/// each gets its own worker pool, deques, and statistics, and a thief only
/// ever probes deques of its own instance — cross-instance stealing is
/// impossible by construction, which is what makes instances *tenants*.
struct scheduler_options {
  /// 0 = one worker per hardware thread, unless `affinity` is non-empty, in
  /// which case 0 = one worker per listed CPU.
  unsigned workers = 0;
  /// CPU ids this instance's workers are pinned to (worker i gets
  /// affinity[i mod affinity.size()], so a mask smaller than the worker
  /// count round-robins). Pool threads pin themselves at startup via
  /// pthread_setaffinity_np; off Linux the list is recorded but pinning is
  /// a no-op. Worker 0 is the thread that calls run() — the runtime never
  /// re-pins a caller's thread behind its back; call pin_caller() from a
  /// thread you dedicate to this instance (job_server's dispatchers do).
  std::vector<unsigned> affinity;
  /// Instance label for stats, benches, and failure reports.
  std::string name;
};

/// The work-stealing scheduler. Owns P workers; P-1 pool threads plus the
/// thread that calls run(). Safe to construct/destroy repeatedly; run() may
/// be called many times, from one thread at a time.
class scheduler {
 public:
  /// workers == 0 means one per hardware thread.
  explicit scheduler(unsigned workers = 0)
      : scheduler(scheduler_options{workers, {}, {}}) {}
  explicit scheduler(scheduler_options options);
  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  /// Executes fn(root_context&) to completion on this scheduler and returns
  /// its result. Hyperobject updates are folded into their hyperobjects
  /// before run() returns. Rethrows fn's (or a child's) exception.
  template <typename Fn>
  auto run(Fn&& fn) -> decltype(fn(std::declval<context&>()));

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  const scheduler_options& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  /// Pins the *calling* thread to this instance's worker-0 CPU (the first
  /// entry of the affinity mask). run() executes worker 0 on the caller's
  /// thread, so a thread dedicated to this instance calls this once to
  /// complete the pinning the pool threads already did for workers 1..P-1.
  /// Returns false (and changes nothing) when no mask is configured or the
  /// platform cannot pin (non-Linux, restricted container).
  bool pin_caller() const;

  /// How many pool threads successfully pinned themselves at startup
  /// (0 when no affinity mask was given; at most num_workers()-1).
  unsigned affinity_applied() const {
    return affinity_applied_.load(std::memory_order_acquire);
  }

  /// Binds the calling thread to exactly the given CPU set. Returns false
  /// if the set is empty or the platform refuses (non-Linux builds always
  /// return false; callers must treat pinning as best-effort).
  static bool set_thread_affinity(const std::vector<unsigned>& cpus);

  /// Aggregate statistics since construction / last reset.
  ///
  /// stats() and per_worker_stats() may be called from any thread, also
  /// while a run() is in flight. Every counter is a relaxed atomic with one
  /// writer, so a mid-run snapshot reads each counter at some recent value,
  /// and no counter goes down from one snapshot to the next taken by the
  /// same thread. Invariants that relate two counters hold only once the run
  /// is quiescent (run() has returned): spawns == tasks_executed (a child is
  /// counted at its spawn and again when it runs) and steals ==
  /// Σ steals_by_victim (a thief bumps one, then the other).
  ///
  /// reset_stats() asserts that no run is in flight: a reset racing a
  /// worker's updates would tear those invariants. It must not overlap a
  /// snapshot either, since it rebases the allocator baselines.
  worker_stats stats() const;
  std::vector<worker_stats> per_worker_stats() const;
  void reset_stats();

  /// Trace hooks (src/trace): installs one event ring per worker (rings
  /// must outlive the capture; rings.size() == num_workers()). May only be
  /// called while no run() is in flight, so a run sees the same rings from
  /// its first spawn to its end. Use trace::session rather than calling
  /// these directly.
  void install_trace(const std::vector<trace::event_ring*>& rings);
  void remove_trace();

  /// Chaos hooks (src/stress): installs a schedule-perturbation policy on
  /// every worker / removes it. May only be called while no run() is in
  /// flight. The policy must stay valid until the scheduler is destroyed
  /// or a later run() completes: remove_chaos only stops *new* decisions —
  /// an idle worker that loaded the pointer in a steal attempt during the
  /// previous run's tail may still be completing one last perturbation call.
  /// A trace session and a chaos policy may be attached together; each
  /// fires exactly what it fires alone.
  void install_chaos(chaos_policy* policy);
  void remove_chaos();

 private:
  friend class context;

  void worker_main(unsigned id);
  /// Fills every worker's near-first probe order and distance buckets from
  /// the affinity masks (CPU distance) or worker ids (ring distance).
  void build_probe_orders();
  /// Pops own bottom or steals once; executes what it finds.
  /// Returns false if no work was found anywhere.
  bool help_one(worker& w);
  bool steal_and_execute(worker& w);
  /// Runs the child whose record `child` holds, on w.
  void execute(worker& w, frame_slot* child);
  /// Owner-only: pushes a spawned child's slot on w's deque.
  template <bool Observed>
  void push(worker& w, frame_slot* child);
  /// run()'s root frame, in the spawning frames' two instantiations.
  template <bool Observed, typename Fn>
  auto run_root(Fn& fn) -> decltype(fn(std::declval<context&>()));
  /// Wakes one parked worker (push's slow path).
  void wake_one();
  /// Racy probe: true if any worker's deque looks non-empty. Used by the
  /// idle-parking recheck; exactness is provided by the protocol's fences,
  /// not by this estimate.
  bool any_work() const;

  static worker* current_worker();
  static void set_current_worker(worker* w);

  scheduler_options options_;
  std::vector<std::unique_ptr<worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> run_active_{false};
  std::atomic<unsigned> affinity_applied_{0};

  // Idle parking: workers nap when the whole system looks empty, under the
  // register→recheck→wait protocol (see worker_main): a worker increments
  // idlers_ BEFORE its final probe, and a pusher that sees idlers_ > 0
  // bumps wake_epoch_ under idle_mu_ and notifies — so a push can never
  // fall between a worker's last probe and its wait without either the
  // probe seeing the task or the waiter seeing the epoch move.
  std::atomic<std::uint32_t> idlers_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::uint64_t wake_epoch_ = 0;  // guarded by idle_mu_
};

// ---------------------------------------------------------------------------
// Template and inline implementations. Everything a spawn, a sync and a
// child's run execute is defined here, so the whole spawn path of a frame
// compiles into the code that spawns.

/// The record of a spawned frame whose closure fits in its slot
/// (fits_in_slot): the closure is stored in the record itself.
template <typename Fn>
struct spawn_record final : task {
  template <typename F>
  spawn_record(const task& header, F&& f)
      : task(header), fn(std::forward<F>(f)) {}

  Fn& closure() { return fn; }

  Fn fn;
};

/// True when spawning a closure of type Fn builds its record in the child's
/// slot; otherwise the spawn boxes the closure in one slab block.
template <typename Fn>
inline constexpr bool spawns_in_slot =
    fits_in_slot<spawn_record<std::decay_t<Fn>>>;

/// The record of a spawned frame whose closure is too large or too aligned
/// for its slot: the closure lives in one slab block, which the record frees
/// when it is destroyed — before the child signals its join, so the block
/// is back in a magazine the moment the enclosing sync passes.
template <typename Fn>
struct boxed_record final : task {
  static_assert(alignof(Fn) <= alloc::block_align,
                "slab blocks are aligned to a cache line");

  template <typename F>
  boxed_record(const task& header, F&& f)
      : task(header), fn(box(std::forward<F>(f))) {}
  ~boxed_record() {
    fn->~Fn();
    alloc::slab_deallocate_aligned(fn, sizeof(Fn), alignof(Fn));
  }
  boxed_record(const boxed_record&) = delete;
  boxed_record& operator=(const boxed_record&) = delete;

  Fn& closure() { return *fn; }

  template <typename F>
  static Fn* box(F&& f) {
    void* mem = alloc::slab_allocate_aligned(sizeof(Fn), alignof(Fn));
    try {
      return ::new (mem) Fn(std::forward<F>(f));
    } catch (...) {
      alloc::slab_deallocate_aligned(mem, sizeof(Fn), alignof(Fn));
      throw;
    }
  }

  Fn* fn;
};

/// The record of a spawned body(i) range (context::spawn_leaf): the loop
/// body by address and the range, run by context::run_leaf without a
/// context.
template <typename Body, typename Index>
struct leaf_record final : task {
  leaf_record(const task& header, const Body* b, Index lo, Index hi)
      : task(header), body(b), begin(lo), end(hi) {}

  const Body* body;
  Index begin;
  Index end;
};

template <typename Record, typename... Args>
inline void context::spawn_record_in_slot(task::run_fn detached_run,
                                          task::run_fn observed_run,
                                          Args&&... args) {
  CILKPP_ASSERT(!finished_, "spawn on a finished frame");
  const bool hooked = observed(*home_);
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  // Entirely lock-free, and allocation-free unless the record boxes its
  // closure: an owner-only arena append, the record built in the slot,
  // plain counter bumps, and a Chase–Lev bottom push.
  frame_slot* slot = build_joins().arena.append(/*is_child=*/true);
  slot->close_result();
  try {
    ::new (static_cast<void*>(slot->bytes))
        Record(task(hooked ? observed_run : detached_run, this, child_ped, rank_),
               std::forward<Args>(args)...);
  } catch (...) {
    // The closure's copy threw, so the child never existed: its slot goes
    // back to pristine and stays uncounted (it folds as the identity), and
    // the frame's sync or unwinding epilogue has nothing to wait for. It
    // ends the strand's segment as a child's slot would.
    slot->open_result();
    segment_ = nullptr;
    throw;
  }
  if (hooked) [[unlikely]] {
    out_of_line([this, slot, child_ped] { push_child<true>(slot, child_ped); });
  } else {
    push_child<false>(slot, child_ped);
  }
}

template <bool Observed>
void context::push_child(frame_slot* slot, std::uint64_t child_ped) {
  count_spawn<Observed>(child_ped, home_->pushed_spawns);
  ++joins_->spawned;
  home_->sched->push<Observed>(*home_, slot);
}

// spawn is always inlined into the spawning function, and no branch of it
// takes fn's address: the copy below and a pushed record are then built
// straight from the captures of a closure passed as a temporary. Stored by
// the caller and read back through a reference by a wider copy, the
// closure stalled store-to-load forwarding on every spawn, which cost fib
// about a tenth of its time at P = 1 (EXPERIMENTS E19).
template <typename Fn>
inline void context::spawn(Fn&& fn) {
  using closure = std::decay_t<Fn>;
  if (deque_full()) {
    // The child runs on a copy of fn, as a pushed spawn's record holds
    // one: a throwing copy throws from here, before the child is counted.
    // The copy is made before the hook test, so only the copy's address
    // reaches the observed instantiation.
    closure copy(std::forward<Fn>(fn));
    if (observed(*home_)) [[unlikely]] {
      out_of_line([&] { spawn_as_call<true>(copy); });
    } else {
      spawn_as_call<false>(copy);
    }
    return;
  }
  using record = std::conditional_t<spawns_in_slot<closure>,
                                    spawn_record<closure>, boxed_record<closure>>;
  spawn_record_in_slot<record>(&run_spawned<false, record>,
                               &run_spawned<true, record>, std::forward<Fn>(fn));
}

template <bool Observed, typename Fn>
inline void context::spawn_as_call(Fn& closure) {
  CILKPP_ASSERT(!finished_, "spawn on a finished frame");
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  const std::uint64_t child_birth = rank_;
  count_spawn<Observed>(child_ped, home_->called_spawns);
  // The child is a spawned frame in every observable way — pedigree, depth,
  // census, trace — but it needs no slot unless it delivers something: it
  // joins before the continuation starts, and on a one-worker scheduler it
  // updates a reducer's leftmost value in place.
  context child(std::bool_constant<Observed>{}, home_, this,
                /*parent_slot=*/nullptr, trace::frame_kind::spawned, child_ped,
                child_birth, live_ + 1);
  std::exception_ptr body_exception;
  try {
    closure(child);
  } catch (...) {
    body_exception = std::current_exception();
  }
  if constexpr (!Observed) {
    // The lean end: with no join state the child has nothing to wait for,
    // fold or deliver, and with none here there is no segment to seal.
    if (child.joins_ == nullptr && joins_ == nullptr && !body_exception)
        [[likely]] {
      child.finished_ = true;
      return;
    }
  }
  finish_spawn_as_call<Observed>(child, std::move(body_exception));
}

template <typename Index, typename Body>
void context::spawn_leaf(Index begin, Index end, const Body& body) {
  if (deque_full()) {
    if (observed(*home_)) [[unlikely]] {
      out_of_line([this, begin, end, &body] {
        spawn_leaf_as_call<true>(begin, end, body);
      });
    } else {
      spawn_leaf_as_call<false>(begin, end, body);
    }
    return;
  }
  using record = leaf_record<Body, Index>;
  static_assert(fits_in_slot<record>, "a spawn_leaf record fits in its slot");
  spawn_record_in_slot<record>(&run_leaf<false, Body, Index>,
                               &run_leaf<true, Body, Index>, &body, begin, end);
}

template <bool Observed, typename Index, typename Body>
void context::spawn_leaf_as_call(Index begin, Index end, const Body& body) {
  CILKPP_ASSERT(!finished_, "spawn on a finished frame");
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  count_spawn<Observed>(child_ped, home_->called_spawns);
  std::exception_ptr ex =
      run_leaf_body<Observed>(*home_, child_ped, live_ + 1, body, begin, end);
  if constexpr (Observed) {
    trace_record(home_, trace::event_kind::frame_end, child_ped);
  }
  if (ex) {
    keep_inline_child({}, std::move(ex));
  } else {
    seal_strand();
  }
}

template <bool Observed, typename Record>
void context::run_spawned(frame_slot& slot, worker& w) {
  if constexpr (Observed) chaos_perturb(&w, chaos_point::task_run);
  Record& rec = slot.record<Record>();
  context* parent = rec.parent_frame;
  context child(std::bool_constant<Observed>{}, &w, parent, &slot,
                trace::frame_kind::spawned, rec.child_ped_hash,
                rec.child_birth_rank,
                w.live_frames.load(std::memory_order_relaxed) + 1);
  std::exception_ptr body_exception;
  try {
    rec.closure()(child);
  } catch (...) {
    body_exception = std::current_exception();
  }
  std::exception_ptr deliver =
      child.sync_spawned<Observed>(std::move(body_exception));
  // The closure outlived the implicit sync, as a function's arguments do;
  // now its bytes become the slot's result fields again.
  std::destroy_at(&rec);
  slot.open_result();
  child.finish_spawned<Observed>(std::move(deliver));
}

template <bool Observed, typename Body, typename Index>
std::exception_ptr context::run_leaf_body(worker& w, std::uint64_t ped,
                                          std::uint64_t live, const Body& body,
                                          Index begin,
                                          Index end) const noexcept {
  const std::uint64_t depth = depth_ + 1;
  enter_frame(w, depth, live);
  if constexpr (Observed) {
    trace_record(&w, trace::event_kind::frame_begin, ped, ped_hash_,
                 static_cast<std::uint32_t>(depth),
                 static_cast<std::uint16_t>(trace::frame_kind::spawned));
  }
  std::exception_ptr body_exception;
  try {
    for (Index i = begin; i < end; ++i) body(i);
  } catch (...) {
    body_exception = std::current_exception();
  }
  // Implicit sync of a frame with no children: rank stays 0, nothing to
  // wait for, nothing to fold.
  if constexpr (Observed) {
    trace_record(&w, trace::event_kind::sync_begin, ped, 0, 0, 1);
    trace_record(&w, trace::event_kind::sync_end, ped, 0, 0, 1);
  }
  return body_exception;
}

/// A hand-inlined specialization of run_spawned for a frame that is known
/// to spawn nothing, sync nothing, and touch no reducer: it performs the
/// same bookkeeping in the same order — depth and live-frame census,
/// frame_begin, body, the implicit-sync bracket (run_leaf_body), exception
/// delivery into the slot once the record is gone, and frame_end BEFORE the
/// join that lets the parent's sync pass (the trace-teardown ordering
/// finish_spawned documents) — without materializing a context.
template <bool Observed, typename Body, typename Index>
void context::run_leaf(frame_slot& slot, worker& w) {
  static_assert(std::is_trivially_destructible_v<leaf_record<Body, Index>>);
  if constexpr (Observed) chaos_perturb(&w, chaos_point::task_run);
  const leaf_record<Body, Index>& rec = slot.record<leaf_record<Body, Index>>();
  context* parent = rec.parent_frame;
  const std::uint64_t ped = rec.child_ped_hash;
  // The body lives outside the slot; the range is copied before the
  // record's bytes are reused.
  std::exception_ptr body_exception = parent->run_leaf_body<Observed>(
      w, ped, w.live_frames.load(std::memory_order_relaxed) + 1, *rec.body,
      rec.begin, rec.end);
  // The record is trivially destructible: rebuilding the result fields
  // over it is all its destruction takes.
  slot.open_result();
  if (body_exception) {
    CILKPP_ASSERT(slot.is_child, "spawn slot mismatch");
    slot.exception() = std::move(body_exception);
    parent->joins_->child_delivered.store(true, std::memory_order_relaxed);
  }
  if constexpr (Observed) trace_record(&w, trace::event_kind::frame_end, ped);
  parent->join_child(w);
}

inline unsigned context::num_workers() const { return home_->sched->num_workers(); }

inline view_base& context::hyper_view(hyperobject_base& h) {
  // One worker: strands run in serial order, so a reducer's leftmost value
  // is every strand's view (a holder has none and keeps its segments).
  if (home_->solo && h.serial_view != nullptr) return *h.serial_view;
  if (segment_ != nullptr) {
    if (view_base* v = segment_->find(&h)) return *v;
  }
  return open_view(h);
}

inline void context::enter_frame(worker& w, std::uint64_t depth,
                                 std::uint64_t live) noexcept {
  // Single writer (this worker); relaxed load-max-store is race-free.
  if (depth > w.max_frame_depth.load(std::memory_order_relaxed)) {
    w.max_frame_depth.store(depth, std::memory_order_relaxed);
  }
  // Live-frame census: this worker's call depth including nested helping;
  // its peak bounds the deque depth in the stress oracle's busy-leaves
  // check.
  if (live > w.peak_live_frames.load(std::memory_order_relaxed)) {
    w.peak_live_frames.store(live, std::memory_order_relaxed);
  }
}

template <bool Observed>
inline context::context(std::bool_constant<Observed>, worker* home,
                        context* parent, frame_slot* parent_slot,
                        trace::frame_kind k, std::uint64_t ped_hash,
                        std::uint64_t birth_rank, std::uint64_t live)
    : home_(home),
      parent_(parent),
      parent_slot_(parent_slot),
      depth_(parent == nullptr ? 0 : parent->depth_ + 1),
      live_(live),
      ped_hash_(ped_hash),
      birth_rank_(birth_rank) {
  // ctor and dtor both run on the home worker.
  enter_frame(*home_, depth_, live_);
  if constexpr (Observed) {
    trace_record(home_, trace::event_kind::frame_begin, ped_hash_,
                 parent_ == nullptr ? 0 : parent_->ped_hash_,
                 static_cast<std::uint32_t>(depth_),
                 static_cast<std::uint16_t>(k));
  } else {
    (void)k;
  }
}

inline context::~context() {
  CILKPP_ASSERT(finished_, "context destroyed before its epilogue ran");
  // The destructor runs on the home worker for every frame kind (child
  // stealing never migrates a frame). The frame's epilogue recorded its
  // frame_end (end_frame), so begin/end pairs nest per worker.
  if (joins_ != nullptr) [[unlikely]] release_joins();
}

template <bool Observed>
inline std::exception_ptr context::sync_bracket(bool implicit) {
  if constexpr (Observed) {
    trace_record(home_, trace::event_kind::sync_begin, ped_hash_, 0,
                 static_cast<std::uint32_t>(rank_), implicit ? 1 : 0);
  }
  wait_children<Observed>();
  std::exception_ptr child_exception = fold_slots();
  if constexpr (Observed) {
    trace_record(home_, trace::event_kind::sync_end, ped_hash_, 0,
                 static_cast<std::uint32_t>(rank_), implicit ? 1 : 0);
  }
  return child_exception;
}

template <bool Observed>
inline std::exception_ptr context::sync_spawned(
    std::exception_ptr body_exception) noexcept {
  // The implicit sync before a Cilk function returns.
  std::exception_ptr child_exception = sync_bracket<Observed>(/*implicit=*/true);
  // The body's exception unwound past the implicit sync, so in serial
  // execution it is what the parent would see; fall back to the serially
  // earliest child exception otherwise.
  return body_exception ? body_exception : child_exception;
}

inline view_map context::take_final_views() {
  if (joins_ == nullptr || joins_->arena.empty()) return {};
  slot_arena& arena = joins_->arena;
  CILKPP_ASSERT(arena.size() == 1 && !arena.last()->is_child,
                "take_final_views requires folded slots");
  view_map result = std::move(arena.last()->views());
  arena.clear();
  return result;
}

template <bool Observed>
inline void context::finish_spawned(std::exception_ptr deliver) noexcept {
  view_map final_views = take_final_views();

  // Lock-free delivery: this child owns its parent-arena slot exclusively
  // (one child per slot; the parent only appends elsewhere, never moves
  // slots) until its join below publishes the writes to the parent's
  // post-sync fold. The caller already rebuilt the slot's result fields
  // over the destroyed record.
  frame_slot* s = parent_slot_;
  CILKPP_ASSERT(s != nullptr && s->is_child, "spawn slot mismatch");
  if (!final_views.empty() || deliver) {
    if (!final_views.empty()) s->views() = std::move(final_views);
    s->exception() = std::move(deliver);
    // Tells the parent's fold that a slot has contents; without it the
    // fold takes the clean fast path and never reads the slots. Relaxed:
    // the join below publishes this store too.
    parent_->joins_->child_delivered.store(true, std::memory_order_relaxed);
  }
  // frame_end must be recorded *before* the parent learns this child is
  // done: the join below may let the enclosing syncs — up to the root —
  // complete, after which run() returns and the trace session may detach
  // and drain the rings. Any record after this point would race that
  // teardown (lost events at best, a push into a freed ring at worst).
  end_frame<Observed>();
  // The last touch of the parent and the slot: once counted, the parent's
  // sync may pass, fold this slot and reuse it.
  parent_->join_child(*home_);
}

template <bool Observed>
inline void context::wait_children() noexcept {
  if constexpr (Observed) chaos_perturb(home_, chaos_point::sync_enter);
  if (!all_joined()) help_until_joined();
  if constexpr (Observed) chaos_perturb(home_, chaos_point::sync_exit);
}

inline std::exception_ptr context::fold_slots() {
  // A frame that never pushed a child, opened a segment or kept an inline
  // child's delivery has nothing to fold.
  if (joins_ == nullptr) return nullptr;
  join_state& js = *joins_;
  // Fast path: no child slot since the last fold means nothing to wait for
  // and nothing to fold — without child slots the arena holds at most one
  // owner segment (new segments are only opened when the previous slot is
  // a child slot), which a fold would pass through unchanged. The view
  // cache stays valid too, since no view moves.
  if (!js.arena.has_children()) return nullptr;
  // Precondition (asserted): every child joined — so slot contents and
  // child_delivered are ordered before the reads below (DESIGN.md §4.7).
  CILKPP_ASSERT(all_joined(), "fold_slots with children still running");
  // Clean fast path: no child delivered views or an exception (every child
  // slot is still pristine) and no strand segment was opened, so the fold
  // is the identity — drop the slot structure in O(1) and keep going. This
  // is the steady state of a spawn+sync loop without reducers.
  if (!js.child_delivered.load(std::memory_order_relaxed) &&
      js.arena.all_children()) {
    js.arena.reset_clean();
    return nullptr;
  }
  return fold_delivered();
}

inline void context::sync() {
  if (observed(*home_)) [[unlikely]] {
    out_of_line([this] { sync_impl<true>(); });
  } else {
    sync_impl<false>();
  }
}

template <bool Observed>
inline void context::sync_impl() {
  CILKPP_ASSERT(!finished_, "sync on a finished frame");
  bump_rank();  // the strand after the sync is new
  if constexpr (Observed) {
    if (std::exception_ptr ex = sync_bracket<true>(/*implicit=*/false)) {
      std::rethrow_exception(ex);
    }
  } else if (joins_ != nullptr) [[unlikely]] {
    // Without join state there is no child to wait for and nothing to fold.
    sync_joins();
  }
}

inline void scheduler::execute(worker& w, frame_slot* child) {
  bump_counter(w.tasks_executed);  // w is the executing worker: single writer
  // The record consumes itself: it is destroyed before the child's join is
  // counted, so nothing here may touch the slot afterwards. Its run_fn is
  // the spawning frame's instantiation; the observed one fires the task_run
  // chaos point first.
  child->record<task>().run(*child, w);
}

inline bool scheduler::help_one(worker& w) {
  // Force-steal-everything: under chaos, a worker may be told to serve
  // another deque before its own, maximizing task migration. A failed
  // forced steal falls through to the normal path, so progress is kept.
  if (chaos_policy* c = w.chaos.load(std::memory_order_acquire)) {
    if (c->prefer_steal(w.id) && steal_and_execute(w)) return true;
  }
  chaos_perturb(&w, chaos_point::pop_bottom);
  if (const std::optional<frame_slot*> t = w.deque.pop_bottom()) {
    execute(w, *t);
    return true;
  }
  return steal_and_execute(w);
}

template <bool Observed>
inline void scheduler::push(worker& w, frame_slot* child) {
  w.deque.push_bottom(child);
  // Owner-only peak tracking: push_bottom runs on w's thread, so the
  // estimate is exact here and the load-max-store is single-writer.
  const auto depth = static_cast<std::uint64_t>(w.deque.size_estimate());
  if (depth > w.peak_deque.load(std::memory_order_relaxed)) {
    w.peak_deque.store(depth, std::memory_order_relaxed);
  }
  if constexpr (Observed) chaos_perturb(&w, chaos_point::spawn_push);
  // Wake half of the register→recheck→wait protocol (see worker_main).
  // The fence orders the deque push before the idlers_ load — the
  // Dekker-style edge that guarantees a parker either sees the task or is
  // seen here. A one-worker scheduler never pushes (context::spawn).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idlers_.load(std::memory_order_relaxed) > 0) wake_one();
}

template <bool Observed>
inline void context::finish_called() {
  if constexpr (!Observed) {
    // The lean end: a frame without join state has no child to wait for
    // and no views to fold into its parent.
    if (joins_ == nullptr) [[likely]] {
      finished_ = true;
      return;
    }
  }
  end_called<Observed>(nullptr);
}

template <bool Observed, typename Fn>
inline auto context::run_called(Fn& fn)
    -> decltype(fn(std::declval<context&>())) {
  using result = decltype(fn(*this));
  auto body = [&]() -> result {
    try {
      return fn(*this);
    } catch (...) {
      // Children must not outlive the frame. end_called rethrows the
      // body's exception, which beats every other, so the throw below is
      // never reached.
      end_called<Observed>(std::current_exception());
      throw;
    }
  };
  if constexpr (std::is_void_v<result>) {
    body();
    finish_called<Observed>();
  } else {
    result r = body();
    finish_called<Observed>();
    return r;
  }
}

template <typename Fn>
auto context::call(Fn&& fn) -> decltype(fn(std::declval<context&>())) {
  if (observed(*home_)) [[unlikely]] {
    return out_of_line([&]() -> decltype(auto) { return call_impl<true>(fn); });
  }
  return call_impl<false>(fn);
}

template <bool Observed, typename Fn>
inline auto context::call_impl(Fn& fn)
    -> decltype(fn(std::declval<context&>())) {
  const std::uint64_t child_ped = ped_mix(ped_hash_, rank_);
  const std::uint64_t child_birth = rank_;
  bump_rank();  // the continuation after the call is a new strand
  context child(std::bool_constant<Observed>{}, home_, this,
                /*parent_slot=*/nullptr, trace::frame_kind::called, child_ped,
                child_birth, live_ + 1);
  return child.run_called<Observed>(fn);
}

template <typename Fn>
auto scheduler::run(Fn&& fn) -> decltype(fn(std::declval<context&>())) {
  bool expected = false;
  CILKPP_ASSERT(run_active_.compare_exchange_strong(expected, true),
                "concurrent or nested scheduler::run is not supported");
  CILKPP_ASSERT(current_worker() == nullptr,
                "run() may not be called from a worker thread");
  set_current_worker(workers_[0].get());
  workers_[0]->attach_alloc_counters();
  if (observed(*workers_[0])) return run_root<true>(fn);
  return run_root<false>(fn);
}

template <bool Observed, typename Fn>
auto scheduler::run_root(Fn& fn) -> decltype(fn(std::declval<context&>())) {
  // Declared before the root, so the run ends after the root has, however
  // the root ends.
  struct run_end {
    scheduler& s;
    ~run_end() {
      set_current_worker(nullptr);
      s.run_active_.store(false);
    }
  } guard{*this};
  worker& w = *workers_[0];
  context root(std::bool_constant<Observed>{}, &w, nullptr, nullptr,
               trace::frame_kind::root, /*ped_hash=*/ped::root_seed,
               /*birth_rank=*/0,
               w.live_frames.load(std::memory_order_relaxed) + 1);
  return root.run_called<Observed>(fn);
}

}  // namespace cilkpp::rt

/// Public spelling: the paper's system is "Cilk++"; the library namespace is
/// cilk to keep user code close to Fig. 1.
namespace cilk {
using context = cilkpp::rt::context;
using scheduler = cilkpp::rt::scheduler;
using scheduler_options = cilkpp::rt::scheduler_options;
}  // namespace cilk
