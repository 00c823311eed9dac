// Engine-generic interpreter for generated stress programs.
//
// interp() walks a stress::program against ANY engine context — the
// threaded runtime (rt::context), serial elision (rt::serial_context), the
// dag recorder (dag::recorder_context), or a cilkscreen engine
// (screen::basic_screen_context<D>) — through exactly the surface real
// workloads use: spawn / sync / call / account, ADL parallel_for, reducer
// views, and (where the engine supports it) exceptions delivered at sync.
// Every leaf's contribution is a pure function of (program seed, node id,
// lane), so two engines that implement the model correctly MUST produce
// identical run_results; the oracle (stress/oracle.hpp) checks that.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "alloc/slab.hpp"
#include "dag/recorder.hpp"
#include "cilkscreen/screen_context.hpp"
#include "hyper/reducers.hpp"
#include "runtime/mutex.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "stress/program.hpp"
#include "support/cache.hpp"

namespace cilkpp::stress {

/// The exception generated throw_last nodes raise.
struct stress_error {
  std::uint32_t node_id = 0;
};

/// Engines that deliver a spawned child's exception at the parent's sync
/// (the runtime) or inline at the spawn (elision — the serial semantics the
/// runtime must match). The recorder and the cilkscreen engines do NOT
/// tolerate exceptions unwinding through their begin/end brackets, so under
/// them throw_last nodes run the identical traversal and record the
/// identical mark without actually throwing — keeping the recorded dag and
/// the SP relationships aligned with what the other engines executed.
template <typename Ctx>
inline constexpr bool propagates_exceptions = false;
template <>
inline constexpr bool propagates_exceptions<rt::context> = true;
template <>
inline constexpr bool propagates_exceptions<rt::serial_context> = true;

/// Engines with source-level memory instrumentation (the cilkscreen
/// contexts): leaf stores are reported so the detector certifies the
/// generated program race-free.
template <typename Ctx>
concept notes_memory = requires(Ctx& ctx, const void* p) {
  ctx.note_write(p, std::size_t{}, (const char*)nullptr);
};

template <typename Ctx, typename T>
inline void noted_store(Ctx& ctx, T& dst, T value) {
  if constexpr (notes_memory<Ctx>) {
    ctx.note_write(&dst, sizeof(T), "stress-leaf");
  }
  dst = value;
}

/// Engines whose locks the detector tracks (the cilkscreen contexts).
template <typename Ctx>
concept screens_locks = requires(Ctx& ctx) {
  { ctx.screen_detector().register_lock() } -> std::same_as<screen::lock_id>;
};

/// Engines exposing the pedigree-seeded DPRNG (rt, elision, both screen
/// engines, replay — everything but the dag recorder). Every work leaf and
/// pfor iteration records one draw, so the oracle can check the stream is a
/// pure function of strand identity: bit-identical across engines and chaos
/// schedules.
template <typename Ctx>
concept has_dprng = requires(Ctx& ctx) {
  { ctx.dprng_draw() } -> std::same_as<std::uint64_t>;
};

struct run_state;
template <typename Ctx>
void stress_lock(Ctx& ctx, run_state& st, std::uint32_t idx);
template <typename Ctx>
void stress_unlock(Ctx& ctx, run_state& st, std::uint32_t idx);

/// One 64-byte stripe of the strided-write pool: exactly one cache line,
/// eight instrumented words. A clean stripe_write lane owns a whole stripe;
/// the planted variant strides lanes across one stripe's words.
struct alignas(cache_line_size) stress_stripe {
  std::uint64_t w[8] = {};
};

/// Output state of one interpretation. Sized for a specific program; the
/// reducers must outlive the scheduler::run() that updates them (their
/// views live in frame slots until the root absorbs them).
///
/// Every instrumented pool element sits alone on its own cache line
/// (padded<…>, stress_stripe), and the reducers are line-aligned members:
/// the corpus is PADDED BY CONSTRUCTION. That is what entitles the oracle
/// to require generated programs to be memlens-clean — sibling leaves
/// writing adjacent unpadded u64s would be flagged as false sharing (the
/// flag would be CORRECT, which is the point: the pools, like real
/// per-strand output arrays, must not share lines).
struct run_state {
  /// Pool storage rides the slab's aligned path (padded<…> and
  /// stress_stripe are alignas(64), above the default heap alignment), so
  /// every chaos sweep's pools also exercise — and are counted by — the
  /// allocator under test.
  template <typename T>
  using pool_vector = std::vector<T, alloc::slab_std_allocator<T>>;

  explicit run_state(const program& p)
      : slots(p.num_slots),
        cells(p.num_cells),
        marks(p.num_throws),
        stripes(p.num_stripes),
        draws(p.num_slots + p.num_cells, 0),
        mutexes(p.num_locks) {}

  pool_vector<padded<std::uint64_t>> slots;  ///< one per work leaf
  pool_vector<padded<std::uint64_t>> cells;  ///< one per pfor iteration
  pool_vector<padded<std::uint64_t>> marks;  ///< one per throw_last
  pool_vector<stress_stripe> stripes;        ///< stripe_write pool
  /// One DPRNG draw per work leaf (indexed by slot) and pfor iteration
  /// (offset by num_slots); all-zero under engines without dprng_draw.
  /// Never instrumented, so no padding needed.
  std::vector<std::uint64_t> draws;
  /// lock_block backing: real mutexes under the threaded runtime…
  std::vector<cilk::mutex> mutexes;
  /// …and detector lock ids under the screen engines (registered lazily
  /// per run, since ids belong to a specific detector instance).
  std::vector<screen::lock_id> screen_locks;
  /// Line-aligned so the two reducers' value bytes never share a line with
  /// each other or a neighboring member (memlens padding lints).
  alignas(cache_line_size) hyper::reducer_opadd<std::uint64_t> radd;
  alignas(cache_line_size) hyper::reducer_vector_append<std::uint32_t> rlist;
};

/// Lock a program mutex under whatever the engine provides: the detector's
/// lockset (screen engines — ids registered lazily, they belong to one
/// detector instance), a real cilk::mutex (the threaded runtime), or
/// nothing at all (elision and the recorder run serially; a lock that is
/// never contended has no observable effect there).
template <typename Ctx>
void stress_lock(Ctx& ctx, run_state& st, std::uint32_t idx) {
  if constexpr (screens_locks<Ctx>) {
    while (st.screen_locks.size() <= idx) {
      st.screen_locks.push_back(ctx.screen_detector().register_lock());
    }
    ctx.screen_detector().lock_acquired(ctx.procedure(),
                                        st.screen_locks[idx]);
  } else if constexpr (std::is_same_v<Ctx, rt::context>) {
    st.mutexes[idx].lock();
  } else {
    (void)ctx;
    (void)st;
    (void)idx;
  }
}

template <typename Ctx>
void stress_unlock(Ctx& ctx, run_state& st, std::uint32_t idx) {
  if constexpr (screens_locks<Ctx>) {
    ctx.screen_detector().lock_released(ctx.procedure(),
                                        st.screen_locks[idx]);
  } else if constexpr (std::is_same_v<Ctx, rt::context>) {
    st.mutexes[idx].unlock();
  } else {
    (void)ctx;
    (void)st;
    (void)idx;
  }
}

/// What a run produced, reduced to comparable form.
struct run_result {
  std::uint64_t checksum = 0;  ///< order-sensitive fold of all outputs
  std::uint64_t radd = 0;
  std::vector<std::uint32_t> rlist;
  /// Fold of every DPRNG draw (0 when the engine has none). NOT part of
  /// operator==: the recorder legitimately draws nothing, and elision's
  /// stream diverges after a throw (sync never runs, so its rank bump is
  /// skipped). The oracle compares draw signatures explicitly where the
  /// engines' rank sequences provably coincide.
  std::uint64_t draw_sig = 0;

  bool operator==(const run_result& o) const {
    return checksum == o.checksum && radd == o.radd && rlist == o.rlist;
  }
};

template <typename Ctx>
void interp(Ctx& ctx, const program& p, const prog_node& n, run_state& st) {
  switch (n.kind) {
    case op::seq:
      for (const prog_node& c : n.children) interp(ctx, p, c, st);
      break;

    case op::spawn_block: {
      for (const prog_node& c : n.children) {
        // Capture the element by pointer-by-value: the runtime defers the
        // child past this loop iteration, so a by-reference loop variable
        // would dangle. p and st outlive the whole run.
        const prog_node* cp = &c;
        ctx.spawn([&p, &st, cp](Ctx& child) { interp(child, p, *cp, st); });
      }
      ctx.sync();
      break;
    }

    case op::call_block:
      ctx.call([&](Ctx& child) { interp(child, p, n.children.front(), st); });
      break;

    case op::sync_extra:
      ctx.sync();
      break;

    case op::work: {
      ctx.account(n.cost);
      noted_store(ctx, st.slots[n.slot].value, contrib(p.seed, n.id));
      if constexpr (has_dprng<Ctx>) st.draws[n.slot] = ctx.dprng_draw();
      if (n.radd) st.radd.view(ctx) += contrib(p.seed, n.id, 1);
      if (n.rlist) st.rlist.view(ctx).push_back(n.id);
      break;
    }

    case op::pfor: {
      const prog_node* np = &n;
      parallel_for(
          ctx, std::uint32_t{0}, n.iters,
          [&p, &st, np](Ctx& leaf, std::uint32_t i) {
            leaf.account(np->cost);
            noted_store(leaf, st.cells[np->cell_base + i].value,
                        contrib(p.seed, np->id, i + 1));
            if constexpr (has_dprng<Ctx>) {
              st.draws[p.num_slots + np->cell_base + i] = leaf.dprng_draw();
            }
            if (np->radd) {
              st.radd.view(leaf) += contrib(p.seed, np->id, i + 0x10001);
            }
          },
          n.grain);
      break;
    }

    case op::lock_block: {
      for (const std::uint32_t l : n.locks) stress_lock(ctx, st, l);
      for (const prog_node& c : n.children) interp(ctx, p, c, st);
      for (std::size_t i = n.locks.size(); i-- > 0;) {
        stress_unlock(ctx, st, n.locks[i]);
      }
      break;
    }

    case op::throw_last: {
      std::uint64_t mark = 0;
      const std::uint32_t last = static_cast<std::uint32_t>(n.children.size()) - 1;
      // Under elision the last child's throw propagates out of spawn()
      // itself (spawn runs the child inline); under the runtime it is
      // delivered by sync(). One try block covers both delivery points.
      try {
        for (std::uint32_t i = 0; i <= last; ++i) {
          const prog_node* cp = &n.children[i];
          const bool thrower = i == last;
          ctx.spawn([&p, &st, cp, thrower](Ctx& child) {
            interp(child, p, *cp, st);
            if constexpr (propagates_exceptions<Ctx>) {
              if (thrower) throw stress_error{cp->id};
            }
          });
        }
        ctx.sync();
        if constexpr (!propagates_exceptions<Ctx>) {
          mark = contrib(p.seed, n.id, 7);  // the mark catching would set
        }
      } catch (const stress_error& e) {
        if (e.node_id == n.children[last].id) mark = contrib(p.seed, n.id, 7);
      }
      noted_store(ctx, st.marks[n.throw_index].value, mark);
      break;
    }

    case op::stripe_write: {
      const prog_node* np = &n;
      for (std::uint32_t lane = 0; lane < n.iters; ++lane) {
        ctx.spawn([&p, &st, np, lane](Ctx& child) {
          child.account(np->cost);
          if (np->shared_line) {
            // Planted variant: every lane writes its own word of ONE
            // stripe — disjoint bytes of one cache line from parallel
            // strands. No race, pure false sharing.
            noted_store(child, st.stripes[np->stripe_base].w[lane % 8],
                        contrib(p.seed, np->id, lane + 1));
          } else {
            // Clean variant: the lane owns stripe (stripe_base + lane)
            // outright — sibling writers on disjoint lines.
            stress_stripe& s = st.stripes[np->stripe_base + lane];
            for (std::uint32_t k = 0; k < 8; ++k) {
              noted_store(child, s.w[k],
                          contrib(p.seed, np->id, lane * 8 + k + 1));
            }
          }
        });
      }
      ctx.sync();
      break;
    }
  }
}

/// Order-sensitive digest of everything the run produced.
inline run_result finish(const program& p, run_state& st) {
  run_result r;
  r.radd = st.radd.value();
  r.rlist = st.rlist.value();
  std::uint64_t h = p.seed;
  for (const padded<std::uint64_t>& v : st.slots) h = hash_combine(h, *v);
  for (const padded<std::uint64_t>& v : st.cells) h = hash_combine(h, *v);
  for (const padded<std::uint64_t>& v : st.marks) h = hash_combine(h, *v);
  for (const stress_stripe& s : st.stripes) {
    for (std::uint64_t w : s.w) h = hash_combine(h, w);
  }
  h = hash_combine(h, r.radd);
  for (std::uint32_t v : r.rlist) h = hash_combine(h, v);
  r.checksum = h;
  std::uint64_t ds = p.seed;
  for (std::uint64_t v : st.draws) ds = hash_combine(ds, v);
  r.draw_sig = ds;
  return r;
}

}  // namespace cilkpp::stress
