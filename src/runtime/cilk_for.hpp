// cilk_for (paper Sec. 1, Sec. 2): "a cilk_for can be viewed as
// divide-and-conquer parallel recursion using cilk_spawn and cilk_sync over
// the iteration space."
//
// This is the one lowering of that recursion, and every engine runs it: the
// runtime and the serial elision (both in rt), and the dag recorder, both
// cilkscreen engines, cilkview's online analyzer and pedigree replay through
// a using-declaration of rt::parallel_for in their own namespaces. For one
// grain they all build the same spawn tree: the same pedigrees, recorded
// dags and series-parallel relationships. The header includes no scheduler
// code. An engine context supplies spawn, call and sync, and may supply
// three more members:
//
//   spawn_leaf(lo, hi, body)  spawns a body(i) range as a strand without a
//                             frame (the runtime); other engines spawn a
//                             closure that loops over the range;
//   num_workers()             the worker count of the default-grain rule
//                             (the runtime's own; 1 for the elision and
//                             replay); without it the default grain is 1;
//   pfor_split_cost           units charged with account() to the
//                             continuation after every split (the recorder
//                             and the online analyzer price the splitter).
//
// Like the Cilk++ compiler's lowering, the splitter halves the range until
// at most `grain` iterations remain, then runs them serially. The default
// grain follows Cilk++'s rule of thumb min(2048, N / (8P)): small enough for
// 8P-fold load-balancing slack, large enough to amortize spawn overhead.
#pragma once

#include <cstdint>
#include <type_traits>

namespace cilkpp::rt {

inline std::uint64_t default_grain(std::uint64_t iterations, unsigned workers) {
  const std::uint64_t slack = iterations / (8ULL * workers);
  const std::uint64_t grain = slack < 2048 ? slack : 2048;
  return grain == 0 ? 1 : grain;
}

/// Grains per burst frame for the body(i) lowering: once a subrange is down
/// to this many grains, the hosting frame stops halving and fans its grains
/// out directly as leaf strands. Internal frames drop from ~n/(2·grain) to
/// ~n/(burst·grain) while the leaf count — and the spawn count the dag
/// shape fixes at (#grains − 1) — is unchanged.
inline constexpr std::uint64_t pfor_burst_grains = 32;

namespace pfor_detail {

template <typename Ctx>
std::uint64_t engine_grain(const Ctx& ctx, std::uint64_t iterations) {
  if constexpr (requires { ctx.num_workers(); }) {
    return default_grain(iterations, ctx.num_workers());
  } else {
    return 1;
  }
}

template <typename Ctx>
void charge_split(Ctx& ctx) {
  if constexpr (requires { Ctx::pfor_split_cost; }) {
    ctx.account(Ctx::pfor_split_cost);
  }
}

/// Runs [lo, hi) in the frame `ctx` and syncs it.
template <typename Ctx, typename Index, typename Body>
void split(Ctx& ctx, Index lo, Index hi, const Body& body, std::uint64_t grain) {
  constexpr bool ctx_body = std::is_invocable_v<const Body&, Ctx&, Index>;
  // body(i) leaves cannot spawn or touch reducers, so the bottom of their
  // recursion needs no frames at all: halve only while more than
  // pfor_burst_grains grains remain, then burst the remaining grains out as
  // leaf strands below.
  std::uint64_t spine = grain;
  if constexpr (!ctx_body) {
    spine = grain > ~std::uint64_t{0} / pfor_burst_grains
                ? ~std::uint64_t{0}
                : pfor_burst_grains * grain;
  }
  // Spawn left halves; keep the right half in this frame (lazy splitting —
  // one frame hosts the whole spine, the dag is the binary recursion). The
  // closure holds two indices, the grain and the body's address, so the
  // runtime builds its record in the child's frame slot without a pool
  // block (tests/runtime_test.cpp instantiates this over a probe engine
  // that asserts it).
  while (static_cast<std::uint64_t>(hi - lo) > spine) {
    Index mid = lo + (hi - lo) / 2;
    ctx.spawn([lo, mid, &body, grain](Ctx& child) {
      split(child, lo, mid, body, grain);
    });
    charge_split(ctx);
    lo = mid;
  }
  if constexpr (ctx_body) {
    for (Index i = lo; i < hi; ++i) {
      body(ctx, i);  // leaf-frame context: required for reducer access
    }
  } else {
    // One leaf strand per grain, the last grain inline on this frame's
    // strand. Each leaf consumes one rank, as a spawned frame does.
    while (static_cast<std::uint64_t>(hi - lo) > grain) {
      Index mid = lo + static_cast<decltype(hi - lo)>(grain);
      if constexpr (requires { ctx.spawn_leaf(lo, mid, body); }) {
        ctx.spawn_leaf(lo, mid, body);
      } else {
        ctx.spawn([lo, mid, &body](Ctx&) {
          for (Index i = lo; i < mid; ++i) body(i);
        });
      }
      charge_split(ctx);
      lo = mid;
    }
    for (Index i = lo; i < hi; ++i) body(i);
  }
  ctx.sync();
}

}  // namespace pfor_detail

/// Runs the body for every i in [begin, end), iterations logically in
/// parallel. grain == 0 selects the engine's default (see num_workers in
/// the header comment); pass an explicit grain when comparing pedigrees,
/// draws or dags across engines or worker counts.
///
/// Two body shapes are accepted:
///   body(i)            — pure element-wise work;
///   body(leaf_ctx, i)  — REQUIRED when the body accesses reducers or
///                        spawns: views must be fetched through the frame
///                        actually executing the iteration. Fetching through
///                        an outer frame's context from inside the loop
///                        would share one view across concurrent strands.
template <typename Ctx, typename Index, typename Body>
void parallel_for(Ctx& ctx, Index begin, Index end, const Body& body,
                  std::uint64_t grain = 0) {
  if (begin >= end) return;
  const auto n = static_cast<std::uint64_t>(end - begin);
  if (grain == 0) grain = pfor_detail::engine_grain(ctx, n);
  if constexpr (!std::is_invocable_v<const Body&, Ctx&, Index>) {
    if (n <= grain) {
      // The whole range fits one grain and a body(i) cannot spawn, so the
      // loop needs neither a scoping frame nor a sync — run it inline on
      // the caller's strand, exactly as the elision would. The body(ctx, i)
      // form never takes this path: it may spawn, and those spawns must
      // attach to a loop frame whose implicit sync awaits them rather than
      // escaping into the caller's frame.
      for (Index i = begin; i < end; ++i) body(i);
      return;
    }
  }
  // A dedicated frame scopes the implicit sync, exactly as the compiler
  // would generate for the loop.
  ctx.call([&](Ctx& loop_frame) {
    pfor_detail::split(loop_frame, begin, end, body, grain);
  });
}

}  // namespace cilkpp::rt
