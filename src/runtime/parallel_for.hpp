// cilk_for (paper Sec. 1, Sec. 2): "a cilk_for can be viewed as
// divide-and-conquer parallel recursion using cilk_spawn and cilk_sync over
// the iteration space."
//
// Like the Cilk++ compiler's lowering, the splitter halves the range until
// at most `grain` iterations remain, then runs them serially. The default
// grain follows Cilk++'s rule of thumb min(2048, N / (8P)): small enough for
// 8P-fold load-balancing slack, large enough to amortize spawn overhead.
#pragma once

#include <cstdint>

#include "runtime/scheduler.hpp"

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

template <typename Index, typename Body>
void parallel_for_impl(context& ctx, Index lo, Index hi, const Body& body,
                       std::uint64_t grain) {
  if constexpr (std::is_invocable_v<const Body&, context&, Index>) {
    // Spawn left halves; keep the right half in this frame (lazy splitting
    // — one frame hosts the whole spine, the dag is the binary recursion).
    while (static_cast<std::uint64_t>(hi - lo) > grain) {
      Index mid = lo + (hi - lo) / 2;
      auto left = [lo, mid, &body, grain](context& child) {
        parallel_for_impl(child, lo, mid, body, grain);
      };
      static_assert(spawns_in_slot<decltype(left)>,
                    "the halving closure spawns without a pool block");
      ctx.spawn(left);
      lo = mid;
    }
    for (Index i = lo; i < hi; ++i) {
      body(ctx, i);  // leaf-frame context: required for reducer access
    }
    ctx.sync();
  } else {
    // body(i) leaves cannot spawn or touch reducers, so the bottom of the
    // recursion needs no frames at all: halve while more than
    // pfor_burst_grains grains remain, then burst the remaining grains out
    // as leaf strands (context::spawn_leaf) and run the last one inline on
    // this frame's strand.
    const std::uint64_t burst =
        grain > ~std::uint64_t{0} / pfor_burst_grains
            ? ~std::uint64_t{0}
            : pfor_burst_grains * grain;
    while (static_cast<std::uint64_t>(hi - lo) > burst) {
      Index mid = lo + (hi - lo) / 2;
      auto left = [lo, mid, &body, grain](context& child) {
        parallel_for_impl(child, lo, mid, body, grain);
      };
      static_assert(spawns_in_slot<decltype(left)>,
                    "the halving closure spawns without a pool block");
      ctx.spawn(left);
      lo = mid;
    }
    while (static_cast<std::uint64_t>(hi - lo) > grain) {
      Index mid = lo + static_cast<decltype(hi - lo)>(grain);
      ctx.spawn_leaf(lo, mid, body);
      lo = mid;
    }
    for (Index i = lo; i < hi; ++i) body(i);
    ctx.sync();
  }
}

/// Runs the body for every i in [begin, end), iterations logically in
/// parallel. grain == 0 selects the default rule.
///
/// Two body shapes are accepted:
///   body(i)            — pure element-wise work;
///   body(leaf_ctx, i)  — REQUIRED when the body accesses reducers or
///                        spawns: views must be fetched through the frame
///                        actually executing the iteration. Fetching through
///                        an outer frame's context from inside the loop
///                        would share one view across concurrent strands.
template <typename Index, typename Body>
void parallel_for(context& ctx, Index begin, Index end, const Body& body,
                  std::uint64_t grain = 0) {
  if (begin >= end) return;
  const auto n = static_cast<std::uint64_t>(end - begin);
  if (grain == 0) grain = default_grain(n, ctx.sched().num_workers());
  if constexpr (!std::is_invocable_v<const Body&, context&, Index>) {
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
  ctx.call([&](context& loop_frame) {
    parallel_for_impl(loop_frame, begin, end, body, grain);
  });
}

}  // namespace cilkpp::rt

namespace cilk {
using cilkpp::rt::default_grain;
using cilkpp::rt::parallel_for;
}  // namespace cilk
