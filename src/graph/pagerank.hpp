// Push-style PageRank in the Galois lonestar mold (ROADMAP:
// experimental/hgen/pr-push), with the L1 residual carried by a reducer —
// no atomics anywhere.
//
// The usual push formulation CAS-adds each vertex's share directly into
// its successors' ranks, which is racy-by-design and nondeterministic in
// float association. This one keeps the push (each vertex writes its
// damped share outward) but parks the shares on the *edges*:
//
//   push:   contrib[k] = damping·rank[u]/outdeg(u) for u's out-edges k;
//           dangling vertices pool their rank in a reducer
//   gather: next[v] = base + Σ contrib over v's in-edges (via the
//           transpose's edge_ref), in fixed row order
//
// Every write is the writer's own slot (contrib[k], next[v]); every read
// is of the previous phase's output. Race-free without atomics, so the
// result is deterministic: per-vertex sums run in fixed order, and the two
// reducers (dangling mass, residual) add in exact fixed point (to_fixed),
// so their totals do not depend on how the runtime associates the folds —
// bit-identical across worker counts, chaos schedules and engines. (The
// float sums of pagerank_serial round differently, hence the 1e-9
// tolerance in the differential tests.)
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/histogram.hpp"
#include "graph/instrument.hpp"
#include "hyper/monoid.hpp"
#include "hyper/reducer.hpp"
#include "runtime/parallel_for.hpp"

namespace cilkpp::graph {

/// A double in [0, 2^64) as a 128-bit fixed-point term, truncated to a
/// multiple of 2^-64. Integer sums of such terms come out the same however
/// their adds are associated, and the runtime leaves a reducer's
/// association open — P > 1 folds per-strand views along the frame tree, a
/// one-worker scheduler keeps one view shared in serial order (DESIGN.md
/// §4.3), the elision adds in serial order — where a float sum rounds
/// differently under each. Truncation costs at most 2^-64 per term, far
/// below a float sum's own rounding.
inline unsigned __int128 to_fixed(double x) {
  const auto whole = static_cast<std::uint64_t>(x);
  const auto fraction =
      static_cast<std::uint64_t>((x - static_cast<double>(whole)) * 0x1p64);
  return (static_cast<unsigned __int128>(whole) << 64) | fraction;
}

/// A sum of to_fixed terms as a double.
inline double from_fixed(unsigned __int128 sum) {
  return static_cast<double>(sum) * 0x1p-64;
}

struct pagerank_options {
  double damping = 0.85;
  std::uint32_t iterations = 20;  ///< full sweeps (upper bound)
  double tolerance = 0.0;  ///< stop early when L1 residual < tolerance (0: never)
  std::uint64_t grain = 0;
};

struct pagerank_result {
  std::vector<double> rank;        ///< sums to ~1
  std::vector<double> residuals;   ///< L1 rank change, one per executed sweep
  std::vector<iteration_stats> iters;  ///< gather-phase work per sweep
};

/// Body of pagerank(); needs a dedicated frame for reducer collect()s.
template <typename Ctx>
pagerank_result pagerank_in_frame(Ctx& ctx, const csr& g, const csr& gt,
                                  const pagerank_options& opt) {
  const std::uint32_t n = g.vertices();
  CILKPP_ASSERT(gt.vertices() == n && gt.edges() == g.edges(),
                "pagerank: gt must be the transpose of g");
  // Keeps every rank, and so every to_fixed term, in [0, 1].
  CILKPP_ASSERT(opt.damping >= 0.0 && opt.damping <= 1.0,
                "pagerank: damping must lie in [0, 1]");
  pagerank_result out;
  if (n == 0) return out;
  out.rank.assign(n, 1.0 / n);
  std::vector<double> next(n);
  std::vector<double> contrib(g.edges());

  for (std::uint32_t it = 0; it < opt.iterations; ++it) {
    hyper::reducer<hyper::opadd<unsigned __int128>> dangling;
    parallel_for(
        ctx, std::uint32_t{0}, n,
        [&](Ctx& leaf, std::uint32_t u) {
          const std::uint64_t outdeg = g.degree(u);
          leaf.account(outdeg + 1);
          note_read(leaf, out.rank[u], "pr.rank");
          if (outdeg == 0) {
            dangling.view(leaf) += to_fixed(out.rank[u]);
            return;
          }
          const double share =
              opt.damping * out.rank[u] / static_cast<double>(outdeg);
          for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; ++k) {
            note_write(leaf, contrib[k], "pr.contrib");
            contrib[k] = share;
          }
        },
        opt.grain);
    const double base = (1.0 - opt.damping) / n +
                        opt.damping * from_fixed(dangling.collect(ctx)) /
                            static_cast<double>(n);

    hyper::reducer<hyper::opadd<unsigned __int128>> residual;
    hist_reducer hist;
    parallel_for(
        ctx, std::uint32_t{0}, n,
        [&, base](Ctx& leaf, std::uint32_t v) {
          const std::uint64_t indeg = gt.degree(v);
          leaf.account(indeg + 1);
          hist.view(leaf).add(indeg + 1);
          double acc = base;
          for (std::uint64_t k = gt.offsets[v]; k < gt.offsets[v + 1]; ++k) {
            note_read(leaf, contrib[gt.edge_ref[k]], "pr.contrib");
            acc += contrib[gt.edge_ref[k]];
          }
          note_read(leaf, out.rank[v], "pr.rank");
          residual.view(leaf) += to_fixed(std::abs(acc - out.rank[v]));
          note_write(leaf, next[v], "pr.next");
          next[v] = acc;
        },
        opt.grain);

    const double res = from_fixed(residual.collect(ctx));
    out.rank.swap(next);
    out.residuals.push_back(res);
    iteration_stats stats;
    stats.index = it + 1;
    stats.active = n;
    stats.hist = hist.collect(ctx);
    out.iters.push_back(std::move(stats));
    if (opt.tolerance > 0.0 && res < opt.tolerance) break;
  }
  return out;
}

/// Engine-generic push-style PageRank. `gt` must be transpose(g) — the
/// gather phase walks in-edges through its edge_ref cross-links.
template <typename Ctx>
pagerank_result pagerank(Ctx& ctx, const csr& g, const csr& gt,
                         const pagerank_options& opt = {}) {
  return ctx.call(
      [&](Ctx& frame) { return pagerank_in_frame(frame, g, gt, opt); });
}

}  // namespace cilkpp::graph
