// DPRNG-seeded graph generators: uniform random digraphs and RMAT
// (Chakrabarti/Zhan/Faloutsos recursive-matrix) power-law graphs.
//
// The seeding rule (TUTORIAL §15): edge i's draws come from an explicit
// ped::dprng_stream keyed ped::mix(seed, i) — a pure function of (seed,
// edge index), never of the executing strand. So the generated graph is
// identical across worker counts, grain sizes, chaos schedules and
// engines; the parallel_for only decides which strand computes which slot
// of a write-once output array. (Seeding from
// the strand pedigree instead would tie the graph to the loop's grain —
// deterministic, but a different graph per grain. Index-keyed streams are
// the stronger contract, and what the determinism tests pin.)
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "pedigree/dprng.hpp"
#include "runtime/parallel_for.hpp"

namespace cilkpp::graph {

/// RMAT quadrant probabilities (d = 1 - a - b - c). Defaults are the
/// Graph500 standard skew.
struct rmat_params {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
};

namespace detail {

/// Domain tags folded into the seed so the uniform and RMAT generators
/// draw from unrelated streams even under the same user seed.
inline constexpr std::uint64_t uniform_tag = 0x756e6966u;  // "unif"
inline constexpr std::uint64_t rmat_tag = 0x726d6174u;     // "rmat"

inline edge uniform_edge_at(std::uint32_t vertices, std::uint64_t seed,
                            std::uint64_t i) {
  ped::dprng_stream s(ped::mix(seed, uniform_tag), i + 1);
  const auto src = static_cast<std::uint32_t>(s.below(vertices));
  // Draw dst from [0, V-1) and skip over src: uniform over the other
  // V-1 vertices, so no self-loops by construction.
  auto dst = static_cast<std::uint32_t>(s.below(vertices - 1));
  if (dst >= src) ++dst;
  return {src, dst};
}

inline edge rmat_edge_at(unsigned scale, std::uint64_t seed, std::uint64_t i,
                         const rmat_params& p) {
  ped::dprng_stream s(ped::mix(seed, rmat_tag), i + 1);
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  for (unsigned bit = 0; bit < scale; ++bit) {
    const double u = s.unit();
    src <<= 1u;
    dst <<= 1u;
    if (u < p.a) {
      // top-left quadrant: both bits 0
    } else if (u < p.a + p.b) {
      dst |= 1u;
    } else if (u < p.a + p.b + p.c) {
      src |= 1u;
    } else {
      src |= 1u;
      dst |= 1u;
    }
  }
  // Self-loop fixup: flip dst's low bit (stays in range for scale >= 1,
  // and is a pure function of the draws, so still deterministic).
  if (src == dst) dst ^= 1u;
  return {src, dst};
}

}  // namespace detail

/// `count` uniform random edges over `vertices` vertices (no self-loops;
/// duplicate edges possible, as in the Galois generators).
template <typename Ctx>
std::vector<edge> uniform_edges(Ctx& ctx, std::uint32_t vertices,
                                std::uint64_t count, std::uint64_t seed,
                                std::uint64_t grain = 0) {
  CILKPP_ASSERT(vertices >= 2, "uniform_edges: need at least 2 vertices");
  std::vector<edge> edges(count);
  parallel_for(
      ctx, std::uint64_t{0}, count,
      [&](Ctx& leaf, std::uint64_t i) {
        leaf.account(1);
        edges[i] = detail::uniform_edge_at(vertices, seed, i);
      },
      grain);
  return edges;
}

/// `count` RMAT edges over 2^scale vertices: each edge recurses `scale`
/// times into a quadrant of the adjacency matrix, biased toward the
/// top-left — the repeated bias is what grows hubs and the power-law tail.
template <typename Ctx>
std::vector<edge> rmat_edges(Ctx& ctx, unsigned scale, std::uint64_t count,
                             std::uint64_t seed, rmat_params params = {},
                             std::uint64_t grain = 0) {
  CILKPP_ASSERT(scale >= 1 && scale < 32, "rmat_edges: scale must be in 1..31");
  std::vector<edge> edges(count);
  parallel_for(
      ctx, std::uint64_t{0}, count,
      [&](Ctx& leaf, std::uint64_t i) {
        leaf.account(scale);
        edges[i] = detail::rmat_edge_at(scale, seed, i, params);
      },
      grain);
  return edges;
}

/// Generator + builder in one step (the common test/bench path).
template <typename Ctx>
csr uniform_graph(Ctx& ctx, std::uint32_t vertices, std::uint64_t count,
                  std::uint64_t seed, std::uint64_t grain = 0) {
  return build_csr(ctx, vertices,
                   uniform_edges(ctx, vertices, count, seed, grain), grain);
}

template <typename Ctx>
csr rmat_graph(Ctx& ctx, unsigned scale, std::uint64_t count,
               std::uint64_t seed, rmat_params params = {},
               std::uint64_t grain = 0) {
  return build_csr(ctx, 1u << scale,
                   rmat_edges(ctx, scale, count, seed, params, grain), grain);
}

/// Serial conveniences for reference-side test code (no context needed).
csr uniform_graph_serial(std::uint32_t vertices, std::uint64_t count,
                         std::uint64_t seed);
csr rmat_graph_serial(unsigned scale, std::uint64_t count, std::uint64_t seed,
                      rmat_params params = {});

}  // namespace cilkpp::graph
