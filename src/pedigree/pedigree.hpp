// Pedigrees: schedule-independent strand identity (ROADMAP open item 3).
//
// A *pedigree* names a strand by the path of spawn/call ranks that leads to
// it, as in Leiserson et al.'s "Deterministic parallel random-number
// generation for dynamic-multithreading platforms" and cheetah's
// pedigree_globals: every frame keeps a rank that advances at each spawn,
// call, and sync, and a child born while its parent's rank was r extends the
// parent's rank list with r. The strand currently executing in a frame with
// rank list [r0, …, rk] at rank r is named <r0, …, rk, r>. The name depends
// only on the program's series-parallel structure — never on which worker
// ran what — so the same strand gets the same pedigree on every run, any
// worker count, and any chaos schedule. That makes pedigrees the key for
//
//   * cross-engine / cross-run report identity (race_record, lint_record),
//   * deterministic parallel RNG (dprng.hpp), and
//   * single-strand replay (replay.hpp).
//
// Rank rules (shared by the runtime, the serial elision, both cilkscreen
// engines, and the replay engine — they MUST stay in lockstep):
//
//   * spawn: the child's rank list = parent's list ++ [parent rank], then
//     the parent's rank advances (the continuation is a new strand).
//   * call: identical to spawn — a called frame consumes one parent rank.
//   * sync: the frame's rank advances (the code after a sync is a new
//     strand). This happens before any exception is rethrown.
//   * steal: nothing — a steal moves a strand, it never renames one.
//
// The runtime keeps this O(1) on the hot path: each frame stores only its
// own birth rank and current rank, and the hash chain
// mix(parent_hash, birth_rank) is threaded through task creation (one u64).
// Materializing the full rank list walks the parent chain — O(depth), only
// done when a report or replay needs the list.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace cilkpp::ped {

/// Root of every pedigree hash chain. The value itself is arbitrary but
/// load-bearing: trace frame identities and recorded dprng streams embed it,
/// so changing it invalidates checked-in fingerprints.
inline constexpr std::uint64_t root_seed = 0x5bd1e995c11c2009ULL;

/// One hash-chain step: the strand (or child frame) at rank r of a frame
/// whose rank-list hashes to h gets mix(h, r). Identical to the runtime's
/// context::ped_mix — a splitmix64 finalizer over h xor golden-ratio-spread
/// r, so adjacent ranks land far apart.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t r) {
  std::uint64_t state = h ^ (r * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// A materialized rank list. ranks[0] is the root frame's contribution; the
/// last element is the strand's rank within its own frame. The root frame's
/// first strand is <0>.
struct pedigree {
  std::vector<std::uint64_t> ranks;

  bool operator==(const pedigree&) const = default;
  bool empty() const { return ranks.empty(); }
  std::size_t depth() const { return ranks.size(); }
};

/// Folds a rank list through the hash chain. hash(strand pedigree of a
/// runtime context) == context::strand_id() — tested in pedigree_test.
constexpr std::uint64_t hash(const pedigree& p) {
  std::uint64_t h = root_seed;
  for (std::uint64_t r : p.ranks) h = mix(h, r);
  return h;
}

/// Lexicographic rank-list order, shorter-prefix-first. This is exactly the
/// serial execution order of strands: a frame's strand at rank r runs before
/// the child it spawns at rank r (<…,r> < <…,r,0>), which runs before the
/// continuation (<…,r,x> < <…,r+1>). Reports sorted this way are therefore
/// in serial program order, independent of the schedule that found them.
bool before(const pedigree& a, const pedigree& b);

/// True when `prefix.ranks` is a (non-strict) prefix of `p.ranks`: the frame
/// or strand named by `prefix` is an ancestor of (or equal to) `p`.
bool is_prefix(const pedigree& prefix, const pedigree& p);

/// "<r0,r1,...,rk>" — the spelling used in reports, REPLAY lines, and
/// stress_fuzz artifacts.
std::string to_string(const pedigree& p);

/// Parses to_string's output (angle brackets optional, commas or spaces as
/// separators). Returns an empty pedigree on malformed input.
pedigree parse(std::string_view text);

/// Pedigree bookkeeping for the serial analyzers (cilkscreen's SP-bags and
/// SP-order engines, cilk::lint): one entry per procedure id, maintained by
/// the same enter_spawn / enter_call / sync events that drive SP
/// maintenance. Both engines number procedures in serial (elision) order and
/// fire identical event sequences, so the pedigrees they assign are
/// bit-identical — that is what makes cross-engine reports comparable.
class proc_pedigrees {
 public:
  /// Seeds procedure 0 (the root frame): empty prefix, rank 0.
  proc_pedigrees();

  /// A child frame (spawned or called) entered under `parent`; `child` must
  /// be the next unused procedure id. Consumes one rank of the parent:
  /// child prefix = parent prefix ++ [parent rank], then the parent's rank
  /// advances.
  void on_child(std::uint32_t parent, std::uint32_t child);

  /// A sync boundary in procedure p: its rank advances.
  void on_sync(std::uint32_t p);

  std::size_t size() const { return procs_.size(); }
  std::uint64_t rank(std::uint32_t p) const { return procs_[p].rank; }

  /// The currently executing strand of procedure p.
  pedigree strand(std::uint32_t p) const { return strand_at(p, rank(p)); }

  /// The strand procedure p was executing when its rank was `r` — used to
  /// materialize the *first* endpoint of a race, whose rank was captured
  /// when the access happened, possibly many events ago.
  pedigree strand_at(std::uint32_t p, std::uint64_t r) const;

  /// hash(strand(p)) without materializing the list.
  std::uint64_t strand_hash(std::uint32_t p) const {
    return mix(procs_[p].prefix_hash, procs_[p].rank);
  }

  /// hash(strand_at(p, r)) without materializing the list.
  std::uint64_t strand_hash_at(std::uint32_t p, std::uint64_t r) const {
    return mix(procs_[p].prefix_hash, r);
  }

  /// One deterministic draw for p's current strand: the k-th draw of a
  /// strand is mix(strand_hash, k), matching rt::context::dprng_draw.
  std::uint64_t draw(std::uint32_t p) {
    entry& e = procs_[p];
    return mix(mix(e.prefix_hash, e.rank), ++e.draws);
  }

 private:
  struct entry {
    std::vector<std::uint64_t> prefix;  ///< birth ranks, root-to-here
    std::uint64_t prefix_hash;          ///< fold of prefix from root_seed
    std::uint64_t rank;                 ///< current rank within the frame
    std::uint64_t draws;                ///< dprng draws on the current strand
  };
  std::vector<entry> procs_;
};

}  // namespace cilkpp::ped
