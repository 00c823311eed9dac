// Shared vocabulary of the lock-discipline analyzer (cilk::lint).
//
// The paper's Cilkscreen section warns that locks both hide determinacy
// races and introduce hazards of their own — deadlock, contention, lost
// strand purity. The race engines (src/cilkscreen) already observe every
// acquire/release during the serial elision-order execution; the lint layer
// turns that stream plus the SP relation into discipline diagnostics. A
// lint_record is the lint analog of race_record: one diagnostic with both
// endpoints carrying proc_tree provenance, rendered by lint/report.hpp and
// deterministically ordered so tool output diffs cleanly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cilkscreen/race_types.hpp"
#include "pedigree/pedigree.hpp"

namespace cilkpp::lint {

inline constexpr screen::lock_id invalid_lock =
    static_cast<screen::lock_id>(-1);

enum class lint_kind : std::uint8_t {
  /// A cycle in the lock-order graph between logically parallel strands
  /// with no common gate lock: the schedules the serial run did NOT take
  /// include one that deadlocks.
  deadlock_cycle,
  /// A lock held while spawning: the child (and the continuation) start
  /// inside the critical section — strand purity is lost and the lock's
  /// scope silently spans parallel work.
  lock_across_spawn,
  /// A lock held at a sync: the joining strands serialize behind it.
  lock_across_sync,
  /// A lock still held when its strand ended (spawned procedure returned,
  /// or the computation finished) — nobody left to release it.
  abandoned_lock,
  /// A release with no matching acquisition (e.g. a double unlock).
  /// Previously a hard CILKPP_UNREACHABLE abort in both engines; the
  /// engines now stay consistent and report instead.
  unmatched_release,
  /// A reducer view's bytes observed raw by a strand serially AFTER (and
  /// distinct from) the strand that obtained the view: the reference was
  /// cached across a strand boundary, where the real runtime would have
  /// swapped views underneath it. (The logically-parallel variant is a
  /// view *race* and stays with the race engines.)
  view_escape,
};

/// One lint diagnostic. `first_proc` is the earlier / remembered endpoint
/// (the acquisition, the view fetch), `second_proc` the current one (the
/// closing acquisition, the boundary, the raw observation); spawn-path
/// provenance for both is reconstructed from the engine's proc_tree by
/// lint/report.hpp, exactly like race reports.
struct lint_record {
  lint_kind kind = lint_kind::deadlock_cycle;
  /// Primary lock (deadlock_cycle: the cycle's smallest lock id).
  screen::lock_id lock = invalid_lock;
  /// deadlock_cycle only: the locks in acquisition order, rotated so the
  /// smallest id leads; cycle = {a, b} reads "a then b then a again".
  std::vector<screen::lock_id> cycle;
  /// view_escape only: base address of the observed view bytes.
  std::uintptr_t address = 0;
  screen::proc_id first_proc = screen::invalid_proc;
  screen::proc_id second_proc = screen::invalid_proc;
  /// Schedule-independent endpoint identities: the pedigree of each
  /// endpoint's strand, captured at event time — what makes lint reports
  /// comparable across engines and runs.
  ped::pedigree first_ped;
  ped::pedigree second_ped;
  std::string first_label;   ///< e.g. the hyperobject label at the fetch
  std::string second_label;  ///< e.g. the user label at the raw access
};

/// Deterministic report order: (kind, lock, cycle, pedigrees, address,
/// procs) — stable across runs for identical executions; pedigree-keyed so
/// both SP engines order identical diagnostics identically.
inline bool lint_report_order(const lint_record& a, const lint_record& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.lock != b.lock) return a.lock < b.lock;
  if (a.cycle != b.cycle) return a.cycle < b.cycle;
  if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
  if (a.second_ped != b.second_ped)
    return ped::before(a.second_ped, b.second_ped);
  if (a.address != b.address) return a.address < b.address;
  if (a.first_proc != b.first_proc) return a.first_proc < b.first_proc;
  return a.second_proc < b.second_proc;
}

/// Address-free digest of one diagnostic: kind, locks, pedigrees, labels —
/// stable across runs (no addresses, no proc ids).
inline std::uint64_t lint_fingerprint(const lint_record& r) {
  std::uint64_t h = ped::mix(0x4c494e54u, static_cast<std::uint64_t>(r.kind));
  h = ped::mix(h, r.lock);
  for (const screen::lock_id l : r.cycle) h = ped::mix(h, l);
  h = ped::mix(h, ped::hash(r.first_ped));
  h = ped::mix(h, ped::hash(r.second_ped));
  for (const char c : r.first_label) h = ped::mix(h, static_cast<unsigned char>(c));
  for (const char c : r.second_label) h = ped::mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Order-insensitive digest of a whole diagnostic set (sorted by the
/// address-free part of the record before folding) — the cross-run /
/// cross-engine comparison key for lint output.
inline std::uint64_t lint_set_fingerprint(std::vector<lint_record> rs) {
  const auto address_free_order = [](const lint_record& a,
                                     const lint_record& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.lock != b.lock) return a.lock < b.lock;
    if (a.cycle != b.cycle) return a.cycle < b.cycle;
    if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
    if (a.second_ped != b.second_ped)
      return ped::before(a.second_ped, b.second_ped);
    if (a.first_label != b.first_label) return a.first_label < b.first_label;
    return a.second_label < b.second_label;
  };
  std::sort(rs.begin(), rs.end(), address_free_order);
  std::uint64_t h = ped::root_seed;
  for (const lint_record& r : rs) h = ped::mix(h, lint_fingerprint(r));
  return h;
}

struct lint_stats {
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  /// Spawn/sync boundaries checked for held locks.
  std::uint64_t boundaries_checked = 0;
  /// Lock-order graph bookkeeping.
  std::uint64_t edges = 0;       ///< distinct (from, to) lock pairs
  std::uint64_t edge_sites = 0;  ///< remembered acquisition sites
  std::uint64_t edge_spills = 0; ///< sites dropped at edge_site_capacity
  /// Lock cycles examined, and why the pruned ones were pruned: the SP
  /// engine proved the strands serially ordered, or a common gate lock
  /// serializes the acquisitions (GoodLock-style suppression).
  std::uint64_t cycle_candidates = 0;
  std::uint64_t suppressed_serial = 0;
  std::uint64_t suppressed_gate = 0;
  /// Diagnostics found (before the dedup/report cap).
  std::uint64_t records_found = 0;
};

}  // namespace cilkpp::lint
