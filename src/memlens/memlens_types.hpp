// Shared vocabulary of the cache-line sharing/locality analyzer
// (cilk::memlens).
//
// The paper's pitch is that the *platform* finds concurrency pathologies —
// cilkscreen for races, cilkview for insufficient parallelism — yet neither
// sees the memory-system pathologies that dominate real multicore scaling:
// false sharing and poor strand locality. The SP engines (src/cilkscreen)
// already observe every instrumented load/store during the serial
// elision-order execution *and* can answer "are these two strands logically
// parallel" exactly; the memlens layer folds that stream into 64-byte
// cache-line histories and reports:
//
//   * false_sharing — two logically parallel strands touch DISJOINT byte
//     ranges of one line, at least one writing. On real hardware the
//     coherence protocol ping-pongs the whole line between their cores even
//     though no byte is actually shared. True-sharing overlaps are
//     deliberately suppressed (and counted): an overlapping parallel pair
//     is either a determinacy race (the race engines' domain) or
//     lock/reducer-synchronized communication the programmer asked for;
//   * padding — two distinct runtime-owned regions (reducer view slots,
//     task frames, worker stat blocks — anything registered through
//     on_region) co-resident on one line: a structural lint that the
//     allocation needs alignas(64)/padding before the sharing ever shows
//     up under load.
//
// A lens_record is the memlens analog of race_record/lint_record: one
// diagnostic whose endpoints carry pedigrees, rendered by memlens/report.hpp
// and deterministically ordered so tool output diffs cleanly. Fingerprints
// are ADDRESS-FREE — byte offsets within the line plus pedigrees and labels,
// never raw addresses — so they survive ASLR and compare bit-identical
// between the SP-bags and SP-order engines (both replay the same serial
// elision order and assign the same pedigrees).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cilkscreen/race_types.hpp"
#include "pedigree/pedigree.hpp"

namespace cilkpp::memlens {

/// Analysis granularity: one x86-64 cache line. Deliberately a constant of
/// the *analysis*, not of the host (matching support/cache.hpp): reports
/// must mean the same thing on every machine that reads them.
inline constexpr std::uintptr_t line_bytes = 64;

/// Bit k set = byte k of the line was touched. One word per line is what
/// makes the per-access bookkeeping O(accessors), not O(bytes).
using byte_mask = std::uint64_t;

/// The line containing `addr`.
constexpr std::uintptr_t line_of(std::uintptr_t addr) {
  return addr & ~(line_bytes - 1);
}

/// Byte offset of `addr` within its line.
constexpr unsigned line_offset(std::uintptr_t addr) {
  return static_cast<unsigned>(addr & (line_bytes - 1));
}

/// Mask of `len` bytes starting at line offset `off` (clamped to the line).
constexpr byte_mask mask_of(unsigned off, std::uintptr_t len) {
  if (off >= line_bytes || len == 0) return 0;
  const std::uintptr_t n = std::min<std::uintptr_t>(len, line_bytes - off);
  const byte_mask run = n >= 64 ? ~byte_mask{0} : ((byte_mask{1} << n) - 1);
  return run << off;
}

/// Lowest / highest set byte offsets of a non-empty mask (for rendering
/// "bytes [lo, hi]" spans).
constexpr unsigned mask_low(byte_mask m) {
  unsigned i = 0;
  while ((m & 1) == 0) {
    m >>= 1;
    ++i;
  }
  return i;
}
constexpr unsigned mask_high(byte_mask m) {
  unsigned i = 0;
  while (m >>= 1) ++i;
  return i;
}

enum class lens_kind : std::uint8_t {
  /// Two logically parallel strands touched disjoint byte ranges of one
  /// cache line, at least one of them writing: the hardware will bounce the
  /// line between their cores even though no data is shared.
  false_sharing,
  /// Two distinct registered runtime-owned regions share a cache line: the
  /// structure needs alignas/padding regardless of today's access pattern.
  padding,
};

/// One memlens diagnostic. For false_sharing the endpoints are the two
/// strands (first = the remembered earlier accessor, second = the current
/// one, as in race_record); for padding they are the two registered regions
/// (pedigrees empty, procs invalid — regions are structures, not strands).
struct lens_record {
  lens_kind kind = lens_kind::false_sharing;
  /// Base address of the shared line. Diagnostic context only — never part
  /// of the fingerprint (ASLR).
  std::uintptr_t line = 0;
  /// Bytes of the line touched by each endpoint at report time. Disjoint by
  /// construction for false_sharing.
  byte_mask first_mask = 0;
  byte_mask second_mask = 0;
  /// Strongest access kind of each endpoint (write if the endpoint ever
  /// wrote the line). Meaningful for false_sharing only.
  screen::access_kind first = screen::access_kind::read;
  screen::access_kind second = screen::access_kind::read;
  screen::proc_id first_proc = screen::invalid_proc;
  screen::proc_id second_proc = screen::invalid_proc;
  /// Schedule-independent endpoint identities (empty for padding
  /// records): the pedigree of each accessing strand, captured at access
  /// time.
  ped::pedigree first_ped;
  ped::pedigree second_ped;
  std::string first_label;   ///< user/runtime label at the first endpoint
  std::string second_label;  ///< user/runtime label at the second endpoint
};

/// Deterministic report order: (kind, line, masks, pedigrees, procs) —
/// stable across runs of the same execution; pedigree-keyed so both SP
/// engines order identical diagnostics identically.
inline bool lens_report_order(const lens_record& a, const lens_record& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.line != b.line) return a.line < b.line;
  if (a.first_mask != b.first_mask) return a.first_mask < b.first_mask;
  if (a.second_mask != b.second_mask) return a.second_mask < b.second_mask;
  if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
  if (a.second_ped != b.second_ped)
    return ped::before(a.second_ped, b.second_ped);
  if (a.first_proc != b.first_proc) return a.first_proc < b.first_proc;
  return a.second_proc < b.second_proc;
}

/// Address-free digest of one diagnostic: kind, within-line byte masks,
/// access kinds, pedigrees, labels — NO addresses, NO proc ids, so the same
/// logical report fingerprints identically under ASLR, across runs, and
/// across both SP engines.
inline std::uint64_t lens_fingerprint(const lens_record& r) {
  std::uint64_t h = ped::mix(0x4d454d4cu /*'MEML'*/,
                             static_cast<std::uint64_t>(r.kind));
  h = ped::mix(h, r.first_mask);
  h = ped::mix(h, r.second_mask);
  h = ped::mix(h, static_cast<std::uint64_t>(r.first));
  h = ped::mix(h, static_cast<std::uint64_t>(r.second));
  h = ped::mix(h, ped::hash(r.first_ped));
  h = ped::mix(h, ped::hash(r.second_ped));
  for (const char c : r.first_label)
    h = ped::mix(h, static_cast<unsigned char>(c));
  for (const char c : r.second_label)
    h = ped::mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Order-insensitive digest of a whole diagnostic set (sorted by the
/// address-free part of each record before folding): the cross-run /
/// cross-engine comparison key. Bit-identical between SP-bags and SP-order
/// for the same program — the memlens determinism tests hold both engines
/// to this.
inline std::uint64_t lens_set_fingerprint(std::vector<lens_record> rs) {
  const auto address_free_order = [](const lens_record& a,
                                     const lens_record& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
    if (a.second_ped != b.second_ped)
      return ped::before(a.second_ped, b.second_ped);
    if (a.first_mask != b.first_mask) return a.first_mask < b.first_mask;
    if (a.second_mask != b.second_mask) return a.second_mask < b.second_mask;
    if (a.first_label != b.first_label) return a.first_label < b.first_label;
    return a.second_label < b.second_label;
  };
  std::sort(rs.begin(), rs.end(), address_free_order);
  std::uint64_t h = ped::root_seed;
  for (const lens_record& r : rs) h = ped::mix(h, lens_fingerprint(r));
  return h;
}

struct lens_stats {
  /// Instrumented accesses folded into line histories (one per touched
  /// line, so a 12-byte access crossing a line boundary counts twice).
  std::uint64_t accesses = 0;
  std::uint64_t lines_touched = 0;
  /// Accessor entries dropped because a line's history was full
  /// (line_accessor_capacity distinct strands already remembered); nonzero
  /// means completeness degrades for lines shared that widely.
  std::uint64_t accessor_spills = 0;
  /// Parallel pairs whose byte ranges OVERLAP (≥1 write): true sharing —
  /// either a determinacy race (the race engines report it) or synchronized
  /// communication. Counted, never reported here.
  std::uint64_t suppressed_true = 0;
  /// Accessor pairs the SP engine proved serially ordered: a serial
  /// re-touch of a line is reuse, not sharing.
  std::uint64_t suppressed_serial = 0;
  /// Registered runtime-owned regions (padding-lint inputs).
  std::uint64_t regions = 0;
  /// Diagnostics found (before the dedup/report cap).
  std::uint64_t records_found = 0;
};

}  // namespace cilkpp::memlens
