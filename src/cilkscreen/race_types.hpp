// Shared vocabulary of the race-detection engines: procedure ids, locksets,
// access kinds, race reports, and engine statistics. Both engines
// (basic_detector in detector.hpp, over SP-bags or SP-order) speak these
// types, so contexts, tests, and the report renderer are engine-agnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pedigree/pedigree.hpp"
#include "support/small_vector.hpp"

namespace cilkpp::screen {

/// A Cilk procedure instance, numbered in execution (elision) order.
using proc_id = std::uint32_t;
inline constexpr proc_id invalid_proc = static_cast<proc_id>(-1);

using lock_id = std::uint32_t;
/// Locks held by an access; accesses hold few locks, so a small vector
/// beats a set.
using lockset = small_vector<lock_id, 2>;

inline bool lockset_contains(const lockset& s, lock_id x) {
  for (const lock_id y : s)
    if (y == x) return true;
  return false;
}

/// a ⊆ b.
inline bool lockset_subset(const lockset& a, const lockset& b) {
  for (const lock_id x : a)
    if (!lockset_contains(b, x)) return false;
  return true;
}

/// a ∩ b = ∅.
inline bool lockset_disjoint(const lockset& a, const lockset& b) {
  for (const lock_id x : a)
    if (lockset_contains(b, x)) return false;
  return true;
}

enum class access_kind : std::uint8_t { read, write };

/// Determinacy races are the paper's Sec. 4 definition; view races are the
/// reducer-awareness extension — a raw access logically parallel with a
/// reducer-view access on the same hyperobject (Sec. 5's "Cilkscreen
/// understands reducer hyperobjects").
enum class race_kind : std::uint8_t { determinacy, view };

/// One reported race. Both endpoints carry their access kind, procedure, and
/// user label; spawn-path provenance is reconstructed from the engine's
/// procedure tree by the report renderer (report.hpp).
struct race_record {
  race_kind kind = race_kind::determinacy;
  std::uintptr_t address = 0;  ///< racing byte; hyperobject base for view races
  access_kind first = access_kind::write;   ///< the remembered earlier access
  access_kind second = access_kind::write;  ///< the current access
  proc_id first_proc = invalid_proc;
  proc_id second_proc = invalid_proc;
  /// Schedule-independent endpoint identities: the pedigree of the strand
  /// that performed each access. These are what make reports comparable
  /// across engines and across runs — proc ids and addresses are not
  /// stable under ASLR or rescheduling.
  ped::pedigree first_ped;
  ped::pedigree second_ped;
  std::string first_label;   ///< user label at the first endpoint, if any
  std::string second_label;  ///< user label at the second endpoint, if any
};

/// Deterministic report order: (address, pedigrees, procs), with the
/// remaining fields as tie-breakers so equal-position reports still order
/// stably across runs. Pedigree order is serial program order of the first
/// endpoint, so within one run both engines sort identical reports
/// identically regardless of how each numbered its procedures.
inline bool race_report_order(const race_record& a, const race_record& b) {
  if (a.address != b.address) return a.address < b.address;
  if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
  if (a.second_ped != b.second_ped)
    return ped::before(a.second_ped, b.second_ped);
  if (a.first_proc != b.first_proc) return a.first_proc < b.first_proc;
  if (a.second_proc != b.second_proc) return a.second_proc < b.second_proc;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.first != b.first) return a.first < b.first;
  return a.second < b.second;
}

/// Address-free digest of one race: kinds, labels, and both pedigrees. Two
/// runs of the same program produce the same fingerprint for the same
/// logical race even under ASLR (no addresses) and any schedule (pedigrees
/// are schedule-independent).
inline std::uint64_t race_fingerprint(const race_record& r) {
  std::uint64_t h = ped::mix(0x52414345u, static_cast<std::uint64_t>(r.kind));
  h = ped::mix(h, static_cast<std::uint64_t>(r.first));
  h = ped::mix(h, static_cast<std::uint64_t>(r.second));
  h = ped::mix(h, ped::hash(r.first_ped));
  h = ped::mix(h, ped::hash(r.second_ped));
  for (const char c : r.first_label) h = ped::mix(h, static_cast<unsigned char>(c));
  for (const char c : r.second_label) h = ped::mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Order-insensitive digest of a whole report set: fingerprints are folded
/// in an address-free order (pedigrees first), so the digest is identical
/// across engines, runs, and chaos schedules iff the logical report sets
/// are. This is the cross-run dedup key.
inline std::uint64_t report_set_fingerprint(std::vector<race_record> rs) {
  const auto address_free_order = [](const race_record& a,
                                     const race_record& b) {
    if (a.first_ped != b.first_ped) return ped::before(a.first_ped, b.first_ped);
    if (a.second_ped != b.second_ped)
      return ped::before(a.second_ped, b.second_ped);
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.first != b.first) return a.first < b.first;
    if (a.second != b.second) return a.second < b.second;
    if (a.first_label != b.first_label) return a.first_label < b.first_label;
    return a.second_label < b.second_label;
  };
  std::sort(rs.begin(), rs.end(), address_free_order);
  std::uint64_t h = ped::root_seed;
  for (const race_record& r : rs) h = ped::mix(h, race_fingerprint(r));
  return h;
}

struct detector_stats {
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_checked = 0;
  std::uint64_t procedures = 0;
  std::uint64_t races_found = 0;
  std::uint64_t races_lock_suppressed = 0;
  /// ALL-SETS bookkeeping: accesses dropped because a location's history was
  /// full (history_capacity distinct locksets already remembered). A nonzero
  /// count means the completeness guarantee is weakened for that location.
  std::uint64_t history_spills = 0;
  /// Reducer awareness: accesses routed through hyperobject views, and the
  /// subset of reported races that are view races.
  std::uint64_t view_accesses = 0;
  std::uint64_t view_races = 0;
  /// Lock discipline: releases with no matching acquisition (double unlock).
  /// Formerly a hard abort; the engine now stays consistent and counts it —
  /// an attached lint::analyzer additionally renders a diagnostic.
  std::uint64_t unmatched_releases = 0;
};

}  // namespace cilkpp::screen
