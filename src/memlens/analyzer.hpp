// cilk::memlens — the cache-line sharing & locality analyzer.
//
// The analyzer consumes the instrumented memory-access stream an SP engine
// (cilkscreen's SP-bags detector or the SP-order engine) already produces
// during the serial elision-order execution, folds it into per-64-byte-line
// histories, and asks a question neither race engine asks: do two logically
// PARALLEL strands touch DISJOINT bytes of the same line, at least one
// writing? No byte is shared, so no race exists and cilkscreen is silent —
// but on real hardware the coherence protocol bounces the whole line
// between the strands' cores every time ownership changes. That is false
// sharing, and it is invisible to every tool in this repo until now.
//
// Per line the analyzer keeps a capacity-bounded, spill-counted accessor
// history: one entry per distinct strand that touched the line, carrying
// the strand's engine identity (for SP queries), its procedure + pedigree
// rank (for schedule-independent report identity), and two byte-offset
// bitmaps (reads / writes). Each new access classifies against every
// remembered accessor of its line:
//
//   serially ordered            → suppressed_serial (reuse, not sharing);
//   parallel, byte sets overlap → suppressed_true (a determinacy race or
//                                 deliberately synchronized communication —
//                                 the race engines' / programmer's domain);
//   parallel, disjoint, ≥1 write→ a false_sharing lens_record.
//
// Orthogonally, runtime-owned allocations (reducer view slots, stress
// pools, anything the engines register) feed on_region; finish() reports
// distinct regions co-resident on one line as padding records — the
// structural form of the same bug, caught before any access pattern shows
// it.
//
// The template parameter Sid is the engine's strand identity (proc_id for
// SP-bags, an order-maintenance H node for SP-order) — the same
// substitution access_history and lint::analyzer make. Parallelism is
// queried through a predicate passed per access:
//
//   parallel(s) — is remembered strand s logically parallel with the
//                 currently executing one? Exact under both engines (it is
//                 their race query), so unlike lint's cycle search nothing
//                 here is conservative: both engines classify every pair
//                 identically, which is what makes the cross-engine
//                 fingerprint equality tests possible.
//
// Everything is bounded: accessors per line (line_accessor_capacity,
// spill-counted) and total reports (max_reports), with per-(line, strand
// pair) dedup so a hot loop re-touching a shared line produces one
// diagnostic, not millions.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cilkscreen/race_types.hpp"
#include "cilkscreen/shadow.hpp"
#include "memlens/memlens_types.hpp"
#include "pedigree/pedigree.hpp"

namespace cilkpp::memlens {

template <typename Sid>
class analyzer {
 public:
  analyzer() : lines_(1 << 10) {}

  analyzer(const analyzer&) = delete;
  analyzer& operator=(const analyzer&) = delete;

  /// Optional pedigree source (the attaching engine's bookkeeping). When
  /// set, accessors capture the acting strand's rank so records carry
  /// schedule-independent endpoint identities and the pair dedup is keyed
  /// by strand hash; when null records keep empty pedigrees, dedup falls
  /// back to (proc, rank) packing, and everything else works.
  void set_pedigrees(const ped::proc_pedigrees* p) { peds_ = p; }

  /// Reports are deduplicated per (line, strand pair); cap the total like
  /// the race engines do, so pathological programs stay manageable.
  static constexpr std::size_t max_reports = 1000;
  /// Remembered accessor strands per line. Lines shared by more distinct
  /// strands than this drop the excess (spill-counted): completeness
  /// degrades gracefully instead of the history growing with the DAG.
  static constexpr std::size_t line_accessor_capacity = 16;

  // --- Memory events (fed by the attached engine). ---

  /// One instrumented access of [addr, addr+size) by `strand` (executing in
  /// procedure `proc`). Split per spanned cache line, folded into each
  /// line's accessor history, and classified against every remembered
  /// accessor under the engine's `parallel` predicate.
  template <typename Parallel>
  void on_access(Sid strand, screen::proc_id proc, std::uintptr_t addr,
                 std::size_t size, screen::access_kind kind,
                 const char* label, const Parallel& parallel) {
    if (size == 0 || addr == 0) return;
    const std::uint64_t rank = cur_rank(proc);
    const std::uintptr_t last = line_of(addr + (size - 1));
    for (std::uintptr_t line = line_of(addr);; line += line_bytes) {
      const std::uintptr_t lo = std::max(line, addr);
      const std::uintptr_t hi = std::min(line + line_bytes, addr + size);
      const byte_mask m = mask_of(line_offset(lo), hi - lo);
      if (line != 0) {
        touch_line(line, strand, proc, rank, m, kind, label, parallel);
      }
      if (line == last) break;
    }
  }

  // --- Region events (padding lints). ---

  /// Registers a runtime-owned allocation [base, base+size) — a reducer
  /// view slot, a pool element, a stat block. finish() reports distinct
  /// regions co-resident on one cache line as padding records. Re-register
  /// at the same base to update the extent (first label wins).
  void on_region(const void* base, std::size_t size, const char* label) {
    const auto lo = reinterpret_cast<std::uintptr_t>(base);
    if (lo == 0 || size == 0) return;
    for (region& r : regions_) {
      if (r.lo == lo) {
        r.hi = lo + size;
        if (r.label == nullptr) r.label = label;
        return;
      }
    }
    regions_.push_back({lo, lo + size, label});
    ++stats_.regions;
  }

  /// End of the computation: emit the padding lints (idempotent).
  void finish() {
    if (finished_) return;
    finished_ = true;
    std::sort(regions_.begin(), regions_.end(),
              [](const region& a, const region& b) { return a.lo < b.lo; });
    for (std::size_t i = 0; i + 1 < regions_.size(); ++i) {
      const region& a = regions_[i];
      const region& b = regions_[i + 1];
      if (b.lo < a.hi) continue;  // nested/overlapping: the same memory
                                  // registered twice, not two structures
      const std::uintptr_t shared = line_of(b.lo);
      if (line_of(a.hi - 1) != shared) continue;
      lens_record r;
      r.kind = lens_kind::padding;
      r.line = shared;
      r.first_mask = mask_of(line_offset(std::max(a.lo, shared)),
                             a.hi - std::max(a.lo, shared));
      r.second_mask = mask_of(line_offset(b.lo),
                              std::min(b.hi, shared + line_bytes) - b.lo);
      if (a.label != nullptr) r.first_label = a.label;
      if (b.label != nullptr) r.second_label = b.label;
      push(std::move(r));
    }
  }

  // --- Results. ---

  /// Diagnostics in deterministic lens_report_order.
  const std::vector<lens_record>& records() const {
    if (!sorted_) {
      std::sort(records_.begin(), records_.end(), lens_report_order);
      sorted_ = true;
    }
    return records_;
  }
  bool clean() const { return records_.empty(); }
  const lens_stats& stats() const { return stats_; }

  /// One row of the contention table: a line ranked by how much parallel
  /// disjoint-byte traffic it absorbed.
  struct line_summary {
    std::uintptr_t line = 0;
    std::uint32_t accessors = 0;   ///< distinct remembered strands
    std::uint64_t accesses = 0;    ///< total instrumented touches
    std::uint64_t fs_pairs = 0;    ///< deduped false-sharing pairs found here
    std::uint64_t spills = 0;      ///< accessor entries dropped (capacity)
  };
  /// The `top_n` most contended lines: false-sharing pairs first, then raw
  /// touch count, then line address (deterministic within a run).
  std::vector<line_summary> contended_lines(std::size_t top_n) const {
    std::vector<line_summary> out;
    lines_.for_each([&](std::uintptr_t line, const line_state& ls) {
      out.push_back({line, static_cast<std::uint32_t>(ls.acc.size()),
                     ls.accesses, ls.fs_pairs, ls.spills});
    });
    std::sort(out.begin(), out.end(),
              [](const line_summary& a, const line_summary& b) {
                if (a.fs_pairs != b.fs_pairs) return a.fs_pairs > b.fs_pairs;
                if (a.accesses != b.accesses) return a.accesses > b.accesses;
                return a.line < b.line;
              });
    if (out.size() > top_n) out.resize(top_n);
    return out;
  }

  /// Per-procedure locality summary: how many lines the procedure's strands
  /// touched and how often it came back to them. reuse = accesses / lines;
  /// low reuse with a wide line set is a cache-thrashing smell even with no
  /// sharing at all. (Line counts are approximate once a line's accessor
  /// history spills: an evicted procedure re-touching the line is counted
  /// as a fresh line.)
  struct strand_summary {
    screen::proc_id proc = screen::invalid_proc;
    std::uint64_t accesses = 0;
    std::uint64_t lines = 0;
  };
  std::vector<strand_summary> footprints() const {
    std::vector<strand_summary> out;
    for (screen::proc_id p = 0; p < footprint_.size(); ++p) {
      if (footprint_[p].accesses == 0) continue;
      out.push_back({p, footprint_[p].accesses, footprint_[p].lines});
    }
    return out;
  }

 private:
  /// One remembered strand on one line. Strand identity for merging is
  /// (proc, ped_rank) — identical across both engines by construction —
  /// while `strand` keeps the engine-native handle for SP queries.
  struct accessor {
    Sid strand;
    screen::proc_id proc = screen::invalid_proc;
    std::uint64_t ped_rank = 0;
    byte_mask reads = 0;
    byte_mask writes = 0;
    const char* label = nullptr;
    std::uint64_t count = 0;
  };
  struct line_state {
    std::vector<accessor> acc;
    std::uint64_t accesses = 0;
    std::uint64_t fs_pairs = 0;
    std::uint64_t spills = 0;
  };
  struct region {
    std::uintptr_t lo = 0, hi = 0;
    const char* label = nullptr;
  };
  struct per_proc {
    std::uint64_t accesses = 0;
    std::uint64_t lines = 0;
  };

  std::uint64_t cur_rank(screen::proc_id p) const {
    return peds_ != nullptr ? peds_->rank(p) : 0;
  }
  ped::pedigree strand_of(screen::proc_id p, std::uint64_t rank) const {
    return peds_ != nullptr ? peds_->strand_at(p, rank) : ped::pedigree{};
  }
  /// Dedup identity of a strand: pedigree hash when available (stable
  /// across engines and runs), (proc, rank) packing otherwise.
  std::uint64_t strand_key(screen::proc_id p, std::uint64_t rank) const {
    return peds_ != nullptr
               ? peds_->strand_hash_at(p, rank)
               : (static_cast<std::uint64_t>(p) << 32) ^ rank;
  }

  template <typename Parallel>
  void touch_line(std::uintptr_t line, Sid strand, screen::proc_id proc,
                  std::uint64_t rank, byte_mask m, screen::access_kind kind,
                  const char* label, const Parallel& parallel) {
    ++stats_.accesses;
    // Single cell() per event; no other lookups happen while ls is live, so
    // the reference cannot be invalidated by growth (see shadow.hpp).
    line_state& ls = lines_.cell(line);
    if (ls.accesses++ == 0) ++stats_.lines_touched;

    accessor* self = nullptr;
    bool proc_seen = false;
    for (accessor& a : ls.acc) {
      if (a.proc == proc) {
        proc_seen = true;
        if (a.ped_rank == rank) self = &a;
      }
    }
    if (proc >= footprint_.size()) footprint_.resize(proc + 1);
    ++footprint_[proc].accesses;
    if (!proc_seen) ++footprint_[proc].lines;

    if (self == nullptr) {
      if (ls.acc.size() >= line_accessor_capacity) {
        ++ls.spills;
        ++stats_.accessor_spills;
      } else {
        ls.acc.push_back({strand, proc, rank, 0, 0, label, 0});
        self = &ls.acc.back();
      }
    }
    byte_mask cur_all = m;
    bool cur_writes = kind == screen::access_kind::write;
    if (self != nullptr) {
      if (kind == screen::access_kind::write) {
        self->writes |= m;
      } else {
        self->reads |= m;
      }
      if (self->label == nullptr) self->label = label;
      ++self->count;
      cur_all = self->reads | self->writes;
      cur_writes = self->writes != 0;
    }

    for (const accessor& a : ls.acc) {
      if (&a == self) continue;
      if (a.proc == proc && a.ped_rank == rank) continue;
      if (!cur_writes && a.writes == 0) continue;  // read-read: harmless
      if (!parallel(a.strand)) {
        ++stats_.suppressed_serial;
        continue;
      }
      if (((a.reads | a.writes) & cur_all) != 0) {
        ++stats_.suppressed_true;
        continue;
      }
      report_false_sharing(line, ls, a, proc, rank, cur_all, cur_writes,
                           label);
    }
  }

  void report_false_sharing(std::uintptr_t line, line_state& ls,
                            const accessor& a, screen::proc_id proc,
                            std::uint64_t rank, byte_mask cur_all,
                            bool cur_writes, const char* label) {
    // Symmetric pair dedup: the same two strands found in either order on
    // the same line fold to one diagnostic.
    const std::uint64_t h1 = strand_key(a.proc, a.ped_rank);
    const std::uint64_t h2 = strand_key(proc, rank);
    const std::uint64_t key =
        ped::mix(ped::mix(line, std::min(h1, h2)), std::max(h1, h2));
    if (!fs_reported_.insert(key).second) return;
    ++ls.fs_pairs;
    lens_record r;
    r.kind = lens_kind::false_sharing;
    r.line = line;
    r.first_mask = a.reads | a.writes;
    r.second_mask = cur_all;
    r.first = a.writes != 0 ? screen::access_kind::write
                            : screen::access_kind::read;
    r.second = cur_writes ? screen::access_kind::write
                          : screen::access_kind::read;
    r.first_proc = a.proc;
    r.second_proc = proc;
    r.first_ped = strand_of(a.proc, a.ped_rank);
    r.second_ped = strand_of(proc, rank);
    if (a.label != nullptr) r.first_label = a.label;
    if (label != nullptr) r.second_label = label;
    push(std::move(r));
  }

  void push(lens_record r) {
    ++stats_.records_found;
    if (records_.size() >= max_reports) return;
    records_.push_back(std::move(r));
    sorted_ = false;
  }

  const ped::proc_pedigrees* peds_ = nullptr;
  screen::shadow_table<line_state> lines_;
  std::vector<per_proc> footprint_;
  std::vector<region> regions_;
  bool finished_ = false;

  mutable std::vector<lens_record> records_;
  mutable bool sorted_ = true;
  std::set<std::uint64_t> fs_reported_;
  lens_stats stats_;
};

}  // namespace cilkpp::memlens
