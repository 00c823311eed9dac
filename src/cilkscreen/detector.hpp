// The Cilkscreen determinacy-race detector (paper Sec. 4).
//
//   "A data race exists if logically parallel strands access the same shared
//    location, the two strands hold no locks in common, and at least one of
//    the strands writes to the location."
//
//   "In a single serial execution on a test input for a deterministic
//    program, Cilkscreen guarantees to report a race bug if the race bug is
//    exposed."
//
// The original tool intercepts every load/store with binary instrumentation
// (Pin); this reproduction intercepts through source-level hooks instead —
// screen::cell<T> wrappers or explicit on_read/on_write calls — which feed
// the identical algorithm (DESIGN.md substitution #3). Detection combines:
//   * a series-parallel relation, the template parameter Sp: SP-bags
//     (spbags.hpp, what Cilkscreen shipped — screen::detector) or SP-order
//     (sporder.hpp, the paper's ref [2] — screen::order_detector). The
//     relation owns the strand identity, the parallel-control events and
//     the query "is this remembered strand parallel with the current one";
//     everything below is one code path for both, so each engine is the
//     other's reference in the cross-engine tests;
//   * ALL-SETS access histories (history.hpp): each shadow location keeps
//     one remembered access per distinct non-subsumed lockset, so the
//     guarantee above holds even when the same location is touched under
//     different locks (a single last-reader/last-writer cell would forget
//     exactly the access a later one races with);
//   * reducer awareness (paper Sec. 5): accesses routed through a reducer
//     view — registered by hyperobject identity via on_view — are
//     exempt from determinacy-race reports, while a raw access logically
//     parallel with a view access on the same hyperobject is reported as a
//     view race (race_kind::view).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cilkscreen/history.hpp"
#include "cilkscreen/race_types.hpp"
#include "cilkscreen/report.hpp"
#include "cilkscreen/shadow.hpp"
#include "cilkscreen/spbags.hpp"
#include "cilkscreen/sporder.hpp"
#include "lint/analyzer.hpp"
#include "memlens/analyzer.hpp"

namespace cilkpp::rt {
struct hyperobject_base;  // identity only; defined in runtime/hyper_iface.hpp
}  // namespace cilkpp::rt

namespace cilkpp::screen {

template <typename Sp>
class basic_detector {
 public:
  /// The relation's strand identity: a procedure id (SP-bags) or a
  /// Hebrew-order node (SP-order).
  using strand = typename Sp::strand;

  basic_detector();

  basic_detector(const basic_detector&) = delete;
  basic_detector& operator=(const basic_detector&) = delete;

  // --- Parallel-control events (driven by screen_context). ---
  proc_id root() const { return root_; }
  proc_id enter_spawn(proc_id parent);
  void exit_spawn(proc_id parent, proc_id child);
  proc_id enter_call(proc_id parent);
  void exit_call(proc_id parent, proc_id child);
  void sync(proc_id f);

  // --- Memory events. ---
  void on_read(proc_id current, const void* addr, std::size_t size,
               const char* label = nullptr);
  void on_write(proc_id current, const void* addr, std::size_t size,
                const char* label = nullptr);

  // --- Lock events (execution is serial: one global current lockset).
  // `current` is the acquiring/releasing procedure, for lint provenance. ---
  lock_id register_lock() { return next_lock_++; }
  void lock_acquired(proc_id current, lock_id id);
  void lock_released(proc_id current, lock_id id);

  // --- Hyperobject events (reducer awareness). ---
  /// Associates the hyperobject's user-visible value bytes [base, base+size)
  /// with its identity. Idempotent; on_view registers lazily, so an
  /// explicit call is only needed to catch raw accesses that precede every
  /// view access on an otherwise-unused hyperobject.
  void register_hyperobject(const rt::hyperobject_base& h, const void* base,
                            std::size_t size, const char* label = nullptr);
  /// A strand fetched the hyperobject's view and accesses it through the
  /// reference (reducer::view under a screen context). Registers the
  /// hyperobject once (its value bytes, and its lens region when a memlens
  /// analyzer is attached). The fetch feeds an attached lint analyzer's
  /// view-escape check. The access is exempt from determinacy-race
  /// reports, but checked against raw accesses — a raw access logically
  /// parallel with it is a view race (locks are ignored: no lock discipline
  /// can protect against bypassing a reducer).
  void on_view(proc_id current, const rt::hyperobject_base& h,
               const void* base, std::size_t size, access_kind kind,
               const char* label = nullptr);

  // --- Lock-discipline analysis (cilk::lint). ---
  /// The lint analyzer for this engine. Its pair-parallel predicate is the
  /// relation's: exact under SP-order, conservatively true under SP-bags,
  /// which can only order a remembered strand against the CURRENT one —
  /// see lint/analyzer.hpp.
  using lint_analyzer = lint::analyzer<strand>;
  /// Attaches (nullptr: detaches) an analyzer; it receives every lock,
  /// boundary, and view-identity event from here on. The analyzer must
  /// outlive its attachment; call la->finish() after the run.
  void attach_lint(lint_analyzer* la) {
    lint_ = la;
    if (la != nullptr) la->set_pedigrees(&peds_);
  }
  lint_analyzer* attached_lint() const { return lint_; }

  // --- Cache-line sharing analysis (cilk::memlens). ---
  /// The memlens analyzer for this engine: the remembered-vs-current
  /// parallel predicate is the relation's own (exact) race query. Accessor
  /// identity inside the analyzer is (proc, pedigree rank), the same under
  /// both relations, which is what makes the two engines' lens reports
  /// bit-identical — see memlens/analyzer.hpp.
  using memlens_analyzer = memlens::analyzer<strand>;
  /// Attaches (nullptr: detaches) an analyzer; it receives every
  /// instrumented access and registered region from here on. The analyzer
  /// must outlive its attachment; call ml->finish() after the run.
  void attach_memlens(memlens_analyzer* ml) {
    lens_ = ml;
    if (ml != nullptr) ml->set_pedigrees(&peds_);
  }
  memlens_analyzer* attached_memlens() const { return lens_; }
  /// Registers a runtime-owned allocation for the padding lints (reducer
  /// view slots arrive automatically via register_hyperobject; this is the
  /// hook for everything else — pools, stat blocks, arenas).
  void lens_region(const void* base, std::size_t size,
                   const char* label = nullptr) {
    if (lens_ != nullptr) lens_->on_region(base, size, label);
  }

  // --- Results. ---
  /// Reports in deterministic (address, first_proc, second_proc) order.
  const std::vector<race_record>& races() const;
  bool found_races() const { return !races_.empty(); }
  const detector_stats& stats() const { return stats_; }
  /// Procedure tree for spawn-path provenance (report.hpp).
  const proc_tree& procedures() const { return tree_; }
  /// histogram[n] = number of touched shadow bytes remembering n accesses.
  std::vector<std::uint64_t> history_histogram() const;
  /// The series-parallel relation, for its own counters
  /// (sp_order::relabel_count).
  const Sp& relation() const { return sp_; }
  /// Pedigree bookkeeping (one entry per procedure, same rank rules as the
  /// runtime — reports carry these so they compare across engines/runs).
  const ped::proc_pedigrees& pedigrees() const { return peds_; }
  /// The current strand of procedure p, and its deterministic draw stream.
  ped::pedigree strand_pedigree(proc_id p) const { return peds_.strand(p); }
  std::uint64_t strand_id(proc_id p) const { return peds_.strand_hash(p); }
  std::uint64_t dprng_draw(proc_id p) { return peds_.draw(p); }
  /// Race reports are deduplicated per (address, kind pair); cap the total
  /// to keep pathological programs manageable.
  static constexpr std::size_t max_reports = 1000;

 private:
  using entry = history_entry<strand>;
  struct shadow_cell {
    access_history<strand> hist;
  };
  struct hyper_state {
    const rt::hyperobject_base* id = nullptr;
    std::uintptr_t lo = 0, hi = 0;  // the value's bytes, [lo, hi)
    const char* label = nullptr;
    access_history<strand> views;
  };

  void on_access(proc_id current, const void* addr, std::size_t size,
                 access_kind kind, const char* label);
  void report(race_kind rk, std::uintptr_t addr, const entry& first,
              proc_id current, access_kind second_kind,
              const char* second_label);
  hyper_state* find_hyper(const rt::hyperobject_base& h);
  /// register_hyperobject, returning the hyperobject's state.
  hyper_state& register_view(const rt::hyperobject_base& h, const void* base,
                             std::size_t size, const char* label);

  Sp sp_;
  lint_analyzer* lint_ = nullptr;
  memlens_analyzer* lens_ = nullptr;
  ped::proc_pedigrees peds_;
  proc_id root_;
  proc_tree tree_;
  shadow_table<shadow_cell> shadow_;
  std::vector<hyper_state> hypers_;
  lockset held_;
  lock_id next_lock_ = 0;
  mutable std::vector<race_record> races_;
  mutable bool races_sorted_ = true;
  std::unordered_set<std::uint64_t> reported_;  // dedup per (address, kinds)
  detector_stats stats_;
};

// Both engines are compiled once, in detector.cpp.
extern template class basic_detector<sp_bags>;
extern template class basic_detector<sp_order>;

/// SP-bags (what Cilkscreen shipped) and SP-order (paper ref [2]).
using detector = basic_detector<sp_bags>;
using order_detector = basic_detector<sp_order>;

}  // namespace cilkpp::screen
