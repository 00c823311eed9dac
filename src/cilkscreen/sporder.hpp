// The SP-order race-detection engine (Bender, Fineman, Gilbert & Leiserson,
// SPAA'04 — the paper's ref [2] for "on-the-fly maintenance of
// series-parallel relationships").
//
// Two order-maintenance lists are kept over *strands*:
//   English order E — the serial execution order (spawned child's subtree
//                     before the continuation);
//   Hebrew  order H — the mirror order (continuation strands before the
//                     spawned children's subtrees, children reversed).
// Strand x precedes strand y iff x comes before y in BOTH orders; since
// execution is serial (every remembered access is E-before the current
// strand), x runs logically in parallel with the current strand iff x is
// H-AFTER it — one label comparison per check, O(1).
//
// Insertion discipline (derived in comments below; validated against both
// SP-bags and dag-reachability ground truth by the property tests):
//  * first spawn of a sync block pre-creates the block's post-sync strand
//    node j in H, immediately after the current strand;
//  * each spawned child's H node is inserted immediately BEFORE the
//    previous child's (or before j for the first child), giving the
//    reversed-children Hebrew order  s0, s1, …, sk, ck, …, c1, j;
//  * continuations extend E and H right after the current strand;
//  * sync adopts j as the frame's current H node.
//
// Memory checks use the same ALL-SETS access histories and reducer
// awareness as the SP-bags engine (see detector.hpp and history.hpp); only
// the parallelism test differs. The public surface mirrors screen::detector
// so basic_screen_context can drive either engine.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cilkscreen/history.hpp"
#include "cilkscreen/order_maintenance.hpp"
#include "cilkscreen/race_types.hpp"
#include "cilkscreen/report.hpp"
#include "cilkscreen/shadow.hpp"
#include "lint/analyzer.hpp"
#include "memlens/analyzer.hpp"

namespace cilkpp::rt {
struct hyperobject_base;  // identity only; defined in runtime/hyper_iface.hpp
}  // namespace cilkpp::rt

namespace cilkpp::screen {

class order_detector {
 public:
  order_detector();

  order_detector(const order_detector&) = delete;
  order_detector& operator=(const order_detector&) = delete;

  // --- Parallel-control events (same shape as screen::detector). ---
  proc_id root() const { return 0; }
  proc_id enter_spawn(proc_id parent);
  void exit_spawn(proc_id parent, proc_id child);
  proc_id enter_call(proc_id parent);
  void exit_call(proc_id parent, proc_id child);
  void sync(proc_id frame);

  // --- Memory events. ---
  void on_read(proc_id current, const void* addr, std::size_t size,
               const char* label = nullptr);
  void on_write(proc_id current, const void* addr, std::size_t size,
                const char* label = nullptr);

  // --- Lock events. `current` is the acquiring/releasing procedure. ---
  lock_id register_lock() { return next_lock_++; }
  void lock_acquired(proc_id current, lock_id id);
  void lock_released(proc_id current, lock_id id);

  // --- Hyperobject events (reducer awareness; see detector.hpp). ---
  void register_hyperobject(const rt::hyperobject_base& h, const void* base,
                            std::size_t size, const char* label = nullptr);
  void on_view_access(proc_id current, const rt::hyperobject_base& h,
                      const void* base, std::size_t size, access_kind kind,
                      const char* label = nullptr);

  // --- Lock-discipline analysis (cilk::lint). ---
  /// Strands are identified by their Hebrew-order node, which lets this
  /// engine answer the pair-parallel query EXACTLY: for two remembered
  /// strands (earlier, later), parallel iff later H-precedes earlier.
  using lint_analyzer = lint::analyzer<om_list::node*>;
  void attach_lint(lint_analyzer* la) {
    lint_ = la;
    if (la != nullptr) la->set_pedigrees(&peds_);
  }
  lint_analyzer* attached_lint() const { return lint_; }
  void on_view_fetch(proc_id current, const rt::hyperobject_base& h,
                     const void* base, std::size_t size,
                     const char* label = nullptr);

  // --- Cache-line sharing analysis (cilk::memlens). ---
  /// Strands are identified by their Hebrew-order node; the parallel
  /// predicate is one H-label comparison, exact as always. Accessor
  /// identity inside the analyzer is (proc, pedigree rank) — shared with
  /// the SP-bags attachment — which is what makes the two engines' lens
  /// reports bit-identical.
  using memlens_analyzer = memlens::analyzer<om_list::node*>;
  void attach_memlens(memlens_analyzer* ml) {
    lens_ = ml;
    if (ml != nullptr) ml->set_pedigrees(&peds_);
  }
  memlens_analyzer* attached_memlens() const { return lens_; }
  /// Registers a runtime-owned allocation for the padding lints (see
  /// detector.hpp).
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
  std::uint64_t relabel_count() const {
    return english_.relabel_count() + hebrew_.relabel_count();
  }
  static constexpr std::size_t max_reports = 1000;
  /// Pedigree bookkeeping — identical, by construction, to the SP-bags
  /// engine's for the same program (both number procedures in serial order
  /// and fire the same enter/sync events).
  const ped::proc_pedigrees& pedigrees() const { return peds_; }
  ped::pedigree strand_pedigree(proc_id p) const { return peds_.strand(p); }
  std::uint64_t strand_id(proc_id p) const { return peds_.strand_hash(p); }
  std::uint64_t dprng_draw(proc_id p) { return peds_.draw(p); }

 private:
  struct frame {
    om_list::node* cur_e = nullptr;
    om_list::node* cur_h = nullptr;
    om_list::node* block_join = nullptr;   // pre-created post-sync H node
    om_list::node* last_child_h = nullptr; // H insertion barrier for children
  };

  /// Remembered strands are identified by their H node: a remembered access
  /// runs logically in parallel with the current strand iff the current
  /// strand H-precedes it.
  using entry = history_entry<om_list::node*>;
  struct shadow_cell {
    access_history<om_list::node*> hist;
  };
  struct hyper_state {
    const rt::hyperobject_base* id = nullptr;
    std::uintptr_t lo = 0, hi = 0;  // the value's bytes, [lo, hi)
    const char* label = nullptr;
    access_history<om_list::node*> views;
  };

  void on_access(proc_id current, const void* addr, std::size_t size,
                 access_kind kind, const char* label);
  /// The order-maintenance part of sync. The public sync() additionally
  /// fires the lint strand-boundary event; exit_call's IMPLICIT sync of the
  /// callee goes straight here — a plain call return is not a boundary the
  /// programmer wrote, and the SP-bags engine has no event there either.
  void sync_impl(proc_id f);
  void report(race_kind rk, std::uintptr_t addr, const entry& first,
              proc_id current, access_kind second_kind,
              const char* second_label);
  hyper_state* find_hyper(const rt::hyperobject_base& h);

  om_list english_;
  om_list hebrew_;
  lint_analyzer* lint_ = nullptr;
  memlens_analyzer* lens_ = nullptr;
  ped::proc_pedigrees peds_;
  std::vector<frame> frames_;
  proc_tree tree_;
  shadow_table<shadow_cell> shadow_;
  std::vector<hyper_state> hypers_;
  lockset held_;
  lock_id next_lock_ = 0;
  mutable std::vector<race_record> races_;
  mutable bool races_sorted_ = true;
  std::unordered_set<std::uint64_t> reported_;
  detector_stats stats_;
};

}  // namespace cilkpp::screen
