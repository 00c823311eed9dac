// cilk::lint — the dynamic lock-discipline analyzer.
//
// The analyzer consumes the event stream an SP engine (cilkscreen's SP-bags
// detector or the SP-order engine) already produces during the serial
// elision-order execution — lock acquire/release, spawn/sync boundaries,
// reducer view fetches and raw overlaps — and turns it into lint_records:
//
//   * a GoodLock-style lock-order graph: every acquisition of l while
//     holding h adds an edge h→l remembering the acquiring strand and the
//     full held lockset. A new edge that closes a cycle is a potential
//     deadlock ONLY if the SP engine proves the participating strands
//     logically parallel (the classic serially-ordered-ABBA false positive
//     is pruned, counted in stats().suppressed_serial) and the acquisition
//     sites share no gate lock outside the cycle (GoodLock suppression,
//     counted in stats().suppressed_gate);
//   * held-lock checks at strand boundaries (spawn/sync), at spawned-
//     procedure exit, and at finish() — lock_across_spawn/sync and
//     abandoned_lock;
//   * unmatched_release, demoted from the engines' former hard abort;
//   * view_escape: a reducer view observed raw by a strand serially after
//     (and distinct from) the strand that obtained it.
//
// The template parameter Sid is the engine's strand identity (proc_id for
// SP-bags, an order-maintenance node for SP-order) — the same substitution
// the shared access_history makes. Parallelism is queried through two
// predicates passed per acquisition:
//
//   parallel(s)      — is remembered strand s logically parallel with the
//                      currently executing one? (both engines answer this
//                      exactly — it is their race query);
//   pair(s1, s2)     — are two REMEMBERED strands parallel, s1 recorded
//                      before s2? SP-order answers exactly (one label
//                      comparison); SP-bags cannot order two remembered
//                      strands and conservatively answers true, so cycles
//                      of ≥ 3 locks may over-report under SP-bags in
//                      shapes where the inner sites are serially ordered.
//                      2-lock cycles always have the current strand as one
//                      endpoint and are exact under both engines.
//
// Everything is bounded: sites per edge (edge_site_capacity, spill-counted),
// searched cycle length (max_cycle_locks), and total reports (max_reports),
// with per-kind exact dedup so repeated executions of the same broken site
// produce one diagnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cilkscreen/race_types.hpp"
#include "lint/lint_types.hpp"

namespace cilkpp::lint {

enum class boundary : std::uint8_t { spawn, sync };

template <typename Sid>
class analyzer {
 public:
  analyzer() = default;

  analyzer(const analyzer&) = delete;
  analyzer& operator=(const analyzer&) = delete;

  /// Optional pedigree source (the attaching engine's bookkeeping). When
  /// set, every event captures the acting strand's rank so records carry
  /// schedule-independent endpoint identities; when null records keep
  /// empty pedigrees and everything else works.
  void set_pedigrees(const ped::proc_pedigrees* p) { peds_ = p; }

  /// Reports are deduplicated per site; cap the total like the race
  /// engines do, so pathological programs stay manageable.
  static constexpr std::size_t max_reports = 1000;
  /// Remembered acquisition sites per lock-order edge. A site is one
  /// (strand, held lockset); distinct sites matter because gate suppression
  /// and the SP relation both depend on which strand acquired under what.
  static constexpr std::size_t edge_site_capacity = 8;
  /// Longest lock cycle searched for (path DFS bound). Real deadlocks
  /// beyond 4 locks exist but are rare; the bound keeps the per-acquire
  /// cost flat.
  static constexpr std::size_t max_cycle_locks = 4;

  // --- Lock events (fed by the attached engine, pre-validated: release
  // events arrive only for locks the engine saw acquired). ---

  template <typename Parallel, typename PairParallel>
  void on_acquire(Sid strand, screen::proc_id proc, screen::lock_id l,
                  const Parallel& parallel, const PairParallel& pair) {
    ++stats_.acquires;
    screen::lockset held_before;
    for (const held_lock& h : held_) held_before.push_back(h.l);
    for (const held_lock& h : held_) {
      close_cycles(h.l, l, proc, held_before, parallel, pair);
    }
    for (const held_lock& h : held_) {
      add_site(h.l, l, strand, proc, held_before);
    }
    held_.push_back({l, proc, strand, cur_rank(proc)});
  }

  void on_release(screen::proc_id proc, screen::lock_id l) {
    (void)proc;
    ++stats_.releases;
    for (std::size_t i = held_.size(); i-- > 0;) {
      if (held_[i].l == l) {
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    // Attached mid-run: the acquisition predates us; nothing to unwind.
    // (Whether a release matches is the ENGINE's call — it owns the
    // lockset — so no unmatched_release is recorded here.)
  }

  void on_unmatched_release(screen::proc_id proc, screen::lock_id l) {
    if (!seen_once(unmatched_reported_, pack(l, proc))) return;
    lint_record r;
    r.kind = lint_kind::unmatched_release;
    r.lock = l;
    r.first_proc = proc;
    r.second_proc = proc;
    r.first_ped = cur_strand(proc);
    r.second_ped = r.first_ped;
    push(std::move(r));
  }

  // --- Strand-boundary events. ---

  /// A spawn or sync executed by `proc`: the held-lock set must be empty
  /// at strand boundaries; every violating lock is reported with both the
  /// acquiring and the boundary procedure.
  void on_boundary(boundary b, screen::proc_id proc) {
    ++stats_.boundaries_checked;
    for (const held_lock& h : held_) {
      const lint_kind kind = b == boundary::spawn ? lint_kind::lock_across_spawn
                                                  : lint_kind::lock_across_sync;
      if (!seen_once(boundary_reported_,
                     std::make_pair(static_cast<std::uint64_t>(kind),
                                    pack(h.l, proc)))) {
        continue;
      }
      lint_record r;
      r.kind = kind;
      r.lock = h.l;
      r.first_proc = h.proc;
      r.second_proc = proc;
      r.first_ped = strand_of(h.proc, h.ped_rank);
      r.second_ped = cur_strand(proc);  // engines fire the boundary event
                                        // before bumping the rank, so this
                                        // is the strand CROSSING the boundary
      push(std::move(r));
    }
  }

  /// A *spawned* procedure returned: locks it acquired and still holds are
  /// abandoned — its strand ended, nobody in the continuation owns them.
  /// (Locks acquired by still-live ancestors are legitimately held here.)
  void on_procedure_exit(screen::proc_id proc) {
    for (const held_lock& h : held_) {
      if (h.proc == proc) report_abandoned(h);
    }
  }

  /// End of the computation: everything still held is abandoned.
  void finish() {
    for (const held_lock& h : held_) report_abandoned(h);
  }

  // --- Reducer view events (the view-identity hook). ---

  /// A strand obtained (fetched) a view of the hyperobject identified by
  /// `hyper`; only the latest fetch per hyperobject is remembered — it is
  /// the one a cached reference would alias.
  void on_view_fetch(const void* hyper, Sid strand, screen::proc_id proc,
                     std::uintptr_t lo, const char* label) {
    const std::uint64_t r = cur_rank(proc);
    for (view_fetch& f : fetches_) {
      if (f.hyper == hyper) {
        f.strand = strand;
        f.proc = proc;
        f.lo = lo;
        f.label = label;
        f.ped_rank = r;
        return;
      }
    }
    fetches_.push_back({hyper, strand, proc, lo, label, r});
  }

  /// A raw access overlapping the hyperobject's view bytes by `proc`. If
  /// the last fetch came from a DIFFERENT strand that is serially ordered
  /// before this one, the view reference escaped its strand. (Logically
  /// parallel raw accesses are the race engines' view-race domain and are
  /// not duplicated here.)
  template <typename Parallel>
  void on_raw_view_access(const void* hyper, screen::proc_id proc,
                          const Parallel& parallel, const char* raw_label) {
    for (const view_fetch& f : fetches_) {
      if (f.hyper != hyper) continue;
      if (f.proc == proc) return;       // same strand: a legitimate use
      if (parallel(f.strand)) return;   // parallel: view race, not escape
      if (!seen_once(escape_reported_,
                     std::make_pair(f.lo, pack_pair(f.proc, proc)))) {
        return;
      }
      lint_record r;
      r.kind = lint_kind::view_escape;
      r.address = f.lo;
      r.first_proc = f.proc;
      r.second_proc = proc;
      r.first_ped = strand_of(f.proc, f.ped_rank);
      r.second_ped = cur_strand(proc);
      if (f.label != nullptr) r.first_label = f.label;
      if (raw_label != nullptr) r.second_label = raw_label;
      push(std::move(r));
      return;
    }
  }

  // --- Results. ---

  /// Diagnostics in deterministic lint_report_order.
  const std::vector<lint_record>& records() const {
    if (!sorted_) {
      std::sort(records_.begin(), records_.end(), lint_report_order);
      sorted_ = true;
    }
    return records_;
  }
  bool clean() const { return records_.empty(); }
  const lint_stats& stats() const { return stats_; }

 private:
  struct held_lock {
    screen::lock_id l;
    screen::proc_id proc;    ///< acquiring procedure (provenance)
    Sid strand;              ///< acquiring strand (SP queries)
    std::uint64_t ped_rank;  ///< acquiring strand's pedigree rank
  };
  struct edge_site {
    Sid strand;
    screen::proc_id proc;
    screen::lockset held;    ///< full held set when acquiring (incl. `from`)
    std::uint64_t seq;       ///< recording order, for pair() orientation
    std::uint64_t ped_rank;  ///< acquiring strand's pedigree rank
  };
  struct edge {
    screen::lock_id from, to;
    std::vector<edge_site> sites;
  };

  static std::uint64_t pack(screen::lock_id l, screen::proc_id p) {
    return (static_cast<std::uint64_t>(l) << 32) | p;
  }
  static std::uint64_t pack_pair(screen::proc_id a, screen::proc_id b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  template <typename Key>
  static bool seen_once(std::set<Key>& seen, Key k) {
    return seen.insert(std::move(k)).second;
  }

  // Pedigree capture: rank at event time, pedigree materialized lazily (a
  // procedure's prefix never changes after creation, only its rank moves).
  std::uint64_t cur_rank(screen::proc_id p) const {
    return peds_ != nullptr ? peds_->rank(p) : 0;
  }
  ped::pedigree cur_strand(screen::proc_id p) const {
    return peds_ != nullptr ? peds_->strand(p) : ped::pedigree{};
  }
  ped::pedigree strand_of(screen::proc_id p, std::uint64_t rank) const {
    return peds_ != nullptr ? peds_->strand_at(p, rank) : ped::pedigree{};
  }

  void push(lint_record r) {
    ++stats_.records_found;
    if (records_.size() >= max_reports) return;
    records_.push_back(std::move(r));
    sorted_ = false;
  }

  void report_abandoned(const held_lock& h) {
    if (!seen_once(abandoned_reported_, pack(h.l, h.proc))) return;
    lint_record r;
    r.kind = lint_kind::abandoned_lock;
    r.lock = h.l;
    r.first_proc = h.proc;
    r.second_proc = h.proc;
    r.first_ped = strand_of(h.proc, h.ped_rank);
    r.second_ped = cur_strand(h.proc);
    push(std::move(r));
  }

  edge* find_edge(screen::lock_id from, screen::lock_id to) {
    for (edge& e : edges_) {
      if (e.from == from && e.to == to) return &e;
    }
    return nullptr;
  }

  void add_site(screen::lock_id from, screen::lock_id to, Sid strand,
                screen::proc_id proc, const screen::lockset& held) {
    edge* e = find_edge(from, to);
    if (e == nullptr) {
      edges_.push_back({from, to, {}});
      e = &edges_.back();
      ++stats_.edges;
    }
    for (const edge_site& s : e->sites) {
      // Exact duplicate (same strand, same held set): one site suffices —
      // both the SP answer and the gate set would be identical.
      if (s.strand == strand && s.held.size() == held.size() &&
          screen::lockset_subset(s.held, held)) {
        return;
      }
    }
    if (e->sites.size() >= edge_site_capacity) {
      ++stats_.edge_spills;
      return;
    }
    e->sites.push_back({strand, proc, held, seq_++, cur_rank(proc)});
    ++stats_.edge_sites;
  }

  /// The current strand holds `h` and acquires `l` (the new edge h→l); any
  /// existing path l ⇝ h closes a lock cycle. Enumerate simple paths by
  /// DFS, then search each candidate cycle for a site assignment that
  /// survives the SP and gate constraints.
  template <typename Parallel, typename PairParallel>
  void close_cycles(screen::lock_id h, screen::lock_id l,
                    screen::proc_id proc, const screen::lockset& held_before,
                    const Parallel& parallel, const PairParallel& pair) {
    if (h == l || edges_.empty()) return;
    std::vector<screen::lock_id> path{l};
    dfs_paths(path, h, proc, held_before, parallel, pair);
  }

  template <typename Parallel, typename PairParallel>
  void dfs_paths(std::vector<screen::lock_id>& path, screen::lock_id target,
                 screen::proc_id proc, const screen::lockset& held_before,
                 const Parallel& parallel, const PairParallel& pair) {
    const screen::lock_id cur = path.back();
    for (const edge& e : edges_) {
      if (e.from != cur || e.sites.empty()) continue;
      if (e.to == target) {
        path.push_back(target);
        examine_cycle(path, proc, held_before, parallel, pair);
        path.pop_back();
        continue;
      }
      if (path.size() + 1 >= max_cycle_locks) continue;
      if (std::find(path.begin(), path.end(), e.to) != path.end()) continue;
      path.push_back(e.to);
      dfs_paths(path, target, proc, held_before, parallel, pair);
      path.pop_back();
    }
  }

  /// `path` = [l, …, h]: remembered edges path[i]→path[i+1] plus the new
  /// edge h→l (the in-flight acquisition). Backtracking over one site per
  /// remembered edge; a full assignment must be pairwise SP-parallel and
  /// pairwise gate-disjoint (locksets minus the cycle's own locks).
  template <typename Parallel, typename PairParallel>
  void examine_cycle(const std::vector<screen::lock_id>& path,
                     screen::proc_id proc, const screen::lockset& held_before,
                     const Parallel& parallel, const PairParallel& pair) {
    ++stats_.cycle_candidates;
    screen::lockset cycle_locks;
    for (const screen::lock_id x : path) cycle_locks.push_back(x);
    // The in-flight acquisition as a pseudo-site (it has no seq yet; it is
    // serially last, and `parallel` already orients remembered-vs-current).
    screen::lockset new_gates = minus(held_before, cycle_locks);

    std::vector<const edge_site*> chosen;
    bool serial_block = false, gate_block = false;
    const bool found = assign_sites(path, 0, cycle_locks, new_gates, chosen,
                                    parallel, pair, serial_block, gate_block);
    if (!found) {
      if (serial_block) {
        ++stats_.suppressed_serial;
      } else if (gate_block) {
        ++stats_.suppressed_gate;
      }
      return;
    }
    // Normalize the cycle to start at its smallest lock id and dedup.
    std::vector<screen::lock_id> cyc(path.begin(), path.end());
    std::rotate(cyc.begin(),
                std::min_element(cyc.begin(), cyc.end()), cyc.end());
    if (!seen_once(reported_cycles_, cyc)) return;
    lint_record r;
    r.kind = lint_kind::deadlock_cycle;
    r.cycle = std::move(cyc);
    r.lock = r.cycle.front();
    r.first_proc = chosen.front()->proc;
    r.second_proc = proc;
    r.first_ped = strand_of(chosen.front()->proc, chosen.front()->ped_rank);
    r.second_ped = cur_strand(proc);
    push(std::move(r));
  }

  template <typename Parallel, typename PairParallel>
  bool assign_sites(const std::vector<screen::lock_id>& path, std::size_t i,
                    const screen::lockset& cycle_locks,
                    const screen::lockset& new_gates,
                    std::vector<const edge_site*>& chosen,
                    const Parallel& parallel, const PairParallel& pair,
                    bool& serial_block, bool& gate_block) {
    if (i + 1 >= path.size()) return true;  // every remembered edge assigned
    const edge* e = find_edge(path[i], path[i + 1]);
    if (e == nullptr) return false;
    for (const edge_site& s : e->sites) {
      // Against the in-flight acquisition: SP-exact under both engines.
      if (!parallel(s.strand)) {
        serial_block = true;
        continue;
      }
      const screen::lockset gates = minus(s.held, cycle_locks);
      if (!screen::lockset_disjoint(gates, new_gates)) {
        gate_block = true;
        continue;
      }
      bool ok = true;
      for (const edge_site* t : chosen) {
        const edge_site& a = s.seq < t->seq ? s : *t;
        const edge_site& b = s.seq < t->seq ? *t : s;
        if (!pair(a.strand, b.strand)) {
          serial_block = true;
          ok = false;
          break;
        }
        if (!screen::lockset_disjoint(gates, minus(t->held, cycle_locks))) {
          gate_block = true;
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      chosen.push_back(&s);
      if (assign_sites(path, i + 1, cycle_locks, new_gates, chosen, parallel,
                       pair, serial_block, gate_block)) {
        return true;
      }
      chosen.pop_back();
    }
    return false;
  }

  static screen::lockset minus(const screen::lockset& a,
                               const screen::lockset& b) {
    screen::lockset out;
    for (const screen::lock_id x : a) {
      if (!screen::lockset_contains(b, x)) out.push_back(x);
    }
    return out;
  }

  struct view_fetch {
    const void* hyper;
    Sid strand;
    screen::proc_id proc;
    std::uintptr_t lo;
    const char* label;
    std::uint64_t ped_rank;  ///< fetching strand's pedigree rank
  };

  const ped::proc_pedigrees* peds_ = nullptr;
  std::vector<held_lock> held_;
  std::vector<edge> edges_;
  std::uint64_t seq_ = 0;
  std::vector<view_fetch> fetches_;

  mutable std::vector<lint_record> records_;
  mutable bool sorted_ = true;
  std::set<std::pair<std::uint64_t, std::uint64_t>> boundary_reported_;
  std::set<std::uint64_t> unmatched_reported_;
  std::set<std::uint64_t> abandoned_reported_;
  std::set<std::pair<std::uintptr_t, std::uint64_t>> escape_reported_;
  std::set<std::vector<screen::lock_id>> reported_cycles_;
  lint_stats stats_;
};

}  // namespace cilkpp::lint
