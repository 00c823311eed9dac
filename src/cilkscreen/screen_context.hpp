// Execution engine for race detection: runs the program serially in elision
// order — exactly how Cilkscreen executes the parallel code (paper Sec. 4:
// "during a serial execution of the parallel code") — while feeding
// parallel-control and memory events to the detector.
//
// Workloads templated over an engine context run unchanged:
//
//   screen::detector d;
//   screen::run_under_detector(d, [&](screen::screen_context& ctx) {
//     walk(ctx, root);   // the same template as the real runtime runs
//   });
//   if (d.found_races()) ...
//
// Memory is instrumented at the source level via screen::cell<T> (an
// instrumented variable) or explicit ctx.note_read()/note_write() calls.
#pragma once

#include <cstdint>
#include <utility>

#include "cilkscreen/detector.hpp"
#include "cilkscreen/sporder.hpp"
#include "runtime/cilk_for.hpp"

namespace cilkpp::screen {

template <typename Detector>
class basic_screen_context {
 public:
  basic_screen_context(Detector& d, proc_id self) : d_(&d), self_(self) {}

  basic_screen_context(const basic_screen_context&) = delete;
  basic_screen_context& operator=(const basic_screen_context&) = delete;

  /// cilk_spawn, elided to a call, with engine bookkeeping.
  template <typename Fn>
  void spawn(Fn&& fn) {
    const proc_id child = d_->enter_spawn(self_);
    basic_screen_context child_ctx(*d_, child);
    std::forward<Fn>(fn)(child_ctx);
    d_->exit_spawn(self_, child);
  }

  /// cilk_sync.
  void sync() { d_->sync(self_); }

  /// A plain call of a Cilk function.
  template <typename Fn>
  auto call(Fn&& fn) {
    const proc_id child = d_->enter_call(self_);
    basic_screen_context child_ctx(*d_, child);
    if constexpr (std::is_void_v<decltype(fn(child_ctx))>) {
      std::forward<Fn>(fn)(child_ctx);
      d_->exit_call(self_, child);
    } else {
      auto result = std::forward<Fn>(fn)(child_ctx);
      d_->exit_call(self_, child);
      return result;
    }
  }

  /// Engine-compat: work accounting is irrelevant to race detection.
  void account(std::uint64_t) {}

  /// Source-level instrumentation hooks.
  void note_read(const void* addr, std::size_t size, const char* label = nullptr) {
    d_->on_read(self_, addr, size, label);
  }
  void note_write(const void* addr, std::size_t size, const char* label = nullptr) {
    d_->on_write(self_, addr, size, label);
  }

  /// Hyperobject hook: the calling strand fetched a reducer view and
  /// writes through it (paper Sec. 5). hyper::reducer::view() calls this
  /// automatically under screen contexts, so programs written against
  /// reducers are certified without extra instrumentation: raw accesses to
  /// the same hyperobject that run logically in parallel are reported as
  /// view races, an attached lint::analyzer can flag the reference escaping
  /// to a serially-later strand (lint_kind::view_escape), and an attached
  /// memlens::analyzer gets the view's bytes as a region.
  void note_view(rt::hyperobject_base& h, const void* base, std::size_t size,
                 const char* label = nullptr) {
    d_->on_view(self_, h, base, size, access_kind::write, label);
  }

  /// Memlens hook: registers a runtime-owned allocation [base, base+size)
  /// (a reducer view slot, a pool element, a stat block) so an attached
  /// memlens::analyzer can lint distinct structures sharing a cache line.
  /// No-op without an attached analyzer; reducer value bytes are registered
  /// automatically via register_hyperobject.
  void note_lens_region(const void* base, std::size_t size,
                        const char* label = nullptr) {
    d_->lens_region(base, size, label);
  }

  /// Pedigree surface, mirroring rt::context: the current strand's rank-list
  /// identity, its hash, and the deterministic DPRNG stream seeded by it.
  /// Because both engines replay the serial elision order with the same rank
  /// rules as the runtime, these match the runtime's values bit for bit.
  ped::pedigree pedigree() const { return d_->strand_pedigree(self_); }
  std::uint64_t strand_id() const { return d_->strand_id(self_); }
  std::uint64_t dprng_draw() { return d_->dprng_draw(self_); }

  Detector& screen_detector() const { return *d_; }
  proc_id procedure() const { return self_; }

 private:
  Detector* d_;
  proc_id self_;
};

/// The default engine is SP-bags (what Cilkscreen shipped); the SP-order
/// engine (paper ref [2]) is selected by order_context.
using screen_context = basic_screen_context<detector>;
using order_context = basic_screen_context<order_detector>;

/// Runs fn(root_context) under either detection engine.
template <typename Detector, typename Fn>
void run_under_detector(Detector& d, Fn&& fn) {
  basic_screen_context<Detector> root(d, d.root());
  std::forward<Fn>(fn)(root);
  d.sync(d.root());  // implicit sync of the root procedure
}

/// parallel_for (runtime/cilk_for.hpp): the runtime's binary-splitting
/// frame structure, so the series-parallel relationships the detector
/// certifies are exactly the parallel execution's. No worker count: the
/// default grain is 1.
using rt::parallel_for;

/// An instrumented variable: every get/set reports to the detector.
/// The closest source-level analog of Cilkscreen's load/store interception.
template <typename T>
class cell {
 public:
  cell() = default;
  explicit cell(T initial, const char* label = nullptr)
      : value_(std::move(initial)), label_(label) {}

  template <typename D>
  const T& get(basic_screen_context<D>& ctx) const {
    ctx.note_read(&value_, sizeof(T), label_);
    return value_;
  }

  template <typename D>
  void set(basic_screen_context<D>& ctx, T v) {
    ctx.note_write(&value_, sizeof(T), label_);
    value_ = std::move(v);
  }

  /// Read-modify-write (e.g. counter += 1): both a read and a write.
  template <typename D, typename Fn>
  void update(basic_screen_context<D>& ctx, Fn&& fn) {
    ctx.note_read(&value_, sizeof(T), label_);
    ctx.note_write(&value_, sizeof(T), label_);
    std::forward<Fn>(fn)(value_);
  }

  /// Uninstrumented access for checking final values after the run.
  const T& unsafe_value() const { return value_; }

 private:
  T value_{};
  const char* label_ = nullptr;
};

/// An instrumented mutex: acquisitions update the detector's lockset, so
/// races on accesses consistently protected by a common lock are suppressed
/// (the "hold no locks in common" clause of the race definition).
template <typename Detector>
class basic_screen_mutex {
 public:
  explicit basic_screen_mutex(Detector& d) : d_(&d), id_(d.register_lock()) {}

  void lock(basic_screen_context<Detector>& ctx) {
    d_->lock_acquired(ctx.procedure(), id_);
  }
  void unlock(basic_screen_context<Detector>& ctx) {
    d_->lock_released(ctx.procedure(), id_);
  }

  lock_id id() const { return id_; }

 private:
  Detector* d_;
  lock_id id_;
};

using screen_mutex = basic_screen_mutex<detector>;
using order_mutex = basic_screen_mutex<order_detector>;

}  // namespace cilkpp::screen
