// Serial elision (paper Sec. 1): "parallel code retains its serial semantics
// when run on one processor … the program would be an ordinary C++ program
// if the three keywords were elided."
//
// serial_context implements the same engine surface as rt::context — spawn,
// sync, call, account — but spawn simply calls the child, exactly the
// elision. Workloads written once against a generic engine run under the
// real scheduler, under elision (the <2%-overhead baseline of experiment
// E6), under the dag recorder, and under the race detector.
//
// The elision maintains the same strand pedigrees as the runtime (rank rules
// in pedigree/pedigree.hpp): spawn and call consume a rank and chain the
// child's hash, sync advances the rank. The stress oracle compares dprng
// streams across engines, so the bookkeeping here must match rt::context
// bit for bit.
#pragma once

#include <cstdint>
#include <utility>

#include "pedigree/pedigree.hpp"
#include "runtime/cilk_for.hpp"

namespace cilkpp::rt {

class serial_context {
 public:
  serial_context() : work_(&own_work_) {}

  serial_context(const serial_context&) = delete;
  serial_context& operator=(const serial_context&) = delete;

  /// Elided cilk_spawn: run the child now, to completion.
  template <typename Fn>
  void spawn(Fn&& fn) {
#if CILKPP_PEDIGREE_ENABLED
    serial_context child(work_, ped::mix(ped_hash_, rank_));
    bump_rank();
#else
    serial_context child(work_);
#endif
    std::forward<Fn>(fn)(child);
  }

  /// Elided cilk_sync: every child already completed, but the strand after
  /// the sync is new — its rank advances, as under the runtime.
  void sync() {
#if CILKPP_PEDIGREE_ENABLED
    bump_rank();
#endif
  }

  /// A plain call of a Cilk function (consumes a rank, like spawn).
  template <typename Fn>
  auto call(Fn&& fn) {
#if CILKPP_PEDIGREE_ENABLED
    serial_context child(work_, ped::mix(ped_hash_, rank_));
    bump_rank();
#else
    serial_context child(work_);
#endif
    return std::forward<Fn>(fn)(child);
  }

  /// The elision runs on one worker, so parallel_for's default grain is the
  /// runtime's at P = 1; pass an explicit grain when comparing pedigrees or
  /// dprng streams against a multi-worker run.
  unsigned num_workers() const { return 1; }

  /// Work accounting: accumulated so serial runs report T1 in the same
  /// units the recorder charges.
  void account(std::uint64_t units) { *work_ += units; }

  std::uint64_t accounted_work() const { return *work_; }

#if CILKPP_PEDIGREE_ENABLED
  /// Strand identity and DPRNG, identical to rt::context's for the same
  /// strand (same hash chain, same draw indexing).
  std::uint64_t strand_id() const { return ped::mix(ped_hash_, rank_); }
  std::uint64_t dprng_draw() { return ped::mix(strand_id(), ++draws_); }
#endif

 private:
#if CILKPP_PEDIGREE_ENABLED
  serial_context(std::uint64_t* shared_work, std::uint64_t ped_hash)
      : work_(shared_work), ped_hash_(ped_hash) {}

  void bump_rank() {
    ++rank_;
    draws_ = 0;
  }
#else
  explicit serial_context(std::uint64_t* shared_work) : work_(shared_work) {}
#endif

  std::uint64_t own_work_ = 0;
  std::uint64_t* work_;
#if CILKPP_PEDIGREE_ENABLED
  std::uint64_t ped_hash_ = ped::root_seed;
  std::uint64_t rank_ = 0;
  std::uint64_t draws_ = 0;
#endif
};

}  // namespace cilkpp::rt

namespace cilk {
using cilkpp::rt::serial_context;
}  // namespace cilk
