// Multi-runtime isolation (ROADMAP "Multicilk"): N independent
// rt::scheduler instances in one process, each with its own worker pool,
// deques, CPU-affinity partition, and statistics.
//
// Isolation is *structural*, not policed: a thief's victim loop iterates
// only its own scheduler's workers_ vector (scheduler::steal_and_execute),
// so a strand of instance A can never migrate to, or steal from, instance
// B — there is no code path that could express it. What this class adds on
// top of bare schedulers is the tenant bookkeeping: building a partition
// (one contiguous CPU slice per instance), per-instance stats snapshots,
// and an isolation audit that checks the steal-provenance invariants the
// structural argument predicts (every steal accounted to an in-instance
// victim, none to self, none lost).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace cilkpp::serve {

/// Per-instance slice of the isolation audit.
struct instance_isolation {
  std::string name;
  unsigned workers = 0;
  std::uint64_t steals = 0;             ///< successful steals inside the instance
  std::uint64_t provenance_sum = 0;     ///< Σ steals_by_victim over its workers
  std::uint64_t self_steals = 0;        ///< steals_by_victim[w] on worker w (must be 0)
  bool consistent() const {
    return steals == provenance_sum && self_steals == 0;
  }
};

/// Result of runtime_set::verify_isolation.
struct isolation_report {
  std::vector<instance_isolation> instances;
  /// True iff every instance's steal provenance is internally consistent —
  /// combined with the structural argument above, zero cross-instance
  /// stealing. (Cross-instance steals cannot even be *counted*: a worker's
  /// steals_by_victim is sized to its own instance.)
  bool isolated = true;
};

/// Owns N independent schedulers. Instances are constructed eagerly (their
/// pool threads exist for the set's whole lifetime, parked when idle) and
/// never share any scheduler state; the only sharing is the process-wide
/// slab allocator, whose magazines are per-thread by design.
class runtime_set {
 public:
  explicit runtime_set(std::vector<rt::scheduler_options> options);

  runtime_set(const runtime_set&) = delete;
  runtime_set& operator=(const runtime_set&) = delete;

  std::size_t size() const { return instances_.size(); }
  rt::scheduler& at(std::size_t i) { return *instances_.at(i); }
  const rt::scheduler& at(std::size_t i) const { return *instances_.at(i); }

  /// Aggregate stats of one instance (quiescence rules of scheduler::stats
  /// apply per instance: no run() in flight *on that instance*).
  rt::worker_stats instance_stats(std::size_t i) const {
    return instances_.at(i)->stats();
  }
  void reset_stats();

  /// Audits the steal-provenance invariants on every instance. Call at
  /// quiescence (no run() in flight anywhere in the set).
  isolation_report verify_isolation() const;

  /// A partitioned option vector: `instances` runtimes splitting CPUs
  /// [0, total_cpus) into contiguous slices (total_cpus == 0 means one per
  /// hardware thread). Every instance gets >= 1 CPU even when instances >
  /// CPUs (slices then overlap on the tail CPUs — oversubscription, the
  /// 1-core CI case). workers_each == 0 sizes each pool to its slice.
  static std::vector<rt::scheduler_options> partitioned(
      std::size_t instances, unsigned workers_each = 0,
      unsigned total_cpus = 0);

 private:
  std::vector<std::unique_ptr<rt::scheduler>> instances_;
};

}  // namespace cilkpp::serve

namespace cilk::serve {
using cilkpp::serve::isolation_report;
using cilkpp::serve::runtime_set;
}  // namespace cilk::serve
