// trace::session — capture one scheduler run into per-worker event rings.
//
//   cilk::scheduler sched(4);
//   cilkpp::trace::session cap(sched);          // installs the rings
//   sched.run([](cilk::context& ctx) { ... });
//   cilkpp::trace::timeline t = cap.assemble(); // detaches, drains, sweeps
//
// One session should cover exactly one run(): frame identities are pedigree
// hashes, which repeat across runs (the root's is a constant), so a second
// run in the same session overlays the first in the assembled timeline
// (counted under timeline::anomalies, never fatal).
//
// Attaching a session switches the scheduler's spawns, syncs and calls to
// their observed instantiation for the runs it covers; detaching switches
// them back, so a scheduler without a session pays no record site. A chaos
// policy may be installed beside a session: each hook fires what it fires
// alone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/event.hpp"
#include "trace/ring.hpp"
#include "trace/timeline.hpp"

namespace cilkpp::rt {
class scheduler;
}

namespace cilkpp::trace {

struct session_options {
  /// Events per worker ring (rounded up to a power of two). 1<<16 events
  /// is 2 MiB per worker; raise it for long runs to avoid counted drops.
  std::size_t ring_capacity = std::size_t{1} << 16;
};

class session {
 public:
  /// Attaches rings to every worker. The scheduler must be idle (no run()
  /// in flight) and must outlive the session.
  explicit session(rt::scheduler& sched, session_options opts = {});
  ~session();

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// True while the rings are installed.
  bool active() const { return active_; }

  /// Detaches the rings (idempotent; requires the scheduler to be idle).
  /// Recording stops; recorded()/dropped()/assemble() remain valid.
  void stop();

  /// Events successfully recorded across all rings so far.
  std::uint64_t recorded() const;
  /// Events dropped because a ring was full (recording never blocks).
  std::uint64_t dropped() const;

  /// Stops the capture and assembles the rings into a timeline. The rings
  /// are drained; calling assemble() twice yields an empty second timeline.
  timeline assemble();

 private:
  rt::scheduler* sched_;
  std::vector<std::unique_ptr<event_ring>> rings_;
  bool active_ = false;
};

}  // namespace cilkpp::trace
