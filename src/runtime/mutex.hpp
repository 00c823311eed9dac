// The Cilk++ mutual-exclusion library (paper Sec. 1: "Cilk++ includes a
// library for mutual-exclusion (mutex) locks") with contention counters, so
// experiment E12 can report how often the Fig. 6 lock actually blocked.
//
// The mutex also carries the lint layer's observer hook: a process-wide
// mutex_observer sees every acquire/release, identified by the mutex's
// address. That is how lint's SP-blind census (lint/mutex_census.hpp)
// profiles the production lock traffic the serial-elision analyzers never
// see. With no observer installed the cost is one acquire load per
// operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace cilkpp::rt {

/// Sees every cilk::mutex acquire/release in the process, keyed by the
/// mutex's address. Callbacks run on the acquiring/releasing thread, under
/// the lock on acquire and still under it on release — keep them cheap and
/// reentrancy-free (do not take cilk::mutexes inside).
class mutex_observer {
 public:
  virtual ~mutex_observer() = default;
  virtual void on_acquire(const void* m) = 0;
  virtual void on_release(const void* m) = 0;
};

inline std::atomic<mutex_observer*>& mutex_observer_slot() {
  static std::atomic<mutex_observer*> slot{nullptr};
  return slot;
}

/// Installs (or, with nullptr, removes) the process-wide observer. The
/// caller must keep the observer alive until after removal; removal does
/// not wait for in-flight callbacks, so tear down only at quiescence.
inline void install_mutex_observer(mutex_observer* o) {
  mutex_observer_slot().store(o, std::memory_order_release);
}

inline mutex_observer* installed_mutex_observer() {
  return mutex_observer_slot().load(std::memory_order_acquire);
}

class mutex {
 public:
  void lock() {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    if (!m_.try_lock()) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      m_.lock();
    }
    note_acquired();
  }

  bool try_lock() {
    if (!m_.try_lock()) return false;
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    note_acquired();
    return true;
  }

  void unlock() {
    if (mutex_observer* o = installed_mutex_observer()) o->on_release(this);
    m_.unlock();
  }

  std::uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  /// Acquisitions that found the lock held and had to wait.
  std::uint64_t contended_acquisitions() const {
    return contended_.load(std::memory_order_relaxed);
  }

  void reset_counters() {
    acquisitions_.store(0, std::memory_order_relaxed);
    contended_.store(0, std::memory_order_relaxed);
  }

 private:
  void note_acquired() {
    if (mutex_observer* o = installed_mutex_observer()) o->on_acquire(this);
  }

  std::mutex m_;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> contended_{0};
};

}  // namespace cilkpp::rt

namespace cilk {
using cilkpp::rt::mutex;
}  // namespace cilk
