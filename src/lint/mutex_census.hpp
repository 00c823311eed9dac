// SP-blind lock census over the *threaded* runtime's cilk::mutex traffic.
//
// The lint analyzer proper runs on the serial elision-order execution,
// where the SP engines can prove parallelism. Production runs on the real
// scheduler have no SP oracle, but the mutex_observer hook still lets us
// profile the lock behavior the program actually exhibits: total
// acquire/release balance (an imbalance at quiescence is a leaked lock)
// and the peak per-thread nesting depth (depth ≥ 2 means lock-order cycles
// are *possible* and the program is worth a lint run under the detector).
// This is also the "lint attached at runtime" leg of bench_lint_overhead.
#pragma once

#include "runtime/mutex.hpp"

#include <atomic>
#include <cstdint>

namespace cilkpp::lint {

class mutex_census final : public rt::mutex_observer {
 public:
  void on_acquire(const void*) override {
    acquires_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t d = ++depth();
    std::uint64_t peak = peak_depth_.load(std::memory_order_relaxed);
    while (d > peak &&
           !peak_depth_.compare_exchange_weak(peak, d,
                                              std::memory_order_relaxed)) {
    }
  }

  void on_release(const void*) override {
    releases_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t& d = depth();
    if (d > 0) --d;
  }

  std::uint64_t acquires() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  std::uint64_t releases() const {
    return releases_.load(std::memory_order_relaxed);
  }
  /// true once every acquire has been matched by a release (quiescence).
  bool balanced() const { return acquires() == releases(); }
  /// Peak locks held simultaneously by any single thread. ≥ 2 means nested
  /// locking happened — run the program under an attached lint::analyzer.
  std::uint64_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }

 private:
  static std::uint64_t& depth() {
    thread_local std::uint64_t d = 0;
    return d;
  }

  std::atomic<std::uint64_t> acquires_{0};
  std::atomic<std::uint64_t> releases_{0};
  std::atomic<std::uint64_t> peak_depth_{0};
};

/// RAII install/remove of a census for one scope (a scheduler::run, a
/// benchmark loop). Restores the previously installed observer on exit.
class scoped_mutex_census {
 public:
  scoped_mutex_census() : previous_(rt::installed_mutex_observer()) {
    rt::install_mutex_observer(&census_);
  }
  ~scoped_mutex_census() { rt::install_mutex_observer(previous_); }

  scoped_mutex_census(const scoped_mutex_census&) = delete;
  scoped_mutex_census& operator=(const scoped_mutex_census&) = delete;

  mutex_census& census() { return census_; }

 private:
  mutex_census census_;
  rt::mutex_observer* previous_;
};

}  // namespace cilkpp::lint
