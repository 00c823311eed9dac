// Chase–Lev lock-free work-stealing deque (paper Sec. 3.2):
//
//   "the stack is, in fact, a double-ended queue, with the worker operating
//    on the bottom and thieves stealing from the top."
//
// The owner pushes and pops at the bottom without synchronization in the
// common case; thieves race on the top index with a single compare-exchange.
// Memory ordering follows Lê, Pop, Cohen & Zappa Nardelli, "Correct and
// Efficient Work-Stealing for Weak Memory Models" (PPoPP'13).
//
// Retired buffers from growth are kept until destruction: a thief may still
// be reading an old buffer when the owner grows, so immediate reclamation
// would need hazard pointers; the total retired footprint is at most twice
// the final buffer (geometric growth), which is acceptable for deques whose
// peak depth tracks stack depth.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"
#include "support/cache.hpp"

namespace cilkpp {

/// Outcome of a steal attempt.
enum class steal_result : std::uint8_t {
  success,  ///< a task was stolen
  empty,    ///< the victim's deque was empty
  lost,     ///< lost a race with the owner or another thief; retry elsewhere
};

template <typename T>
class chase_lev_deque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque elements must be trivially copyable (store pointers)");

 public:
  explicit chase_lev_deque(std::size_t initial_capacity = 64)
      : buffer_(new ring(round_up(initial_capacity))) {
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  chase_lev_deque(const chase_lev_deque&) = delete;
  chase_lev_deque& operator=(const chase_lev_deque&) = delete;

  ~chase_lev_deque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (ring* r : retired_) delete r;
  }

  /// Owner-only: push a task at the bottom.
  void push_bottom(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    ring* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      buf = grow(buf, t, b);
    }
    buf->put(b, value);
    // Release store (not just a release fence): the thief's acquire load of
    // bottom_ then gives a happens-before edge covering the slot write —
    // the fence + relaxed store of Lê et al. is equally correct under the
    // memory model, but the explicit pairing is also visible to
    // ThreadSanitizer, which does not model standalone fences.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: pop the most recently pushed task, if any.
  std::optional<T> pop_bottom() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    ring* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was already empty; restore.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    T value = buf->get(b);
    if (t == b) {
      // Last element: race against thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        // A thief won.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return std::nullopt;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return value;
  }

  /// Thief: try to steal the oldest task from the top.
  steal_result steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return steal_result::empty;
    ring* buf = buffer_.load(std::memory_order_acquire);
    T value = buf->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return steal_result::lost;
    }
    out = value;
    return steal_result::success;
  }

  /// Racy size estimate; exact only when quiescent. For stats/heuristics.
  std::int64_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  bool empty_estimate() const { return size_estimate() == 0; }

 private:
  struct ring {
    explicit ring(std::size_t cap) : capacity(cap), mask(cap - 1), slots(cap) {}

    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }

    const std::size_t capacity;
    const std::size_t mask;
    std::vector<std::atomic<T>> slots;
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  ring* grow(ring* old, std::int64_t t, std::int64_t b) {
    auto* fresh = new ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) fresh->put(i, old->get(i));
    buffer_.store(fresh, std::memory_order_release);
    retired_.push_back(old);
    return fresh;
  }

  alignas(cache_line_size) std::atomic<std::int64_t> top_;
  alignas(cache_line_size) std::atomic<std::int64_t> bottom_;
  alignas(cache_line_size) std::atomic<ring*> buffer_;
  std::vector<ring*> retired_;  // owner-only
};

}  // namespace cilkpp
