// Fixed-capacity single-producer/single-consumer event ring.
//
// The record path (the producer side) is the one the scheduler executes on
// every spawn/sync/steal, so it is wait-free and lock-free: one relaxed
// index load, one slot store, one release index store. When the ring is
// full the event is *dropped and counted* — recording never blocks and
// never reallocates (the paper's "overhead on the work" discipline: a
// profiler must not distort what it measures).
//
// Producer: the worker that owns the ring. Consumer: whoever drains it
// (trace::session, normally after the run; draining concurrently with the
// producer is also safe — that is the SPSC contract).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/slab.hpp"
#include "support/cache.hpp"
#include "trace/event.hpp"

namespace cilkpp::trace {

namespace ring_detail {
/// Ring buffers come from the slab's counted aligned path, so per-worker
/// rings allocated at scheduler construction show up in the allocator's
/// system_allocs gauge instead of as anonymous operator-new traffic.
using event_buffer = std::vector<event, alloc::slab_std_allocator<event>>;
}  // namespace ring_detail

class event_ring {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit event_ring(std::size_t capacity)
      : buf_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(buf_.size() - 1) {}

  event_ring(const event_ring&) = delete;
  event_ring& operator=(const event_ring&) = delete;

  std::size_t capacity() const { return buf_.size(); }

  /// Producer side. Returns false (and counts a drop) when the ring is
  /// full. Wait-free: no CAS, no loop.
  bool try_push(const event& e) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= buf_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= buf_.size()) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    buf_[tail & mask_] = e;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends every currently visible event to `out` in
  /// record order and returns how many were taken.
  std::size_t pop_all(std::vector<event>& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t i = head; i != tail; ++i) out.push_back(buf_[i & mask_]);
    head_.store(tail, std::memory_order_release);
    return static_cast<std::size_t>(tail - head);
  }

  /// Events successfully pushed since construction (monotone; not reduced
  /// by draining).
  std::uint64_t recorded() const { return tail_.load(std::memory_order_acquire); }
  /// Events rejected because the ring was full.
  std::uint64_t dropped() const { return drops_.load(std::memory_order_relaxed); }

 private:
  ring_detail::event_buffer buf_;
  std::size_t mask_;
  alignas(cache_line_size) std::atomic<std::uint64_t> tail_{0};  // producer
  std::uint64_t cached_head_ = 0;  // producer-local snapshot of head_
  alignas(cache_line_size) std::atomic<std::uint64_t> head_{0};  // consumer
  std::atomic<std::uint64_t> drops_{0};
};

}  // namespace cilkpp::trace
