// Stable-address slot storage for a frame's strand segments and spawned
// children — the data structure that makes the spawn/join path lock-free
// and allocation-free.
//
// Every pushed cilk_spawn reserves one slot in the spawning frame. The slot
// first holds the child's task record (scheduler.hpp): the spawn builds it
// in place, so a child that is never stolen costs no allocation. (A spawn
// that runs its child as a call appends a slot only for what the child
// left, or to end the strand before it — context::seal_strand.) Once the
// child's closure is gone, the child rebuilds the slot's result fields in
// the record's bytes and writes its folded reducer views and exception into
// them, possibly from another worker, while the owner keeps appending slots
// for further spawns. The arena makes that safe without a lock:
//
//   * Slots live in fixed-size chunks that are linked once and never
//     reallocated, so a slot's address is stable for the arena epoch (from
//     its append until the next clear()). A child can hold a raw
//     frame_slot* across its whole execution.
//   * All STRUCTURAL mutation (append, clear) is owner-only: exactly one
//     strand executes a frame at a time, and only that strand spawns, so
//     appends need no synchronization. Children write only the CONTENTS of
//     their own slot, each slot has exactly one writing child, and the
//     parent reads contents only after it counted the child's join — in
//     program order for a child that ran on the parent's own worker, and
//     through the release/acquire pair on the parent's stolen-join count
//     otherwise (DESIGN.md §4.7 "lock-free join"). A slot is reused only
//     after the next fold, i.e. after every child of the epoch joined.
//
// The first `inline_slots` slots are embedded in the arena itself (frames
// that spawn a couple of children between syncs — the overwhelmingly common
// case — never allocate); chunks past that come from operator new and are
// RETAINED across clear() so a frame that folds and spawns again (a
// parallel_for spine, the spawn+sync pair benchmark) reuses them without
// touching the allocator.
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <new>

#include "alloc/slab.hpp"
#include "runtime/hyper_iface.hpp"
#include "support/assert.hpp"

namespace cilkpp::rt {

/// Either one strand segment's reducer views, or a spawned child's task
/// record and then its folded result; arena order is serial execution order
/// (Sec. 5's ordered reduction depends on folding slots strictly left to
/// right).
///
/// The result fields — views() and exception() — live in `bytes`, which a
/// spawn reuses for the child's task record: close_result() ends the
/// fields' lifetime so the record can be built there, and the child calls
/// open_result() once it destroyed the record, before it delivers into the
/// fields. A record therefore costs the slot no space of its own.
struct frame_slot {
  frame_slot() noexcept { open_result(); }
  ~frame_slot() { close_result(); }
  frame_slot(const frame_slot&) = delete;
  frame_slot& operator=(const frame_slot&) = delete;

  view_map& views() noexcept {
    return *std::launder(reinterpret_cast<view_map*>(bytes));
  }
  /// Child slots only.
  std::exception_ptr& exception() noexcept {
    return *std::launder(
        reinterpret_cast<std::exception_ptr*>(bytes + sizeof(view_map)));
  }

  void reset() {
    views().clear();
    exception() = nullptr;
    is_child = false;
  }

  /// Ends the result fields' lifetime; `bytes` then holds nothing until a
  /// record is built there or open_result() runs.
  void close_result() noexcept {
    std::destroy_at(&views());
    std::destroy_at(&exception());
  }
  /// Builds pristine result fields: no views, no exception.
  void open_result() noexcept {
    ::new (static_cast<void*>(bytes)) view_map();
    ::new (static_cast<void*>(bytes + sizeof(view_map))) std::exception_ptr();
  }

  /// The record built in `bytes` by the spawn that reserved this slot.
  template <typename Record>
  Record& record() noexcept {
    return *std::launder(reinterpret_cast<Record*>(bytes));
  }

  /// Room for a task record: exactly the result fields' bytes.
  static constexpr std::size_t record_bytes =
      sizeof(view_map) + sizeof(std::exception_ptr);

  alignas(view_map) alignas(std::exception_ptr) std::byte bytes[record_bytes];
  bool is_child = false;
};

static_assert(sizeof(view_map) % alignof(std::exception_ptr) == 0);
// A record reuses the result fields' bytes instead of growing the slot (a
// separate record buffer per slot raised fib's peak RSS by 5-7%).
static_assert(sizeof(frame_slot) <= 72, "frame_slot grew");

class slot_arena {
 public:
  static constexpr std::size_t inline_slots = 2;
  static constexpr std::size_t chunk_slots = 16;

  slot_arena() = default;
  slot_arena(const slot_arena&) = delete;
  slot_arena& operator=(const slot_arena&) = delete;

  ~slot_arena() {
    chunk* c = chunks_;
    while (c != nullptr) {
      chunk* next = c->next;
      delete c;
      c = next;
    }
  }

  /// Owner-only: appends a slot and returns its address, which stays valid
  /// (existing chunks never move or reallocate) until the next clear().
  frame_slot* append(bool is_child) {
    frame_slot* s;
    if (size_ < inline_slots) {
      s = &inline_[size_];
    } else {
      const std::size_t offset = (size_ - inline_slots) % chunk_slots;
      if (offset == 0) {
        // Advance to the next chunk: reuse one linked by a previous epoch,
        // or link a fresh one exactly once.
        chunk* next = tail_ != nullptr ? tail_->next : chunks_;
        if (next == nullptr) {
          next = new chunk;
          if (tail_ != nullptr) {
            tail_->next = next;
          } else {
            chunks_ = next;
          }
        }
        tail_ = next;
      }
      s = &tail_->slots[offset];
    }
    s->is_child = is_child;
    ++size_;
    child_slots_ += is_child ? 1 : 0;
    last_ = s;
    return s;
  }

  /// True if any slot appended since the last clear() is a child slot.
  /// Owner-maintained, so `!has_children()` also implies no child can be
  /// outstanding: every spawn appends its child slot before it counts the
  /// child, and fold runs only after every counted child joined. (A slot
  /// whose record construction threw stays appended but pristine and
  /// uncounted, as does one that ends a strand after a child that ran as a
  /// call; each folds as the identity.)
  bool has_children() const { return child_slots_ != 0; }

  /// True if every slot is a child slot (no strand segment was opened —
  /// the frame touched no reducer since the last fold).
  bool all_children() const { return child_slots_ == size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Most recently appended slot; null when empty.
  frame_slot* last() { return last_; }

  /// Visits every slot in append (serial) order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::size_t remaining = size_;
    for (std::size_t i = 0; i < inline_slots && remaining > 0; ++i, --remaining) {
      fn(inline_[i]);
    }
    for (chunk* c = chunks_; remaining > 0; c = c->next) {
      CILKPP_ASSERT(c != nullptr, "slot arena chunk chain shorter than size");
      const std::size_t n = remaining < chunk_slots ? remaining : chunk_slots;
      for (std::size_t i = 0; i < n; ++i) fn(c->slots[i]);
      remaining -= n;
    }
  }

  /// Owner-only: destroys slot contents and resets to empty. Chunks are
  /// kept for reuse — the chunk chain is linked once per frame lifetime.
  /// Precondition: no child may still write into a slot (pending == 0).
  void clear() {
    for_each([](frame_slot& s) { s.reset(); });
    size_ = 0;
    child_slots_ = 0;
    last_ = nullptr;
    tail_ = nullptr;
  }

  /// Owner-only reset for slots whose CONTENTS are known pristine (views
  /// empty, exception null — nothing was ever delivered into them): drops
  /// the structure without walking the slots. Stale is_child marks are fine;
  /// append() overwrites the mark on every reuse. This is the whole fold of
  /// the no-reducer spawn+sync fast path, so it must stay O(1).
  void reset_clean() {
    size_ = 0;
    child_slots_ = 0;
    last_ = nullptr;
    tail_ = nullptr;
  }

 private:
  struct chunk {
    frame_slot slots[chunk_slots];
    chunk* next = nullptr;

    // Chunks come from the slab magazines: a deep parallel_for spine that
    // overflows its inline slots on many frames at once stays off the
    // system allocator, and chunk starts are cache-line boundaries.
    static void* operator new(std::size_t size) {
      return alloc::slab_allocate(size);
    }
    static void operator delete(void* p, std::size_t size) noexcept {
      alloc::slab_deallocate(p, size);
    }
  };

  frame_slot inline_[inline_slots];
  chunk* chunks_ = nullptr;  ///< head of the (persistent) chunk chain
  chunk* tail_ = nullptr;    ///< chunk receiving appends; null while inline
  frame_slot* last_ = nullptr;
  std::size_t size_ = 0;
  std::size_t child_slots_ = 0;
};

}  // namespace cilkpp::rt
