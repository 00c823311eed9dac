// Type-erased interface between the scheduler's per-frame view maps and the
// hyperobject library (paper Sec. 5).
//
// The runtime needs to create, fold, and destroy reducer *views* at spawn and
// sync boundaries without knowing their types; the typed reducer<Monoid>
// classes live in src/hyper and implement this interface.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "alloc/slab.hpp"
#include "support/assert.hpp"
#include "support/small_vector.hpp"

namespace cilkpp::rt {

/// A strand-private view of some hyperobject. Concrete views are defined by
/// the hyperobject library; the runtime only stores and routes them.
struct view_base {
  virtual ~view_base() = default;

  // Every concrete view allocates through the slab magazines: views are
  // created on the steal path (identity_view) and destroyed on the fold
  // path, often by a different worker — exactly the migrating small-block
  // traffic the magazines absorb. Sized delete is enough: the delete
  // expression goes through the virtual destructor, which supplies the
  // most-derived size.
  static void* operator new(std::size_t size) {
    return alloc::slab_allocate(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    alloc::slab_deallocate(p, size);
  }
};

/// One hyperobject (e.g. one declared reducer). Identity of the object is
/// its address; it must outlive every computation that accesses it.
struct hyperobject_base {
  explicit hyperobject_base(view_base* serial = nullptr) noexcept
      : serial_view(serial) {}
  virtual ~hyperobject_base() = default;

  /// Human-readable name used by diagnostic tools — Cilkscreen's view-race
  /// reports name the hyperobject endpoint with this. Override to label a
  /// specific reducer.
  virtual const char* debug_label() const { return "reducer view"; }

  /// A fresh view initialized to the monoid identity.
  virtual std::unique_ptr<view_base> identity_view() const = 0;

  /// left := reduce(left, right); right is consumed. Order matters: `left`
  /// holds updates that are serially earlier than `right`'s.
  virtual void reduce_views(view_base& left, view_base& right) const = 0;

  /// Folds the computation's final view into the hyperobject's leftmost
  /// (user-visible) value: leftmost := reduce(leftmost, final).
  virtual void absorb_final(std::unique_ptr<view_base> final_view) = 0;

  /// A view that strands running in serial order may all update in place,
  /// or null. A reducer points it at its leftmost value: its monoid makes
  /// one view updated in serial order equal to folding a view per strand,
  /// so a one-worker scheduler hands every frame this view, as the elision
  /// does, and never creates or reduces another (context::hyper_view). A
  /// holder leaves it null: it promises every strand a fresh view, at every
  /// worker count.
  view_base* const serial_view;
};

/// How many (hyperobject, view) pairs a strand segment stores before its
/// view map spills to the heap. Almost every strand touches 0–2 reducers
/// (docs/TUTORIAL.md's tuning section); a spawn that never touches one
/// constructs nothing at all.
inline constexpr std::size_t inline_view_capacity = 2;

/// Views of every hyperobject touched by one strand segment, keyed by
/// hyperobject identity.
///
/// This used to be a std::unordered_map, which default-constructs buckets —
/// a heap allocation and a hash on every spawn whether or not the strand
/// ever sees a reducer. Strands touch so few distinct hyperobjects that a
/// flat array with a linear scan wins on every axis: a default-constructed
/// map is just zeroed inline bytes, lookup is a couple of pointer compares,
/// and iteration order is insertion order (first-touch serial order), which
/// is deterministic where the hash map's order was not. Entries own their
/// views as raw pointers (small_vector requires trivially copyable elements);
/// the map is therefore move-only and deletes views in clear()/its dtor.
class view_map {
 public:
  struct entry {
    hyperobject_base* hyper;
    view_base* view;  ///< owned by the map
  };

  view_map() = default;
  view_map(const view_map&) = delete;
  view_map& operator=(const view_map&) = delete;

  view_map(view_map&& other) noexcept : entries_(std::move(other.entries_)) {}
  view_map& operator=(view_map&& other) noexcept {
    if (this != &other) {
      clear();
      entries_ = std::move(other.entries_);
    }
    return *this;
  }

  ~view_map() { clear(); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// The view registered for h, or null.
  view_base* find(const hyperobject_base* h) const {
    for (const entry& e : entries_) {
      if (e.hyper == h) return e.view;
    }
    return nullptr;
  }

  /// Registers a view for a hyperobject not present yet; returns it.
  view_base* insert_new(hyperobject_base* h, std::unique_ptr<view_base> v) {
    CILKPP_ASSERT(find(h) == nullptr, "duplicate view for hyperobject");
    entries_.push_back(entry{h, v.get()});
    return v.release();
  }

  /// Removes and returns ownership of h's view (null if absent).
  std::unique_ptr<view_base> extract(const hyperobject_base* h) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].hyper == h) {
        std::unique_ptr<view_base> out(entries_[i].view);
        entries_.swap_remove(i);
        return out;
      }
    }
    return nullptr;
  }

  /// Destroys every view and empties the map. Tolerates null views: fold
  /// and absorb loops null out entries as they transfer ownership, so that
  /// an exception mid-loop cannot double-free (delete of null is a no-op).
  void clear() {
    for (entry& e : entries_) delete e.view;
    entries_.clear();
  }

  /// Empties the map WITHOUT destroying views — for callers that moved the
  /// view pointers' ownership elsewhere (fold_view_maps).
  void detach_all() { entries_.clear(); }

  entry* begin() { return entries_.begin(); }
  entry* end() { return entries_.end(); }
  const entry* begin() const { return entries_.begin(); }
  const entry* end() const { return entries_.end(); }

 private:
  small_vector<entry, inline_view_capacity> entries_;
};

/// left := reduce(left, right) pointwise over hyperobjects; views present
/// only on the right move over unchanged (identity on the left elides a
/// reduce call — the paper's lazy "views are created only when needed").
void fold_view_maps(view_map& left, view_map&& right);

}  // namespace cilkpp::rt
