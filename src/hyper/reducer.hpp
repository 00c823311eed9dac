// Reducer hyperobjects (paper Sec. 5):
//
//   "A Cilk++ reducer hyperobject is a linguistic construct that allows many
//    strands to coordinate in updating a shared variable or data structure
//    independently by providing them different but coordinated views of the
//    same object … When two or more strands join, their different views are
//    combined according to a system- or user-defined reduce() method."
//
// Each strand sees a private view (created lazily, initialized to the monoid
// identity); the runtime folds views strictly in serial order at syncs, so
// the final value — including element order for list append — is identical
// to the serial execution's (see tests/hyper_test.cpp's determinism sweeps).
// A one-worker scheduler runs every strand in serial order, so there every
// strand updates the leftmost value in place, as the elision does: no view
// is created and no reduce runs, as in Cilk++, where a view is created only
// after a steal.
//
// Usage (the paper's Fig. 7):
//
//   cilk::reducer<cilk::hyper::list_append<Node*>> output_list;
//   void walk(cilk::context& ctx, Node* x) {
//     if (!x) return;
//     if (has_property(x)) output_list.view(ctx).push_back(x);
//     ctx.spawn([&](cilk::context& c) { walk(c, x->left); });
//     walk(ctx, x->right);
//     ctx.sync();
//   }
//   ...after sched.run(...): output_list.value() holds the serial-order list.
#pragma once

#include <memory>
#include <utility>

#include "hyper/monoid.hpp"
#include "runtime/hyper_iface.hpp"
#include "support/assert.hpp"

namespace cilkpp::hyper {

/// Detects engines with runtime view routing (rt::context). Serial engines
/// (elision, recorder, race detector) run strands in serial order, so the
/// leftmost value itself is always the correct current view.
template <typename Ctx>
concept routes_views = requires(Ctx& ctx, rt::hyperobject_base& h) {
  { ctx.hyper_view(h) } -> std::same_as<rt::view_base&>;
};

/// Detects the race-detection engines (screen contexts): view accesses are
/// reported to the detector — by hyperobject identity — so reducer-routed
/// updates are certified race-free while raw accesses that bypass the
/// reducer in parallel are flagged as view races (paper Sec. 4's
/// "Cilkscreen understands reducer hyperobjects"). The same hook feeds the
/// lint and memlens analyzers attached to the detector.
template <typename Ctx>
concept screens_views = requires(Ctx& ctx, rt::hyperobject_base& h,
                                 const void* base) {
  ctx.note_view(h, base, std::size_t{}, (const char*)nullptr);
};

template <monoid M>
class reducer final : public rt::hyperobject_base {
 public:
  using value_type = typename M::value_type;

  /// Leftmost view starts at the identity…
  reducer() : reducer(M::identity()) {}
  /// …or at an initial value, which stays the leftmost operand of the fold
  /// (e.g. a list with existing contents keeps them at the front).
  explicit reducer(value_type initial)
      : hyperobject_base(&leftmost_), leftmost_(std::move(initial)) {}

  reducer(const reducer&) = delete;
  reducer& operator=(const reducer&) = delete;

  /// The calling strand's private view. The reference is stable until the
  /// strand's next spawn or sync; re-fetch after either so updates land in
  /// the correct fold position.
  ///
  /// Cost model (docs/TUTORIAL.md §12): on a one-worker scheduler a fetch
  /// returns the leftmost value (three loads and two tests, all inline).
  /// Otherwise a fetch scans the segment the frame has cached for its
  /// current strand, inline — O(# distinct reducers this strand touched),
  /// with rt::inline_view_capacity entries stored inline before the segment
  /// spills to the heap — and only the first fetch of each reducer after a
  /// spawn/sync leaves the inline path to open the segment or the view.
  template <typename Ctx>
  value_type& view(Ctx& ctx) {
    if constexpr (routes_views<Ctx>) {
      return static_cast<typed_view&>(ctx.hyper_view(*this)).value;
    } else if constexpr (screens_views<Ctx>) {
      // Under a race-detection engine the serial leftmost value IS the
      // current view; report the access (as a write — the caller gets a
      // mutable reference) so raw bypasses of this reducer are caught.
      // The same report says this strand OBTAINED the view, so an attached
      // lint::analyzer can flag the reference escaping to a serially-later
      // strand (the caching bug the "re-fetch after spawn or sync" rule
      // above exists to prevent), and registers the view slot's bytes as a
      // runtime-owned region, so an attached memlens::analyzer can lint
      // view slots of different reducers landing on one cache line.
      value_type& leftmost = leftmost_.value;
      ctx.note_view(*this, &leftmost, sizeof(leftmost), this->debug_label());
      return leftmost;
    } else {
      (void)ctx;
      return leftmost_.value;
    }
  }

  /// The fully folded value. Only meaningful when the computation that
  /// updated this reducer has completed (scheduler::run returned).
  value_type& value() { return leftmost_.value; }
  const value_type& value() const { return leftmost_.value; }

  /// Retires a *locally-scoped* reducer: folds the view accumulated in
  /// ctx's frame into the leftmost value and returns the whole result,
  /// resetting the reducer to the identity. Call after a sync that joined
  /// every strand that updated this reducer. A reducer that is NOT
  /// collected must outlive the scheduler::run() that updates it — its
  /// views live in frame slots until the root absorbs them.
  template <typename Ctx>
  value_type collect(Ctx& ctx) {
    if constexpr (routes_views<Ctx>) {
      if (std::unique_ptr<rt::view_base> v = ctx.extract_view(*this)) {
        M::reduce(leftmost_.value, std::move(static_cast<typed_view&>(*v).value));
      }
    } else {
      (void)ctx;
    }
    return take();
  }

  /// Moves the value out and resets to the identity (handy between runs).
  value_type take() {
    value_type out = std::move(leftmost_.value);
    leftmost_.value = M::identity();
    return out;
  }

  void set_value(value_type v) { leftmost_.value = std::move(v); }

 private:
  struct typed_view final : rt::view_base {
    typed_view() : value(M::identity()) {}
    explicit typed_view(value_type v) : value(std::move(v)) {}
    value_type value;
  };

  std::unique_ptr<rt::view_base> identity_view() const override {
    return std::make_unique<typed_view>();
  }

  void reduce_views(rt::view_base& left, rt::view_base& right) const override {
    M::reduce(static_cast<typed_view&>(left).value,
              std::move(static_cast<typed_view&>(right).value));
  }

  void absorb_final(std::unique_ptr<rt::view_base> final_view) override {
    M::reduce(leftmost_.value,
              std::move(static_cast<typed_view&>(*final_view).value));
  }

  /// The leftmost value, as a view: hyperobject_base::serial_view points
  /// here.
  typed_view leftmost_;
};

}  // namespace cilkpp::hyper

namespace cilk {
namespace hyper = cilkpp::hyper;
using cilkpp::hyper::reducer;
}  // namespace cilk
