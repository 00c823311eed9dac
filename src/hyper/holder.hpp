// Holder hyperobjects: strand-private scratch storage.
//
// A holder gives each strand an isolated instance of T (like the views of a
// reducer) but carries no cross-strand reduction. It keeps that isolation
// at every worker count: a one-worker scheduler lets a reducer's strands
// update its leftmost value in place, but a holder has no view to share
// (its rt::hyperobject_base::serial_view is null), so every strand that
// touches it gets a fresh copy of the prototype. Cilk++ ships holders
// alongside reducers in the hyperobject library [Frigo et al., SPAA'09, the
// paper's ref 17]; they replace thread-local scratch buffers in code being
// parallelized.
//
// Two policies, matching the Cilk++ holder library:
//  * keep_indeterminate — after a join, the surviving view is whichever the
//    fold kept (cheapest; the scratch content is meaningless across joins);
//  * keep_last — after a join, the view holds the value written by the
//    serially LAST strand, so a holder can carry loop-carried scratch the
//    way a serial program's local would (e.g. "the last iteration's state").
#pragma once

#include <memory>
#include <utility>

#include "runtime/hyper_iface.hpp"

namespace cilkpp::hyper {

enum class holder_policy {
  keep_indeterminate,
  keep_last,
};

template <typename T, holder_policy Policy = holder_policy::keep_indeterminate>
class holder final : public rt::hyperobject_base {
 public:
  holder() = default;
  /// Factory variant: each fresh view starts as a copy of the prototype.
  explicit holder(T prototype) : prototype_(std::move(prototype)) {
    serial_view_ = prototype_;
  }

  holder(const holder&) = delete;
  holder& operator=(const holder&) = delete;

  /// The calling strand's private scratch object.
  template <typename Ctx>
  T& view(Ctx& ctx) {
    if constexpr (requires { ctx.hyper_view(*this); }) {
      return static_cast<typed_view&>(ctx.hyper_view(*this)).value;
    } else {
      (void)ctx;
      return serial_view_;
    }
  }

  /// keep_last only: the serially last strand's value, meaningful once the
  /// computation has completed (scheduler::run returned).
  const T& last_value() const
    requires(Policy == holder_policy::keep_last)
  {
    return serial_view_;
  }

 private:
  struct typed_view final : rt::view_base {
    explicit typed_view(const T& proto) : value(proto) {}
    T value;
  };

  std::unique_ptr<rt::view_base> identity_view() const override {
    return std::make_unique<typed_view>(prototype_);
  }

  void reduce_views(rt::view_base& left, rt::view_base& right) const override {
    if constexpr (Policy == holder_policy::keep_last) {
      // The right operand is serially later: its value survives.
      static_cast<typed_view&>(left).value =
          std::move(static_cast<typed_view&>(right).value);
    } else {
      // keep_indeterminate: keep the left view, drop the right.
      (void)left;
      (void)right;
    }
  }

  void absorb_final(std::unique_ptr<rt::view_base> final_view) override {
    if constexpr (Policy == holder_policy::keep_last) {
      serial_view_ = std::move(static_cast<typed_view&>(*final_view).value);
    }
  }

  T prototype_{};
  T serial_view_{};
};

}  // namespace cilkpp::hyper

namespace cilk {
using cilkpp::hyper::holder;
using cilkpp::hyper::holder_policy;
}  // namespace cilk
