#include "runtime/hyper_iface.hpp"

namespace cilkpp::rt {

void fold_view_maps(view_map& left, view_map&& right) {
  // Ownership of each right view transfers out of `right` *before* the
  // (potentially throwing) reduce runs: reduce_views may throw (the runtime
  // supports throwing reduces — see context::fold_delivered and
  // context::end_called), and during the resulting unwinding both `left`
  // and `right` are destroyed. Nulling the entry as it is consumed
  // guarantees every view has exactly one owner at every point, so no
  // double free. clear() tolerates the nulls (delete of nullptr is a
  // no-op).
  for (view_map::entry& e : right) {
    std::unique_ptr<view_base> rv(e.view);
    e.view = nullptr;
    if (view_base* lv = left.find(e.hyper)) {
      e.hyper->reduce_views(*lv, *rv);
    } else {
      left.insert_new(e.hyper, std::move(rv));
    }
  }
  right.detach_all();
}

}  // namespace cilkpp::rt
