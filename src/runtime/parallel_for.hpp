// cilk_for on the runtime: the one lowering (runtime/cilk_for.hpp) over
// rt::context, which supplies spawn_leaf for body(i) leaves and its
// scheduler's worker count for the default grain.
#pragma once

#include "runtime/cilk_for.hpp"
#include "runtime/scheduler.hpp"

namespace cilk {
using cilkpp::rt::default_grain;
using cilkpp::rt::parallel_for;
}  // namespace cilk
