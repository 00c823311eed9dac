// Tests for the SP-order engine (paper ref [2]): the order-maintenance
// list and the three-way property test — SP-order vs SP-bags vs
// dag-reachability ground truth on random series-parallel programs. The
// detector's verdicts on the paper's examples run typed over both engines
// in cilkscreen_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "cilkscreen/order_maintenance.hpp"
#include "cilkscreen/screen_context.hpp"
#include "dag/analysis.hpp"
#include "dag/builder.hpp"
#include "dag/recorder.hpp"
#include "support/rng.hpp"

namespace cilkpp::screen {
namespace {

// --- Order-maintenance list. ---

TEST(OmList, InsertAfterPreservesOrder) {
  om_list list;
  auto* a = list.insert_first();
  auto* c = list.insert_after(a);
  auto* b = list.insert_after(a);  // between a and c
  EXPECT_TRUE(om_list::precedes(a, b));
  EXPECT_TRUE(om_list::precedes(b, c));
  EXPECT_TRUE(om_list::precedes(a, c));
  EXPECT_FALSE(om_list::precedes(c, a));
  EXPECT_FALSE(om_list::precedes(a, a));
}

TEST(OmList, InsertBeforeIncludingHead) {
  om_list list;
  auto* b = list.insert_first();
  auto* a = list.insert_before(b);  // new head
  auto* mid = list.insert_before(b);
  EXPECT_TRUE(om_list::precedes(a, mid));
  EXPECT_TRUE(om_list::precedes(mid, b));
}

TEST(OmList, HeavyInsertionForcesRelabelsAndStaysOrdered) {
  om_list list;
  // Repeated insert-after-head exhausts the head gap quickly.
  std::vector<om_list::node*> nodes{list.insert_first()};
  for (int i = 0; i < 5000; ++i) {
    nodes.push_back(list.insert_after(nodes[0]));
  }
  // nodes[0] < nodes[k] for all k, and later insertions (closer to head)
  // precede earlier ones.
  for (std::size_t k = 1; k < nodes.size(); ++k) {
    EXPECT_TRUE(om_list::precedes(nodes[0], nodes[k]));
  }
  for (std::size_t k = 2; k < nodes.size(); ++k) {
    EXPECT_TRUE(om_list::precedes(nodes[k], nodes[k - 1]));
  }
  EXPECT_GT(list.relabel_count(), 0u);
}

TEST(OmList, RandomInsertionsMatchReferenceOrder) {
  om_list list;
  std::vector<om_list::node*> order{list.insert_first()};
  xoshiro256 rng(77);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t pos = rng.below(order.size());
    if (rng.below(2) == 0) {
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                   list.insert_after(order[pos]));
    } else {
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(pos),
                   list.insert_before(order[pos]));
    }
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    ASSERT_TRUE(om_list::precedes(order[i], order[i + 1])) << "position " << i;
  }
}

// --- Three-way property test: SP-order ≡ SP-bags ≡ dag ground truth. ---

template <typename Ctx, typename AccessFn>
void random_program(Ctx& ctx, xoshiro256& rng, unsigned depth, unsigned nvars,
                    const AccessFn& access) {
  const auto steps = 2 + rng.below(5);
  for (std::uint64_t s = 0; s < steps; ++s) {
    const auto op = rng.below(depth == 0 ? 2 : 5);
    switch (op) {
      case 0:
        access(ctx, static_cast<unsigned>(rng.below(nvars)), false);
        break;
      case 1:
        access(ctx, static_cast<unsigned>(rng.below(nvars)), true);
        break;
      case 2:
        ctx.spawn([&](Ctx& c) { random_program(c, rng, depth - 1, nvars, access); });
        break;
      case 3:
        ctx.call([&](Ctx& c) { random_program(c, rng, depth - 1, nvars, access); });
        break;
      case 4:
        ctx.sync();
        break;
    }
  }
  if (rng.below(2) == 0) ctx.sync();
}

template <typename Detector>
std::vector<bool> engine_verdict(std::uint64_t seed, unsigned nvars,
                                 unsigned depth) {
  Detector d;
  std::vector<cell<int>> vars(nvars);
  xoshiro256 rng(seed);
  run_under_detector(d, [&](basic_screen_context<Detector>& ctx) {
    random_program(ctx, rng, depth, nvars,
                   [&](basic_screen_context<Detector>& c, unsigned v, bool w) {
                     if (w)
                       vars[v].set(c, 1);
                     else
                       (void)vars[v].get(c);
                   });
  });
  std::vector<bool> flagged(nvars, false);
  for (const race_record& r : d.races()) {
    for (unsigned v = 0; v < nvars; ++v) {
      const auto base = reinterpret_cast<std::uintptr_t>(&vars[v].unsafe_value());
      if (r.address >= base && r.address < base + sizeof(int)) flagged[v] = true;
    }
  }
  return flagged;
}

class ThreeWay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreeWay, AllEnginesMatchGroundTruth) {
  constexpr unsigned nvars = 6;
  constexpr unsigned depth = 4;
  const std::uint64_t seed = GetParam();

  const std::vector<bool> spbags = engine_verdict<detector>(seed, nvars, depth);
  const std::vector<bool> sporder =
      engine_verdict<order_detector>(seed, nvars, depth);

  // Ground truth from the recorded dag.
  struct logged { unsigned var; bool write; dag::vertex_id strand; };
  std::vector<logged> log;
  dag::sp_builder builder;
  {
    xoshiro256 rng(seed);
    dag::recorder_context root(builder);
    random_program(root, rng, depth, nvars,
                   [&](dag::recorder_context& c, unsigned v, bool w) {
                     c.account(1);
                     log.push_back({v, w, c.builder().current()});
                   });
  }
  const dag::graph g = std::move(builder).finish();
  std::vector<bool> truth(nvars, false);
  for (std::size_t i = 0; i < log.size(); ++i)
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[i].var != log[j].var) continue;
      if (!log[i].write && !log[j].write) continue;
      if (dag::in_parallel(g, log[i].strand, log[j].strand))
        truth[log[i].var] = true;
    }

  for (unsigned v = 0; v < nvars; ++v) {
    EXPECT_EQ(spbags[v], truth[v]) << "SP-bags, var " << v << " seed " << seed;
    EXPECT_EQ(sporder[v], truth[v]) << "SP-order, var " << v << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeWay,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace cilkpp::screen
