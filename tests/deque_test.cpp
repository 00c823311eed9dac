// Tests for the Chase–Lev work-stealing deque.
//
// The owner-side tests exercise LIFO semantics and growth; the concurrent
// stress tests check the fundamental safety property: every pushed element
// is consumed exactly once, across any interleaving of pops and steals.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "deque/chase_lev.hpp"
#include "support/rng.hpp"

namespace cilkpp {
namespace {

using payload = std::uint64_t*;

template <typename D>
class DequeTest : public ::testing::Test {};

using deque_types = ::testing::Types<chase_lev_deque<payload>>;
TYPED_TEST_SUITE(DequeTest, deque_types);

TYPED_TEST(DequeTest, OwnerLifoOrder) {
  TypeParam d;
  std::uint64_t items[3] = {10, 20, 30};
  for (auto& x : items) d.push_bottom(&x);
  EXPECT_EQ(d.pop_bottom(), &items[2]);
  EXPECT_EQ(d.pop_bottom(), &items[1]);
  EXPECT_EQ(d.pop_bottom(), &items[0]);
  EXPECT_EQ(d.pop_bottom(), std::nullopt);
}

TYPED_TEST(DequeTest, ThiefTakesOldestFirst) {
  TypeParam d;
  std::uint64_t items[3] = {10, 20, 30};
  for (auto& x : items) d.push_bottom(&x);
  payload out = nullptr;
  ASSERT_EQ(d.steal(out), steal_result::success);
  EXPECT_EQ(out, &items[0]);  // top = oldest = shallowest frame
  ASSERT_EQ(d.steal(out), steal_result::success);
  EXPECT_EQ(out, &items[1]);
  // Owner still gets the newest.
  EXPECT_EQ(d.pop_bottom(), &items[2]);
}

TYPED_TEST(DequeTest, StealFromEmptyReportsEmpty) {
  TypeParam d;
  payload out = nullptr;
  EXPECT_EQ(d.steal(out), steal_result::empty);
  d.push_bottom(reinterpret_cast<payload>(0x8));
  (void)d.pop_bottom();
  EXPECT_EQ(d.steal(out), steal_result::empty);
}

TYPED_TEST(DequeTest, SizeEstimateTracksContents) {
  TypeParam d;
  EXPECT_TRUE(d.empty_estimate());
  std::uint64_t x = 1;
  d.push_bottom(&x);
  d.push_bottom(&x);
  EXPECT_EQ(d.size_estimate(), 2);
  (void)d.pop_bottom();
  EXPECT_EQ(d.size_estimate(), 1);
}

TEST(ChaseLev, GrowthPreservesAllElements) {
  chase_lev_deque<payload> d(8);
  std::vector<std::uint64_t> items(10000);
  for (auto& x : items) d.push_bottom(&x);
  // Pop everything back in LIFO order; growth must not lose or reorder.
  for (std::size_t i = items.size(); i-- > 0;) {
    auto got = d.pop_bottom();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, &items[i]);
  }
  EXPECT_EQ(d.pop_bottom(), std::nullopt);
}

TEST(ChaseLev, InterleavedPushPopAcrossGrowth) {
  chase_lev_deque<payload> d(8);
  std::vector<std::uint64_t> items(1000);
  std::size_t next = 0;
  // Sawtooth: push 3, pop 1, repeatedly; wraps the circular buffer.
  std::vector<payload> shadow;
  while (next < items.size()) {
    for (int k = 0; k < 3 && next < items.size(); ++k) {
      d.push_bottom(&items[next]);
      shadow.push_back(&items[next]);
      ++next;
    }
    auto got = d.pop_bottom();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, shadow.back());
    shadow.pop_back();
  }
}

// Concurrency stress: one owner pushing/popping, T thieves stealing.
// Every element must be consumed exactly once (checked via per-element
// atomic counters) and nothing may be lost.
template <typename D>
void stress_exactly_once(unsigned thieves, std::size_t n) {
  D d;
  std::vector<std::atomic<std::uint32_t>> consumed(n);
  for (auto& c : consumed) c.store(0);
  std::vector<std::uint64_t> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = i;

  std::atomic<bool> owner_done{false};
  std::atomic<std::size_t> total_consumed{0};

  auto consume = [&](payload p) {
    const std::size_t idx = static_cast<std::size_t>(p - items.data());
    consumed[idx].fetch_add(1);
    total_consumed.fetch_add(1);
  };

  std::vector<std::thread> thief_threads;
  thief_threads.reserve(thieves);
  for (unsigned t = 0; t < thieves; ++t) {
    thief_threads.emplace_back([&] {
      payload out = nullptr;
      while (!owner_done.load(std::memory_order_acquire) ||
             total_consumed.load(std::memory_order_acquire) < n) {
        if (d.steal(out) == steal_result::success) consume(out);
        if (total_consumed.load(std::memory_order_acquire) >= n) break;
      }
    });
  }

  // Owner: push all, popping every third to mix operations.
  for (std::size_t i = 0; i < n; ++i) {
    d.push_bottom(&items[i]);
    if (i % 3 == 2) {
      if (auto got = d.pop_bottom()) consume(*got);
    }
  }
  // Drain whatever the thieves haven't taken.
  while (auto got = d.pop_bottom()) consume(*got);
  owner_done.store(true, std::memory_order_release);
  for (auto& t : thief_threads) t.join();

  // Thieves may exit before the final drain; finish any leftovers here.
  while (auto got = d.pop_bottom()) consume(*got);

  EXPECT_EQ(total_consumed.load(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(consumed[i].load(), 1u) << "element " << i;
}

// Randomized differential test: drive chase_lev with a random op sequence
// and compare against a simple reference (owner-side only; steals checked
// against the reference front).
TEST(ChaseLev, DifferentialAgainstReferenceModel) {
  xoshiro256 rng(99);
  chase_lev_deque<payload> d(8);
  std::deque<payload> reference;
  std::vector<std::uint64_t> storage(10000);
  std::size_t next = 0;
  for (int step = 0; step < 50000; ++step) {
    switch (rng.below(3)) {
      case 0:
        if (next < storage.size()) {
          d.push_bottom(&storage[next]);
          reference.push_back(&storage[next]);
          ++next;
        }
        break;
      case 1: {
        const auto got = d.pop_bottom();
        if (reference.empty()) {
          EXPECT_EQ(got, std::nullopt);
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, reference.back());
          reference.pop_back();
        }
        break;
      }
      case 2: {
        payload out = nullptr;
        const auto r = d.steal(out);
        if (reference.empty()) {
          EXPECT_EQ(r, steal_result::empty);
        } else {
          ASSERT_EQ(r, steal_result::success);
          EXPECT_EQ(out, reference.front());
          reference.pop_front();
        }
        break;
      }
    }
  }
}

TEST(ChaseLev, StressOneThief) {
  stress_exactly_once<chase_lev_deque<payload>>(1, 50000);
}

TEST(ChaseLev, StressFourThieves) {
  stress_exactly_once<chase_lev_deque<payload>>(4, 50000);
}

TEST(ChaseLev, StressSmallInitialCapacityForcesGrowthUnderStealing) {
  // Growth while thieves are active is the most delicate code path.
  chase_lev_deque<payload> d(8);
  constexpr std::size_t n = 20000;
  std::vector<std::uint64_t> items(n);
  std::vector<std::atomic<std::uint32_t>> consumed(n);
  for (auto& c : consumed) c.store(0);
  std::atomic<std::size_t> total{0};
  std::atomic<bool> done{false};

  std::thread thief([&] {
    payload out = nullptr;
    while (!done.load() || total.load() < n) {
      if (d.steal(out) == steal_result::success) {
        consumed[static_cast<std::size_t>(out - items.data())].fetch_add(1);
        total.fetch_add(1);
      }
      if (total.load() >= n) break;
    }
  });

  // Push in bursts so the buffer grows repeatedly while stealing runs.
  for (std::size_t i = 0; i < n; ++i) d.push_bottom(&items[i]);
  while (auto got = d.pop_bottom()) {
    consumed[static_cast<std::size_t>(*got - items.data())].fetch_add(1);
    total.fetch_add(1);
  }
  done.store(true);
  thief.join();

  EXPECT_EQ(total.load(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(consumed[i].load(), 1u);
}

}  // namespace
}  // namespace cilkpp
