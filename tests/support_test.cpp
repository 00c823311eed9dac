// Unit tests for src/support: rng, stats, json_writer, table, small_vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pedigree/dprng.hpp"
#include "pedigree/pedigree.hpp"
#include "support/rng.hpp"
#include "support/small_vector.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace cilkpp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (i == 0) {
      EXPECT_NE(va, c());
    }
  }
}

TEST(Rng, BelowStaysInRange) {
  xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  xoshiro256 rng(13);
  for (int i = 0; i < 500; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// --- Pedigree-seeded DPRNG quality smokes (pedigree/dprng.hpp). These are
// statistical sanity checks, not PractRand: uniformity of one strand's
// stream, and independence between sibling strands whose pedigrees differ
// in a single rank (the worst case for a weak mixer). ---

TEST(Dprng, ChiSquareUniformityOver64kDraws) {
  // 65536 draws into 256 buckets (expected 256 per bucket). For 255 degrees
  // of freedom the 99.9th percentile of chi-square is ~330; a generous 400
  // keeps the test deterministic-stable while still catching a mixer whose
  // low byte is biased.
  ped::dprng_stream s(ped::pedigree{{0, 3, 1, 4}});
  std::vector<std::uint64_t> buckets(256, 0);
  constexpr std::uint64_t draws = 65536;
  for (std::uint64_t i = 0; i < draws; ++i) ++buckets[s.next() & 0xff];
  const double expected = static_cast<double>(draws) / 256.0;
  double chi2 = 0.0;
  for (const std::uint64_t b : buckets) {
    const double d = static_cast<double>(b) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 400.0) << "low-byte chi-square " << chi2;

  // Same test over the high byte: counter-mode weaknesses often show up in
  // different bit ranges.
  std::fill(buckets.begin(), buckets.end(), 0);
  ped::dprng_stream hi(ped::pedigree{{0, 3, 1, 4}});
  for (std::uint64_t i = 0; i < draws; ++i) ++buckets[hi.next() >> 56];
  chi2 = 0.0;
  for (const std::uint64_t b : buckets) {
    const double d = static_cast<double>(b) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 400.0) << "high-byte chi-square " << chi2;
}

TEST(Dprng, SiblingStreamsAreUncorrelated) {
  // Siblings <7,k> and <7,k+1> differ by one in the final rank — adjacent
  // inputs to the mixer. Their streams must look independent: XOR of the
  // paired draws should have ~32 of 64 bits set on average, and no bit
  // position stuck. This is exactly the property per-strand determinism
  // plus naive seeding (seed + strand index) would fail.
  constexpr int pairs = 4096;
  std::uint64_t total_bits = 0;
  std::array<std::uint32_t, 64> per_bit{};
  for (int k = 0; k < pairs; ++k) {
    ped::dprng_stream a(
        ped::pedigree{{7, static_cast<std::uint64_t>(k)}});
    ped::dprng_stream b(
        ped::pedigree{{7, static_cast<std::uint64_t>(k) + 1}});
    const std::uint64_t x = a.next() ^ b.next();
    total_bits += static_cast<std::uint64_t>(std::popcount(x));
    for (int bit = 0; bit < 64; ++bit) {
      per_bit[static_cast<std::size_t>(bit)] += (x >> bit) & 1u;
    }
  }
  const double mean_bits = static_cast<double>(total_bits) / pairs;
  EXPECT_GT(mean_bits, 30.0);
  EXPECT_LT(mean_bits, 34.0);
  for (int bit = 0; bit < 64; ++bit) {
    // Each bit flips ~half the time; 4096 trials put 5-sigma at ~±160.
    EXPECT_GT(per_bit[static_cast<std::size_t>(bit)], 1888u) << "bit " << bit;
    EXPECT_LT(per_bit[static_cast<std::size_t>(bit)], 2208u) << "bit " << bit;
  }
}

TEST(Dprng, DistinctPedigreesGiveDistinctStreamHeads) {
  // 10k structurally nearby pedigrees, no first-draw collisions.
  std::set<std::uint64_t> heads;
  for (std::uint64_t a = 0; a < 100; ++a) {
    for (std::uint64_t b = 0; b < 100; ++b) {
      heads.insert(ped::dprng_stream(ped::pedigree{{a, b}}).draw_at(1));
    }
  }
  EXPECT_EQ(heads.size(), 10000u);
}

TEST(Rng, SplitmixProducesDistinctStreams) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Accumulator, BasicMoments) {
  accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
}

TEST(Accumulator, MergeMatchesSequential) {
  accumulator whole, left, right;
  xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.unit() * 10;
    whole.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  accumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  accumulator b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Histogram, CountsAndClamping) {
  histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-3.0);   // clamps into bucket 0
  h.add(100.0);  // clamps into bucket 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(5), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(Histogram, PercentileBucketResolution) {
  histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 51.0, 1.01);
  EXPECT_NEAR(h.percentile(0.99), 100.0, 1.01);
}

// --- latency_histogram: the log-bucketed tail-latency store shared by the
// serve layer and bench_jobserver. Geometry invariants first, then the
// percentile contract on known distributions, then merge = replay.

TEST(LatencyHistogram, SmallValuesAreExact) {
  latency_histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.add(v);
  EXPECT_EQ(h.total(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  // Below 64 ns every value owns its own slot: percentiles are exact.
  EXPECT_EQ(h.percentile(1.0 / 64.0), 0u);
  EXPECT_EQ(h.p50(), 31u);
  EXPECT_EQ(h.percentile(1.0), 63u);
}

TEST(LatencyHistogram, RelativeBucketErrorBoundedAt3Percent) {
  // Every recorded value must land in a slot whose upper bound is within
  // 1/32 (one sub-bucket) of it, across the whole range.
  std::uint64_t state = 42;
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t v = splitmix64(state) >> (splitmix64(state) % 40);
    latency_histogram single;
    single.add(v);
    const std::uint64_t rep = single.percentile(1.0);
    EXPECT_GE(rep, v);  // slot upper bound never under-reports
    EXPECT_LE(static_cast<double>(rep - v),
              static_cast<double>(v) / 32.0 + 1.0)
        << "value " << v;
  }
}

TEST(LatencyHistogram, PercentilesOfKnownDistribution) {
  // 1000 samples at 1µs, 10 at 1ms: p50/p90/p99 sit in the bulk, p999 and
  // max surface the outliers — the shape bench_jobserver's report relies on.
  latency_histogram h;
  for (int i = 0; i < 1000; ++i) h.add(1'000);
  for (int i = 0; i < 10; ++i) h.add(1'000'000);
  EXPECT_EQ(h.total(), 1010u);
  EXPECT_NEAR(static_cast<double>(h.p50()), 1'000.0, 1'000.0 / 32.0 + 1);
  EXPECT_NEAR(static_cast<double>(h.p99()), 1'000.0, 1'000.0 / 32.0 + 1);
  EXPECT_GE(h.p999(), 900'000u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_NEAR(h.mean(), (1000.0 * 1e3 + 10 * 1e6) / 1010.0, 1.0);
}

TEST(LatencyHistogram, PercentileClampedIntoObservedRange) {
  latency_histogram h;
  h.add(100);
  h.add(200);
  // Bucket upper bounds would over-report; min/max clamp keeps percentiles
  // inside what was actually seen.
  EXPECT_GE(h.percentile(0.0), 100u);
  EXPECT_LE(h.percentile(1.0), 200u);
}

TEST(LatencyHistogram, MergeEqualsReplay) {
  latency_histogram a, b, replay;
  std::uint64_t state = 7;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = splitmix64(state) % 1'000'000;
    (i % 2 == 0 ? a : b).add(v);
    replay.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), replay.total());
  EXPECT_EQ(a.min(), replay.min());
  EXPECT_EQ(a.max(), replay.max());
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(p), replay.percentile(p)) << p;
  }
}

TEST(ReservoirSampler, KeepsAllBelowCapacityThenStaysFull) {
  reservoir_sampler r(8, /*seed=*/3);
  for (std::uint64_t v = 1; v <= 5; ++v) r.add(v);
  EXPECT_EQ(r.samples().size(), 5u);
  for (std::uint64_t v = 6; v <= 1000; ++v) r.add(v);
  EXPECT_EQ(r.samples().size(), 8u);
  EXPECT_EQ(r.seen(), 1000u);
  // Every retained sample is one of the inputs.
  for (std::uint64_t s : r.samples()) {
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 1000u);
  }
}

TEST(ReservoirSampler, DeterministicFromSeed) {
  reservoir_sampler a(16, 9), b(16, 9);
  for (std::uint64_t v = 0; v < 4096; ++v) {
    a.add(v);
    b.add(v);
  }
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(Table, AlignedOutputContainsAllCells) {
  table t{"P", "speedup"};
  t.row(4, 3.97);
  t.row(16, 10.31);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("P"), std::string::npos);
  EXPECT_NE(s.find("3.97"), std::string::npos);
  EXPECT_NE(s.find("10.31"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRendering) {
  table t{"a", "b"};
  t.row(1, std::string("x"));
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,x\n");
}

TEST(Table, IntegralDoubleRendering) {
  EXPECT_EQ(table::format_cell(3.0), "3");
  EXPECT_EQ(table::format_cell(3.25), "3.25");
  EXPECT_EQ(table::format_cell(-7), "-7");
  EXPECT_EQ(table::format_cell(std::uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
}

TEST(SmallVector, StaysInlineUpToCapacity) {
  small_vector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapAndPreservesContents) {
  small_vector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GT(v.capacity(), 2u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 3);
}

TEST(SmallVector, CopyAndMoveSemantics) {
  small_vector<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  small_vector<int, 2> copy(v);
  EXPECT_EQ(copy.size(), 10u);
  EXPECT_EQ(copy[9], 9);
  small_vector<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(moved[0], 0);
  EXPECT_EQ(v.size(), 0u);  // moved-from is empty and reusable
  v.push_back(42);
  EXPECT_EQ(v[0], 42);
}

TEST(SmallVector, CopyAssignReplacesContents) {
  small_vector<int, 2> a, b;
  a.push_back(1);
  for (int i = 0; i < 8; ++i) b.push_back(i);
  a = b;
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a[7], 7);
  b = b;  // self-assignment is a no-op
  EXPECT_EQ(b.size(), 8u);
}

TEST(SmallVector, PopBackAndIteration) {
  small_vector<int, 2> v;
  v.push_back(5);
  v.push_back(6);
  v.pop_back();
  EXPECT_EQ(v.back(), 5);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 5);
}

TEST(SmallVector, SwapRemoveIsOrderAgnosticErase) {
  small_vector<int, 2> v;
  for (int x : {10, 20, 30, 40}) v.push_back(x);
  v.swap_remove(1);  // 20 replaced by the last element
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 40);
  EXPECT_EQ(v[2], 30);
  v.swap_remove(2);  // removing the last element is a plain pop
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 40);
  v.swap_remove(0);
  v.swap_remove(0);
  EXPECT_TRUE(v.empty());
}

// --- json_writer: the BENCH_*.json emitter. ---

TEST(JsonWriter, FlatObject) {
  json_writer w;
  w.begin_object();
  w.field("name", "pair");
  w.field("ns", 1.5);
  w.field("iters", std::uint64_t{3});
  w.field("ok", true);
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"name\": \"pair\",\n"
            "  \"ns\": 1.5,\n"
            "  \"iters\": 3,\n"
            "  \"ok\": true\n"
            "}\n");
}

TEST(JsonWriter, NestedContainers) {
  json_writer w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.value(1);
  w.begin_object();
  w.field("b", "x");
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"a\": [\n"
            "    1,\n"
            "    {\n"
            "      \"b\": \"x\"\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainersStayOnOneLine) {
  json_writer w;
  w.begin_object();
  w.key("empty_arr");
  w.begin_array();
  w.end_array();
  w.key("empty_obj");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"empty_arr\": [],\n"
            "  \"empty_obj\": {}\n"
            "}\n");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  json_writer w;
  w.begin_object();
  w.field("k\"ey", "a\\b\nc\td\r\x01");
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"k\\\"ey\": \"a\\\\b\\nc\\td\\r\\u0001\"\n"
            "}\n");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  json_writer w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(0.25);
  w.null();
  w.end_array();
  EXPECT_EQ(w.take(), "[\n  null,\n  null,\n  0.25,\n  null\n]\n");
}

TEST(JsonWriter, NegativeAndLargeIntegersRoundTrip) {
  json_writer w;
  w.begin_array();
  w.value(std::int64_t{-42});
  w.value(std::uint64_t{18446744073709551615ULL});
  w.end_array();
  EXPECT_EQ(w.take(), "[\n  -42,\n  18446744073709551615\n]\n");
}

TEST(JsonWriter, TakeResetsForANewDocument) {
  json_writer w;
  w.begin_object();
  w.end_object();
  EXPECT_EQ(w.take(), "{}\n");
  w.begin_array();
  w.value(7);
  w.end_array();
  EXPECT_EQ(w.take(), "[\n  7\n]\n");
}

}  // namespace
}  // namespace cilkpp
