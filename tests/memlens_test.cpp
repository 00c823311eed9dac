// Tests for cilk::memlens — the cache-line false-sharing & locality
// analyzer (src/memlens).
//
// Mirrors the lint test structure: mask/analyzer-direct tests use a
// synthetic strand id and compile in every configuration; the
// engine-facing tests run TYPED over both SP engines (SP-bags and
// SP-order) and additionally hold the two engines to bit-identical
// ADDRESS-FREE fingerprints — the property that makes memlens output
// diffable across runs, machines, and engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cilkscreen/screen_context.hpp"
#include "hyper/reducers.hpp"
#include "memlens/analyzer.hpp"
#include "memlens/report.hpp"
#include "stress/interp.hpp"
#include "stress/program.hpp"
#include "support/cache.hpp"

namespace cilkpp {
namespace {

using memlens::byte_mask;
using memlens::lens_kind;
using memlens::lens_record;

// --- Line geometry and masks (pure functions, every configuration) ---

TEST(MemlensMask, LineGeometry) {
  EXPECT_EQ(memlens::line_of(0x1000), 0x1000u);
  EXPECT_EQ(memlens::line_of(0x103f), 0x1000u);
  EXPECT_EQ(memlens::line_of(0x1040), 0x1040u);
  EXPECT_EQ(memlens::line_offset(0x1000), 0u);
  EXPECT_EQ(memlens::line_offset(0x1039), 0x39u);
}

TEST(MemlensMask, MaskOfClampsToTheLine) {
  EXPECT_EQ(memlens::mask_of(0, 1), byte_mask{1});
  EXPECT_EQ(memlens::mask_of(0, 8), byte_mask{0xff});
  EXPECT_EQ(memlens::mask_of(8, 8), byte_mask{0xff00});
  EXPECT_EQ(memlens::mask_of(0, 64), ~byte_mask{0});
  EXPECT_EQ(memlens::mask_of(0, 1000), ~byte_mask{0});  // clamped
  EXPECT_EQ(memlens::mask_of(63, 16), byte_mask{1} << 63);
  EXPECT_EQ(memlens::mask_of(64, 8), byte_mask{0});  // off the line
  EXPECT_EQ(memlens::mask_of(0, 0), byte_mask{0});
}

TEST(MemlensMask, LowAndHighBounds) {
  EXPECT_EQ(memlens::mask_low(byte_mask{0xff00}), 8u);
  EXPECT_EQ(memlens::mask_high(byte_mask{0xff00}), 15u);
  EXPECT_EQ(memlens::mask_low(byte_mask{1} << 63), 63u);
  EXPECT_EQ(memlens::mask_high(byte_mask{1}), 0u);
  EXPECT_EQ(memlens::render_mask(byte_mask{0xff00}), "bytes [8,15]");
  EXPECT_EQ(memlens::render_mask(byte_mask{0}), "bytes {}");
}

// --- Analyzer in isolation (synthetic strands; every configuration) ---

const auto always_parallel = [](const int&) { return true; };
const auto never_parallel = [](const int&) { return false; };
constexpr std::uintptr_t line0 = 0x10000;
constexpr auto W = screen::access_kind::write;
constexpr auto R = screen::access_kind::read;

TEST(MemlensAnalyzer, ParallelDisjointWritesReportFalseSharing) {
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, line0, 8, W, "a", always_parallel);
  ml.on_access(2, 2, line0 + 8, 8, W, "b", always_parallel);
  ml.finish();
  ASSERT_EQ(ml.records().size(), 1u);
  const lens_record& r = ml.records().front();
  EXPECT_EQ(r.kind, lens_kind::false_sharing);
  EXPECT_EQ(r.line, line0);
  EXPECT_EQ(r.first_mask, byte_mask{0xff});
  EXPECT_EQ(r.second_mask, byte_mask{0xff00});
  EXPECT_EQ(r.first_mask & r.second_mask, byte_mask{0});
  EXPECT_EQ(r.first, W);
  EXPECT_EQ(r.second, W);
  EXPECT_EQ(r.first_label, "a");
  EXPECT_EQ(r.second_label, "b");
}

TEST(MemlensAnalyzer, DisjointWriteVsParallelReadStillReports) {
  // One writer is enough: the reader's core keeps losing the line.
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, line0, 8, W, nullptr, always_parallel);
  ml.on_access(2, 2, line0 + 32, 8, R, nullptr, always_parallel);
  ml.finish();
  ASSERT_EQ(ml.records().size(), 1u);
  EXPECT_EQ(ml.records().front().first, W);
  EXPECT_EQ(ml.records().front().second, R);
}

TEST(MemlensAnalyzer, ParallelReadsAreHarmless) {
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, line0, 8, R, nullptr, always_parallel);
  ml.on_access(2, 2, line0 + 8, 8, R, nullptr, always_parallel);
  ml.finish();
  EXPECT_TRUE(ml.clean());
  EXPECT_EQ(ml.stats().suppressed_true, 0u);
  EXPECT_EQ(ml.stats().suppressed_serial, 0u);
}

TEST(MemlensAnalyzer, OverlappingParallelPairSuppressedAsTrueSharing) {
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, line0, 8, W, nullptr, always_parallel);
  ml.on_access(2, 2, line0 + 4, 8, W, nullptr, always_parallel);
  ml.finish();
  EXPECT_TRUE(ml.clean());
  EXPECT_EQ(ml.stats().suppressed_true, 1u);
}

TEST(MemlensAnalyzer, SerialPairSuppressedAsReuse) {
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, line0, 8, W, nullptr, never_parallel);
  ml.on_access(2, 2, line0 + 8, 8, W, nullptr, never_parallel);
  ml.finish();
  EXPECT_TRUE(ml.clean());
  EXPECT_EQ(ml.stats().suppressed_serial, 1u);
}

TEST(MemlensAnalyzer, RepeatedTouchesDeduplicateToOnePairRecord) {
  memlens::analyzer<int> ml;
  for (int i = 0; i < 1000; ++i) {
    ml.on_access(1, 1, line0, 8, W, nullptr, always_parallel);
    ml.on_access(2, 2, line0 + 8, 8, W, nullptr, always_parallel);
  }
  ml.finish();
  EXPECT_EQ(ml.records().size(), 1u);
  EXPECT_EQ(ml.stats().records_found, 1u);
  EXPECT_EQ(ml.stats().accesses, 2000u);
}

TEST(MemlensAnalyzer, AccessSpanningLinesFoldsIntoEachLine) {
  memlens::analyzer<int> ml;
  // 16 bytes starting 8 before a boundary: tail of one line, head of next.
  ml.on_access(1, 1, line0 + 56, 16, W, nullptr, always_parallel);
  ml.on_access(2, 2, line0, 8, W, nullptr, always_parallel);        // line 0
  ml.on_access(3, 3, line0 + 72, 8, W, nullptr, always_parallel);   // line 1
  ml.finish();
  EXPECT_EQ(ml.stats().lines_touched, 2u);
  EXPECT_EQ(ml.stats().accesses, 4u);  // the spanning access counts twice
  ASSERT_EQ(ml.records().size(), 2u);
  EXPECT_EQ(ml.records()[0].line, line0);
  EXPECT_EQ(ml.records()[0].first_mask, byte_mask{0xff} << 56);
  EXPECT_EQ(ml.records()[1].line, line0 + 64);
  EXPECT_EQ(ml.records()[1].first_mask, byte_mask{0xff});
}

TEST(MemlensAnalyzer, AccessorCapacitySpillsAreCounted) {
  memlens::analyzer<int> ml;
  const std::size_t cap = memlens::analyzer<int>::line_accessor_capacity;
  // Every strand touches ITS OWN byte, all serial: no sharing, but more
  // distinct strands than one line's history can hold.
  for (std::size_t i = 0; i < cap + 3; ++i) {
    ml.on_access(static_cast<int>(i), static_cast<screen::proc_id>(i),
                 line0 + (i % 64), 1, W, nullptr, never_parallel);
  }
  ml.finish();
  EXPECT_EQ(ml.stats().accessor_spills, 3u);
  EXPECT_TRUE(ml.clean());
  ASSERT_EQ(ml.contended_lines(4).size(), 1u);
  EXPECT_EQ(ml.contended_lines(4)[0].spills, 3u);
  EXPECT_EQ(ml.contended_lines(4)[0].accessors,
            static_cast<std::uint32_t>(cap));
}

TEST(MemlensAnalyzer, ContendedLinesRankByFalseSharingThenTraffic) {
  memlens::analyzer<int> ml;
  // line0: plenty of serial traffic, no sharing.
  for (int i = 0; i < 50; ++i) {
    ml.on_access(1, 1, line0, 8, W, nullptr, never_parallel);
  }
  // line0+64: one false-sharing pair, little traffic.
  ml.on_access(2, 2, line0 + 64, 8, W, nullptr, always_parallel);
  ml.on_access(3, 3, line0 + 72, 8, W, nullptr, always_parallel);
  ml.finish();
  const auto top = ml.contended_lines(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].line, line0 + 64);  // pairs beat raw traffic
  EXPECT_EQ(top[0].fs_pairs, 1u);
  EXPECT_EQ(top[1].line, line0);
  EXPECT_EQ(top[1].accesses, 50u);
}

TEST(MemlensAnalyzer, FootprintsCountLinesAndReuse) {
  memlens::analyzer<int> ml;
  for (int i = 0; i < 4; ++i) {
    ml.on_access(1, 1, line0 + 64 * i, 8, W, nullptr, never_parallel);
  }
  ml.on_access(1, 1, line0, 8, W, nullptr, never_parallel);  // reuse
  ml.finish();
  const auto fp = ml.footprints();
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_EQ(fp[0].proc, 1u);
  EXPECT_EQ(fp[0].accesses, 5u);
  EXPECT_EQ(fp[0].lines, 4u);
}

TEST(MemlensAnalyzer, CoResidentRegionsLintAsPadding) {
  memlens::analyzer<int> ml;
  ml.on_region(reinterpret_cast<void*>(line0), 16, "counter A");
  ml.on_region(reinterpret_cast<void*>(line0 + 16), 16, "counter B");
  ml.on_region(reinterpret_cast<void*>(line0 + 128), 16, "far away");
  ml.finish();
  ASSERT_EQ(ml.records().size(), 1u);
  const lens_record& r = ml.records().front();
  EXPECT_EQ(r.kind, lens_kind::padding);
  EXPECT_EQ(r.line, line0);
  EXPECT_EQ(r.first_mask, byte_mask{0xffff});
  EXPECT_EQ(r.second_mask, byte_mask{0xffff} << 16);
  EXPECT_EQ(r.first_label, "counter A");
  EXPECT_EQ(r.second_label, "counter B");
  EXPECT_EQ(ml.stats().regions, 3u);
}

TEST(MemlensAnalyzer, NestedRegionIsNotAPaddingLint) {
  memlens::analyzer<int> ml;
  ml.on_region(reinterpret_cast<void*>(line0), 32, "outer");
  ml.on_region(reinterpret_cast<void*>(line0 + 8), 8, "inner");
  ml.finish();
  EXPECT_TRUE(ml.clean());
}

TEST(MemlensAnalyzer, LineAlignedRegionsAreClean) {
  memlens::analyzer<int> ml;
  ml.on_region(reinterpret_cast<void*>(line0), 64, "padded A");
  ml.on_region(reinterpret_cast<void*>(line0 + 64), 64, "padded B");
  ml.finish();
  EXPECT_TRUE(ml.clean());
}

TEST(MemlensAnalyzer, FinishIsIdempotent) {
  memlens::analyzer<int> ml;
  ml.on_region(reinterpret_cast<void*>(line0), 16, "a");
  ml.on_region(reinterpret_cast<void*>(line0 + 16), 16, "b");
  ml.finish();
  ml.finish();
  EXPECT_EQ(ml.records().size(), 1u);
}

// --- Fingerprints are address-free ---

TEST(MemlensFingerprint, IgnoresLineAddressesAndProcIds) {
  const auto run_at = [](std::uintptr_t base, screen::proc_id p0) {
    memlens::analyzer<int> ml;
    ml.on_access(1, p0, base, 8, W, "a", always_parallel);
    ml.on_access(2, p0 + 1, base + 8, 8, W, "b", always_parallel);
    ml.finish();
    return memlens::lens_set_fingerprint(ml.records());
  };
  // Same logical report at two different "ASLR" placements and different
  // proc numberings: identical fingerprint.
  EXPECT_EQ(run_at(0x7f0000000000, 1), run_at(0x10000, 7));
  // Different byte geometry: different fingerprint.
  memlens::analyzer<int> ml;
  ml.on_access(1, 1, 0x10000, 4, W, "a", always_parallel);
  ml.on_access(2, 2, 0x10000 + 8, 8, W, "b", always_parallel);
  ml.finish();
  EXPECT_NE(memlens::lens_set_fingerprint(ml.records()), run_at(0x10000, 1));
}

// --- The analyzer attached to a real SP engine, typed over both ---

template <typename D>
class MemlensEngine : public ::testing::Test {
 protected:
  using Ctx = screen::basic_screen_context<D>;
  using Mutex = screen::basic_screen_mutex<D>;
};
using Engines = ::testing::Types<screen::detector, screen::order_detector>;
TYPED_TEST_SUITE(MemlensEngine, Engines);

/// One 64-byte line of eight independently-addressable words.
struct alignas(cache_line_size) test_line {
  std::uint64_t w[8] = {};
};

TYPED_TEST(MemlensEngine, SiblingSpawnWritersOnOneLineAreFalseSharing) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);
  test_line line;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      c.note_write(&line.w[0], sizeof(std::uint64_t), "lane 0");
      line.w[0] = 1;
    });
    ctx.spawn([&](Ctx& c) {
      c.note_write(&line.w[1], sizeof(std::uint64_t), "lane 1");
      line.w[1] = 2;
    });
    ctx.sync();
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());  // disjoint bytes: NOT a race...
  ASSERT_EQ(ml.records().size(), 1u);  // ...but it IS false sharing
  const lens_record& r = ml.records().front();
  EXPECT_EQ(r.kind, lens_kind::false_sharing);
  EXPECT_EQ(r.first_mask & r.second_mask, byte_mask{0});
  EXPECT_EQ(r.first, W);
  EXPECT_EQ(r.second, W);
  const std::string msg = memlens::render_lens(r, d.procedures());
  EXPECT_NE(msg.find("false sharing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root/spawn#1"), std::string::npos) << msg;
  EXPECT_FALSE(r.first_ped.empty());
  EXPECT_FALSE(r.second_ped.empty());
}

TYPED_TEST(MemlensEngine, Grain1ParallelForOverAdjacentBytesIsFalseSharing) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);
  alignas(cache_line_size) unsigned char bytes[64] = {};
  screen::run_under_detector(d, [&](Ctx& ctx) {
    screen::parallel_for(ctx, 0, 8, [&](Ctx& c, int i) {
      c.note_write(&bytes[i], 1, "pfor byte");
      bytes[i] = static_cast<unsigned char>(i);
    }, /*grain=*/1);
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());
  EXPECT_FALSE(ml.clean());
  // 8 leaves all writing one line: many pairs, all on the same line.
  for (const lens_record& r : ml.records()) {
    EXPECT_EQ(r.kind, lens_kind::false_sharing);
    EXPECT_EQ(r.line, memlens::line_of(
                          reinterpret_cast<std::uintptr_t>(&bytes[0])));
  }
}

TYPED_TEST(MemlensEngine, SequentialStrandsOnOneLineAreReuseNotSharing) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);
  test_line line;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      c.note_write(&line.w[0], sizeof(std::uint64_t), nullptr);
    });
    ctx.sync();  // orders the two writers
    ctx.spawn([&](Ctx& c) {
      c.note_write(&line.w[1], sizeof(std::uint64_t), nullptr);
    });
    ctx.sync();
  });
  ml.finish();
  EXPECT_TRUE(ml.clean())
      << memlens::render_lenses(ml.records(), d.procedures());
  EXPECT_GE(ml.stats().suppressed_serial, 1u);
}

TYPED_TEST(MemlensEngine, LockedOverlappingWritesAreTrueSharingNotFalse) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);
  typename TestFixture::Mutex mu(d);
  test_line line;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    ctx.spawn([&](Ctx& c) {
      mu.lock(c);
      c.note_write(&line.w[0], sizeof(std::uint64_t), nullptr);
      mu.unlock(c);
    });
    ctx.spawn([&](Ctx& c) {
      mu.lock(c);
      c.note_write(&line.w[0], sizeof(std::uint64_t), nullptr);
      mu.unlock(c);
    });
    ctx.sync();
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());  // lock-protected: not a race
  EXPECT_TRUE(ml.clean());        // overlapping bytes: not FALSE sharing
  EXPECT_GE(ml.stats().suppressed_true, 1u);
}

TYPED_TEST(MemlensEngine, AdjacentReducersLintAsPadding) {
  using Ctx = typename TestFixture::Ctx;
  TypeParam d;
  typename TypeParam::memlens_analyzer ml;
  d.attach_memlens(&ml);
  // Two reducers packed into one cache line: their view slots co-reside.
  struct alignas(cache_line_size) packed {
    hyper::reducer_opadd<std::uint64_t> a;
    hyper::reducer_opadd<std::uint64_t> b;
  } rs;
  screen::run_under_detector(d, [&](Ctx& ctx) {
    rs.a.view(ctx) += 1;
    rs.b.view(ctx) += 2;
  });
  ml.finish();
  bool found_padding = false;
  for (const lens_record& r : ml.records()) {
    found_padding = found_padding || r.kind == lens_kind::padding;
  }
  EXPECT_TRUE(found_padding)
      << memlens::render_lenses(ml.records(), d.procedures());
}

// --- Cross-engine and cross-run determinism ---

/// Runs the planted four-lane strided-write program under detector D and
/// returns the lens set fingerprint (plus record count via out-param).
template <typename D>
std::uint64_t planted_fingerprint(std::size_t* num_records = nullptr) {
  const stress::program p = stress::make_planted_false_sharing();
  stress::run_state st(p);
  D d;
  typename D::memlens_analyzer ml;
  d.attach_memlens(&ml);
  screen::run_under_detector(d, [&](screen::basic_screen_context<D>& ctx) {
    stress::interp(ctx, p, p.root, st);
  });
  ml.finish();
  EXPECT_FALSE(d.found_races());
  EXPECT_FALSE(ml.clean());
  if (num_records != nullptr) *num_records = ml.records().size();
  return memlens::lens_set_fingerprint(ml.records());
}

TYPED_TEST(MemlensEngine, PlantedStridedWritesFireAndAreRunDeterministic) {
  std::size_t n1 = 0, n2 = 0;
  const std::uint64_t f1 = planted_fingerprint<TypeParam>(&n1);
  const std::uint64_t f2 = planted_fingerprint<TypeParam>(&n2);
  // Four lanes on one line: C(4,2) = 6 deduped pairs.
  EXPECT_EQ(n1, 6u);
  EXPECT_EQ(f1, f2);  // repeat run, same engine: bit-identical
}

TEST(MemlensCrossEngine, BothEnginesProduceBitIdenticalFingerprints) {
  EXPECT_EQ(planted_fingerprint<screen::detector>(),
            planted_fingerprint<screen::order_detector>());
}

TEST(MemlensCrossEngine, GeneratedCorpusIsMemlensCleanOnBothEngines) {
  // The stress pools are one padded line per element (interp.hpp), so
  // generated programs — stripe writes included — must be memlens-clean
  // under BOTH engines. (The stress oracle enforces this for SP-bags on
  // every fuzz case; this is the cross-engine spot check.)
  const auto clean_under = []<typename D>(const stress::program& p) {
    stress::run_state st(p);
    D d;
    typename D::memlens_analyzer ml;
    d.attach_memlens(&ml);
    screen::run_under_detector(d, [&](screen::basic_screen_context<D>& ctx) {
      stress::interp(ctx, p, p.root, st);
    });
    ml.finish();
    EXPECT_TRUE(ml.clean())
        << p.describe()
        << memlens::render_lenses(ml.records(), d.procedures());
    return ml.stats().accesses;
  };
  bool saw_stripes = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const stress::program p = stress::generate_program(seed, 14);
    saw_stripes = saw_stripes || p.num_stripes > 0;
    const std::uint64_t a =
        clean_under.template operator()<screen::detector>(p);
    const std::uint64_t b =
        clean_under.template operator()<screen::order_detector>(p);
    EXPECT_EQ(a, b) << seed;  // identical instrumented streams
  }
  EXPECT_TRUE(saw_stripes);  // the sweep actually exercised stripe_write
}

}  // namespace
}  // namespace cilkpp
