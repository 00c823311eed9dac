// Tests for cilk::trace: the SPSC ring (overflow accounting, concurrent
// round-trip), session capture of a real scheduled run, Chrome-JSON export
// (event counts vs ring totals, begin/end nesting), and the what-if replay
// bridge (sim T1 vs measured serial work, cilkview bound checks).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "trace/chrome.hpp"
#include "trace/replay.hpp"
#include "trace/ring.hpp"
#include "trace/session.hpp"
#include "trace/timeline.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"

#include "hook_programs.hpp"

namespace cilkpp::trace {
namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;

event make_event(std::uint64_t t, event_kind k, std::uint64_t frame,
                 std::uint64_t aux64 = 0, std::uint32_t aux32 = 0,
                 std::uint16_t aux16 = 0, std::uint16_t worker = 0) {
  return event{t, frame, aux64, aux32, aux16, k, worker};
}

TEST(EventRing, RoundsCapacityUpToPowerOfTwo) {
  event_ring r(10);
  EXPECT_EQ(r.capacity(), 16u);
  event_ring tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(EventRing, OverflowDropsAreCountedNeverBlocking) {
  event_ring r(8);
  const std::size_t attempts = 20;
  std::size_t pushed = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    pushed += r.try_push(make_event(i, event_kind::spawn, i)) ? 1 : 0;
  }
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(r.recorded(), 8u);
  EXPECT_EQ(r.dropped(), attempts - 8u);

  // Draining frees capacity; recording resumes and totals stay monotone.
  std::vector<event> out;
  EXPECT_EQ(r.pop_all(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].frame, i);
  EXPECT_TRUE(r.try_push(make_event(99, event_kind::spawn, 99)));
  EXPECT_EQ(r.recorded(), 9u);
  EXPECT_EQ(r.dropped(), attempts - 8u);
}

TEST(EventRing, ConcurrentWriterReaderRoundTrip) {
  event_ring r(64);
  const std::uint64_t n = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      while (!r.try_push(make_event(i, event_kind::spawn, i))) {
        std::this_thread::yield();  // test wants every event through
      }
    }
  });
  std::vector<event> got;
  while (got.size() < n) {
    if (r.pop_all(got) == 0) std::this_thread::yield();
  }
  producer.join();
  ASSERT_EQ(got.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].frame, i) << "SPSC order violated at " << i;
    if (got[i].frame != i) break;
  }
  // The producer retried on full, so the drop counter only holds rejected
  // attempts that were later retried — recorded() counts each event once.
  EXPECT_EQ(r.recorded(), n);
}

// ---------------------------------------------------------------------------
// A hand-built single-worker trace with known gaps: checks the sweep's
// exclusive-time attribution and the replay's dag, deterministically.

TEST(Timeline, SweepAttributesExclusiveTimeAndReplayMatches) {
  const std::uint64_t root = 100, child = 200;
  std::vector<event> evs{
      make_event(0, event_kind::frame_begin, root, 0, 0,
                 static_cast<std::uint16_t>(frame_kind::root)),
      make_event(10, event_kind::spawn, root, child, 0),
      make_event(15, event_kind::sync_begin, root, 0, 1),
      make_event(20, event_kind::frame_begin, child, root, 1,
                 static_cast<std::uint16_t>(frame_kind::spawned)),
      make_event(30, event_kind::sync_begin, child, 0, 0, 1),
      make_event(30, event_kind::sync_end, child, 0, 0, 1),
      make_event(35, event_kind::frame_end, child),
      make_event(40, event_kind::sync_end, root, 0, 1),
      make_event(50, event_kind::frame_end, root),
  };
  timeline t = assemble({evs}, evs.size(), 0);
  EXPECT_EQ(t.anomalies, 0u);
  ASSERT_TRUE(t.has_root);
  EXPECT_EQ(t.span_ns(), 50u);

  const frame_info& rf = t.frames.at(root);
  ASSERT_EQ(rf.strand_ns.size(), 3u);  // spawn and sync are boundaries
  EXPECT_EQ(rf.strand_ns[0], 10u);     // begin → spawn
  EXPECT_EQ(rf.strand_ns[1], 5u);      // spawn → sync_begin
  EXPECT_EQ(rf.strand_ns[2], 10u);     // sync_end → end
  const frame_info& cf = t.frames.at(child);
  ASSERT_EQ(cf.strand_ns.size(), 2u);
  EXPECT_EQ(cf.strand_ns[0], 10u);
  EXPECT_EQ(cf.strand_ns[1], 5u);

  EXPECT_EQ(t.total_busy_ns(), 40u);
  EXPECT_EQ(t.lanes[0].busy_ns, 40u);
  EXPECT_EQ(t.lanes[0].scheduling_ns, 10u);  // waiting inside root's sync

  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, 2u);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.measured_busy_ns, 40u);

  sim::machine_config cfg;
  cfg.processors = 1;
  const sim::sim_result r1 = sim::simulate(rec.g, cfg);
  EXPECT_EQ(r1.work, 40u);
  EXPECT_EQ(r1.makespan, 40u);  // 1 processor: T1 == measured serial work
}

TEST(Replay, DeepCalledChainReplaysIterativelyWithoutOverflow) {
  // A 200k-deep chain of called frames: the real run spreads this depth
  // across worker stacks, so the replay must not pile it onto one host
  // stack via recursion (it used to).
  timeline t;
  t.workers = 1;
  t.has_root = true;
  t.root = 1;
  const std::uint64_t depth = 200000;
  for (std::uint64_t i = 1; i <= depth; ++i) {
    frame_info f;
    f.ped = i;
    f.kind = i == 1 ? frame_kind::root : frame_kind::called;
    f.strand_ns = {1};
    if (i < depth) {
      f.controls.push_back({strand_control::type::call, i + 1});
      f.strand_ns.push_back(1);
    }
    t.frames.emplace(i, std::move(f));
  }
  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, depth);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.measured_busy_ns, 2 * depth - 1);
}

TEST(Replay, CyclicChildLinksAreCutNotWalkedForever) {
  // A corrupted trace whose child links cycle back to the root: the walk
  // must terminate, replaying the revisited child as missing.
  timeline t;
  t.workers = 1;
  t.has_root = true;
  t.root = 1;
  frame_info root;
  root.ped = 1;
  root.kind = frame_kind::root;
  root.strand_ns = {5, 5};
  root.controls.push_back({strand_control::type::spawn, 2});
  frame_info child;
  child.ped = 2;
  child.kind = frame_kind::spawned;
  child.strand_ns = {3, 3};
  child.controls.push_back({strand_control::type::call, 1});  // back edge
  t.frames.emplace(1, std::move(root));
  t.frames.emplace(2, std::move(child));
  reconstruction rec = reconstruct_dag(t);
  EXPECT_EQ(rec.frames, 2u);
  EXPECT_EQ(rec.missing_frames, 1u);
  EXPECT_EQ(rec.measured_busy_ns, 16u);
}

// ---------------------------------------------------------------------------
// Minimal Chrome-trace JSON reader for validation: splits the traceEvents
// array into objects (tracking brace depth) and extracts name/ph/tid.

struct jevent {
  std::string name;
  std::string ph;
  int tid = -1;
};

std::string extract_string(const std::string& obj, const std::string& key) {
  const std::string probe = "\"" + key + "\":\"";
  const std::size_t at = obj.find(probe);
  if (at == std::string::npos) return {};
  const std::size_t start = at + probe.size();
  return obj.substr(start, obj.find('"', start) - start);
}

int extract_int(const std::string& obj, const std::string& key) {
  const std::string probe = "\"" + key + "\":";
  const std::size_t at = obj.find(probe);
  if (at == std::string::npos) return -1;
  return std::stoi(obj.substr(at + probe.size()));
}

std::vector<jevent> parse_chrome_events(const std::string& json) {
  std::vector<jevent> out;
  const std::size_t array_at = json.find("\"traceEvents\":[");
  EXPECT_NE(array_at, std::string::npos);
  std::size_t i = json.find('[', array_at) + 1;
  int depth = 0;
  std::size_t obj_start = 0;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        const std::string obj = json.substr(obj_start, i - obj_start + 1);
        out.push_back(jevent{extract_string(obj, "name"),
                             extract_string(obj, "ph"), extract_int(obj, "tid")});
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces in trace JSON";
  return out;
}

struct fib_capture {
  timeline t;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t expected = 0;
};

fib_capture capture_fib(unsigned workers, unsigned n,
                        std::size_t ring_capacity = std::size_t{1} << 17) {
  scheduler sched(workers);
  session cap(sched, session_options{ring_capacity});
  std::uint64_t result = 0;
  sched.run([&](context& ctx) { result = workloads::fib(ctx, n); });
  fib_capture out;
  out.recorded = cap.recorded();
  out.dropped = cap.dropped();
  out.t = cap.assemble();
  out.expected = result;
  return out;
}

TEST(Session, CapturesConsistentFibTimelineOnFourWorkers) {
  fib_capture cap = capture_fib(4, 18);
  EXPECT_EQ(cap.expected, 2584u);
  EXPECT_EQ(cap.dropped, 0u) << "raise ring_capacity: drops break the rest";
  EXPECT_EQ(cap.t.anomalies, 0u);
  ASSERT_TRUE(cap.t.has_root);
  EXPECT_EQ(static_cast<std::uint64_t>(cap.t.events.size()), cap.recorded);

  // Every spawned/called frame's parent is in the trace, and the spawn
  // provenance closes: each non-root frame appears in its parent's controls.
  std::size_t spawned = 0;
  for (const auto& [ped, f] : cap.t.frames) {
    EXPECT_TRUE(f.ended);
    EXPECT_EQ(f.strand_ns.size(), f.controls.size() + 1);
    if (f.kind == frame_kind::root) continue;
    ++spawned;
    auto parent = cap.t.frames.find(f.parent);
    ASSERT_NE(parent, cap.t.frames.end());
    bool referenced = false;
    for (const strand_control& c : parent->second.controls) {
      referenced |= (c.child == ped);
    }
    EXPECT_TRUE(referenced);
  }
  EXPECT_GT(spawned, 100u);  // fib(18) spawns thousands of frames

  // Lane busy time and per-frame exclusive time are two views of the same
  // attribution.
  std::uint64_t lane_busy = 0;
  for (const worker_lane& lane : cap.t.lanes) lane_busy += lane.busy_ns;
  EXPECT_EQ(lane_busy, cap.t.total_busy_ns());

  // Steal bookkeeping: the matrix, the lanes, and the event list agree.
  std::uint64_t matrix_total = 0;
  for (const auto& row : cap.t.steals_by_victim) {
    for (std::uint64_t c : row) matrix_total += c;
  }
  std::uint64_t lane_steals = 0;
  for (const worker_lane& lane : cap.t.lanes) lane_steals += lane.steals;
  EXPECT_EQ(matrix_total, cap.t.steals.size());
  EXPECT_EQ(lane_steals, cap.t.steals.size());

  // The tables render without dying and carry one row per worker.
  EXPECT_EQ(utilization_table(cap.t).rows(), 4u);
  EXPECT_EQ(steal_matrix_table(cap.t).rows(), 4u);
  EXPECT_EQ(steal_interval_table(cap.t).rows(), 4u);
}

TEST(Session, OneWorkerFibTraceRecordsEverySpawnAsASpawnedFrame) {
  // A one-worker scheduler runs each spawn as a call; the trace must still
  // show the same dag: one spawn event and one spawned frame per spawn.
  constexpr std::uint64_t fib18_spawns = 4180;  // fib(19) - 1
  fib_capture one = capture_fib(1, 18);
  EXPECT_EQ(one.expected, 2584u);
  ASSERT_EQ(one.dropped, 0u);
  EXPECT_EQ(one.t.anomalies, 0u);
  std::uint64_t spawn_events = 0;
  for (const event& e : one.t.events) {
    spawn_events += e.kind == event_kind::spawn ? 1 : 0;
  }
  std::uint64_t spawned_frames = 0;
  for (const auto& [ped, f] : one.t.frames) {
    EXPECT_TRUE(f.ended);
    spawned_frames += f.kind == frame_kind::spawned ? 1 : 0;
  }
  EXPECT_EQ(spawn_events, fib18_spawns);
  EXPECT_EQ(spawned_frames, fib18_spawns);
  // The what-if replay rebuilds the same frames a four-worker trace does.
  fib_capture four = capture_fib(4, 18);
  ASSERT_EQ(four.dropped, 0u);
  const reconstruction rec1 = reconstruct_dag(one.t);
  const reconstruction rec4 = reconstruct_dag(four.t);
  EXPECT_EQ(rec1.missing_frames, 0u);
  EXPECT_EQ(rec4.missing_frames, 0u);
  EXPECT_EQ(rec1.frames, rec4.frames);
  EXPECT_EQ(rec1.frames, one.t.frames.size());
}

// --- Exact event counts: the observed instantiation records every event
// (tests/hook_programs.hpp). ---

/// Events of each kind in one assembled run.
struct event_counts {
  std::uint64_t spawn = 0;
  std::uint64_t frame_begin = 0;
  std::uint64_t frame_end = 0;
  std::uint64_t sync_begin = 0;
  std::uint64_t sync_end = 0;
  std::uint64_t steal = 0;

  static event_counts of(const timeline& t) {
    event_counts c;
    for (const event& e : t.events) {
      switch (e.kind) {
        case event_kind::spawn: ++c.spawn; break;
        case event_kind::frame_begin: ++c.frame_begin; break;
        case event_kind::frame_end: ++c.frame_end; break;
        case event_kind::sync_begin: ++c.sync_begin; break;
        case event_kind::sync_end: ++c.sync_end; break;
        case event_kind::steal: ++c.steal; break;
      }
    }
    return c;
  }
};

/// The schedule-independent counts agree.
void expect_same_dag_counts(const event_counts& a, const event_counts& b) {
  EXPECT_EQ(a.spawn, b.spawn);
  EXPECT_EQ(a.frame_begin, b.frame_begin);
  EXPECT_EQ(a.frame_end, b.frame_end);
  EXPECT_EQ(a.sync_begin, b.sync_begin);
  EXPECT_EQ(a.sync_end, b.sync_end);
}

/// One run of prog on sched with whatever hooks are attached, checked
/// against the scheduler's statistics.
struct counted_run {
  event_counts events;
  hook_test::run_points points;
  rt::worker_stats stats;
};

/// Runs prog on sched: traced when `traced`, with `policy` installed when
/// non-null (it must outlive sched).
counted_run run_counted(scheduler& sched, const hook_test::program& prog,
                        bool traced, hook_test::counting_policy* policy) {
  counted_run out;
  const hook_test::run_points before =
      policy != nullptr ? hook_test::run_points::of(*policy) : hook_test::run_points{};
  if (policy != nullptr) sched.install_chaos(policy);
  sched.reset_stats();
  if (traced) {
    session cap(sched, session_options{std::size_t{1} << 16});
    EXPECT_EQ(sched.run(prog.run), prog.expected) << prog.name;
    timeline t = cap.assemble();
    EXPECT_EQ(t.dropped, 0u) << prog.name;
    out.events = event_counts::of(t);
  } else {
    EXPECT_EQ(sched.run(prog.run), prog.expected) << prog.name;
  }
  if (policy != nullptr) {
    sched.remove_chaos();
    out.points = hook_test::run_points::of(*policy) - before;
  }
  out.stats = sched.stats();
  return out;
}

TEST(EventCounts, MatchTheDagAtEveryWorkerCount) {
  for (const hook_test::program& prog : hook_test::programs()) {
    event_counts one_worker;
    for (const unsigned workers : {1u, 2u, 4u}) {
      scheduler sched(workers);
      const counted_run r = run_counted(sched, prog, /*traced=*/true, nullptr);
      SCOPED_TRACE(std::string(prog.name) + ", P=" + std::to_string(workers));
      EXPECT_EQ(r.events.spawn, prog.spawns);
      EXPECT_EQ(r.events.spawn, r.stats.spawns);
      // The root, every spawned frame or leaf, and every called frame.
      EXPECT_EQ(r.events.frame_begin, 1 + prog.spawns + prog.calls);
      EXPECT_EQ(r.events.frame_end, r.events.frame_begin);
      EXPECT_EQ(r.events.sync_begin, r.events.sync_end);
      EXPECT_EQ(r.events.steal, r.stats.steals);
      if (workers == 1) {
        one_worker = r.events;
      } else {
        expect_same_dag_counts(r.events, one_worker);
      }
    }
  }
}

TEST(EventCounts, SessionAndChaosPolicyTogetherFireWhatEachFiresAlone) {
  for (const hook_test::program& prog : hook_test::programs()) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(prog.name) + ", P=" + std::to_string(workers));
      hook_test::counting_policy alone_policy;
      hook_test::counting_policy both_policy;
      scheduler sched(workers);
      const counted_run traced = run_counted(sched, prog, true, nullptr);
      const counted_run chaotic = run_counted(sched, prog, false, &alone_policy);
      const counted_run both = run_counted(sched, prog, true, &both_policy);
      expect_same_dag_counts(both.events, traced.events);
      EXPECT_EQ(both.points.sync_enter, chaotic.points.sync_enter);
      EXPECT_EQ(both.points.sync_exit, chaotic.points.sync_exit);
      // Schedule-dependent counts, within the one run that had both hooks:
      // each steal is one steal event and one steal_success point.
      EXPECT_EQ(both.events.steal, both.stats.steals);
      EXPECT_EQ(both.points.steal_success, both.stats.steals);
      EXPECT_EQ(both.points.spawn_push, both.points.task_run);
      EXPECT_EQ(both.events.spawn, both.stats.spawns);
    }
  }
}

TEST(EventCounts, DetachedRunBetweenTwoAttachedRunsAddsNothing) {
  const hook_test::program prog = hook_test::programs().front();
  hook_test::counting_policy policy;
  scheduler sched(4);
  // Attached: a session and the policy together.
  session first(sched, session_options{std::size_t{1} << 16});
  sched.install_chaos(&policy);
  EXPECT_EQ(sched.run(prog.run), prog.expected);
  sched.remove_chaos();
  first.stop();
  const std::uint64_t recorded = first.recorded();
  const hook_test::run_points first_points = hook_test::run_points::of(policy);
  // Detached: neither the stopped session's rings nor the policy see it.
  EXPECT_EQ(sched.run(prog.run), prog.expected);
  EXPECT_EQ(first.recorded(), recorded);
  EXPECT_EQ(first.dropped(), 0u);
  const hook_test::run_points detached = hook_test::run_points::of(policy);
  EXPECT_EQ(detached.sync_enter, first_points.sync_enter);
  EXPECT_EQ(detached.sync_exit, first_points.sync_exit);
  EXPECT_EQ(detached.spawn_push, first_points.spawn_push);
  EXPECT_EQ(detached.task_run, first_points.task_run);
  EXPECT_EQ(detached.steal_success, first_points.steal_success);
  // Attached again: the same counts as the first attached run.
  const event_counts first_events = event_counts::of(first.assemble());
  EXPECT_EQ(first_events.frame_begin, 1 + prog.spawns);
  const counted_run second = run_counted(sched, prog, true, &policy);
  expect_same_dag_counts(second.events, first_events);
  EXPECT_EQ(second.points.sync_enter, first_points.sync_enter);
  EXPECT_EQ(second.points.sync_exit, first_points.sync_exit);
  EXPECT_EQ(second.points.spawn_push, second.points.task_run);
  EXPECT_EQ(second.points.steal_success, second.stats.steals);
}

// --- One end for every frame: a root or called frame ends with the
// implicit sync a spawned frame runs, whether its body returned or threw. ---

/// A program whose frames end every way a root or called frame can.
struct frame_end_program {
  const char* name;
  void (*run)(context&);
  std::uint64_t frames;  ///< the root, spawned and called frames
  bool throws;           ///< run() rethrows a std::runtime_error
};

std::vector<frame_end_program> frame_end_programs() {
  return {
      {"root spawns and calls",
       [](context& ctx) {
         ctx.spawn([](context& c) { c.spawn([](context&) {}); });
         ctx.call([](context& f) {
           f.spawn([](context&) {});
           f.call([](context&) {});
         });
         ctx.spawn([](context&) {});
       },
       7, false},
      {"called frame's body throws",
       [](context& ctx) {
         try {
           ctx.call([](context& f) {
             f.spawn([](context&) {});
             throw std::runtime_error("body");
           });
         } catch (const std::runtime_error&) {
         }
       },
       3, false},
      {"root's implicit sync meets a child's exception",
       [](context& ctx) {
         ctx.spawn([](context&) { throw std::runtime_error("child"); });
         ctx.call([](context&) {});
       },
       3, true},
  };
}

TEST(FrameEnds, EveryFrameRecordsOneImplicitSyncBracket) {
  for (const frame_end_program& prog : frame_end_programs()) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(prog.name) + ", P=" + std::to_string(workers));
      // Declared before the scheduler: the policy must outlive it.
      hook_test::counting_policy policy;
      scheduler sched(workers);
      sched.install_chaos(&policy);
      session cap(sched, session_options{std::size_t{1} << 12});
      bool threw = false;
      try {
        sched.run(prog.run);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      EXPECT_EQ(threw, prog.throws);
      const timeline t = cap.assemble();
      sched.remove_chaos();
      ASSERT_EQ(t.dropped, 0u);

      // Implicit brackets per frame, and every sync event of the run.
      std::map<std::uint64_t, std::uint64_t> implicit_begins;
      std::map<std::uint64_t, std::uint64_t> implicit_ends;
      std::uint64_t frames = 0;
      std::uint64_t sync_begins = 0;
      std::uint64_t sync_ends = 0;
      // Each worker's previous event: a frame ends right after its
      // implicit sync.
      std::vector<const event*> previous(workers, nullptr);
      for (const event& e : t.events) {
        switch (e.kind) {
          case event_kind::frame_begin:
            ++frames;
            implicit_begins.try_emplace(e.frame, 0);
            implicit_ends.try_emplace(e.frame, 0);
            break;
          case event_kind::sync_begin:
            ++sync_begins;
            if (e.aux16 == 1) ++implicit_begins[e.frame];
            break;
          case event_kind::sync_end:
            ++sync_ends;
            if (e.aux16 == 1) ++implicit_ends[e.frame];
            break;
          case event_kind::frame_end: {
            const event* last = previous[e.worker];
            ASSERT_NE(last, nullptr);
            EXPECT_EQ(last->kind, event_kind::sync_end);
            EXPECT_EQ(last->frame, e.frame);
            EXPECT_EQ(last->aux16, 1u);
            break;
          }
          default:
            break;
        }
        previous[e.worker] = &e;
      }
      EXPECT_EQ(frames, prog.frames);
      EXPECT_EQ(implicit_begins.size(), frames);  // no sync of an unknown frame
      for (const auto& [frame, n] : implicit_begins) {
        EXPECT_EQ(n, 1u) << "frame " << frame;
        EXPECT_EQ(implicit_ends[frame], 1u) << "frame " << frame;
      }
      // The chaos policy sees the same syncs the trace records.
      const hook_test::run_points points = hook_test::run_points::of(policy);
      EXPECT_EQ(points.sync_enter, sync_begins);
      EXPECT_EQ(points.sync_exit, sync_ends);
      EXPECT_EQ(sync_begins, sync_ends);
    }
  }
}

TEST(ChromeExport, EventCountMatchesRingTotalsAndNestingIsWellFormed) {
  fib_capture cap = capture_fib(4, 16);
  std::ostringstream os;
  write_chrome_trace(os, cap.t);
  const std::string json = os.str();

  const std::vector<jevent> events = parse_chrome_events(json);
  // One JSON event per recorded trace event: JSON count + counted drops
  // equals everything the runtime attempted to record.
  EXPECT_EQ(static_cast<std::uint64_t>(events.size()), cap.recorded);
  EXPECT_EQ(cap.recorded + cap.dropped,
            cap.t.recorded + cap.t.dropped);

  // Per-tid B/E nesting: E always closes the most recent open B of the
  // same name (frames and sync spans form a stack on each worker).
  std::vector<std::vector<std::string>> stacks(4);
  for (const jevent& e : events) {
    ASSERT_GE(e.tid, 0);
    ASSERT_LT(e.tid, 4);
    if (e.ph == "B") {
      stacks[static_cast<std::size_t>(e.tid)].push_back(e.name);
    } else if (e.ph == "E") {
      auto& stack = stacks[static_cast<std::size_t>(e.tid)];
      ASSERT_FALSE(stack.empty()) << "E without open B on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    } else {
      EXPECT_EQ(e.ph, "i");
    }
  }
  for (const auto& stack : stacks) EXPECT_TRUE(stack.empty());
}

TEST(Replay, SimT1MatchesMeasuredSerialWorkWithinTenPercent) {
  fib_capture cap = capture_fib(4, 18);
  ASSERT_EQ(cap.dropped, 0u);
  reconstruction rec = reconstruct_dag(cap.t);
  EXPECT_EQ(rec.missing_frames, 0u);
  EXPECT_EQ(rec.frames, cap.t.frames.size());
  ASSERT_GT(rec.measured_busy_ns, 0u);

  sim::machine_config cfg;
  cfg.processors = 1;
  cfg.policy = sim::spawn_policy::parent_first;
  const sim::sim_result r1 = sim::simulate(rec.g, cfg);
  const double measured = static_cast<double>(cap.t.total_busy_ns());
  const double simulated = static_cast<double>(r1.makespan);
  EXPECT_NEAR(simulated, measured, 0.10 * measured);
  // By construction they agree exactly: every exclusive nanosecond the
  // sweep attributed became dag work, and one processor never steals.
  EXPECT_EQ(r1.work, rec.measured_busy_ns);
}

TEST(Replay, WhatIfPredictionsRespectCilkviewBounds) {
  scheduler sched(4);
  session cap(sched, session_options{std::size_t{1} << 17});
  auto data = workloads::random_doubles(std::size_t{1} << 16, 7);
  sched.run([&](context& ctx) {
    workloads::qsort(ctx, data.data(), data.data() + data.size(), 1024);
  });
  timeline t = cap.assemble();
  ASSERT_TRUE(t.has_root);

  const std::vector<unsigned> procs{1, 2, 4, 8};
  what_if_report report = what_if(t, procs);
  ASSERT_EQ(report.points.size(), procs.size());
  EXPECT_TRUE(report.within_bounds);
  EXPECT_GT(report.prof.work, 0u);
  for (const what_if_point& pt : report.points) {
    EXPECT_GT(pt.predicted_ns, 0u);
    EXPECT_LE(pt.predicted_speedup, pt.upper_bound * 1.05);
    EXPECT_GT(pt.burdened_estimate, 0.0);
  }
  // More processors never slow the simulated schedule down by more than
  // the stochastic steal noise.
  EXPECT_LT(report.points[3].predicted_ns,
            report.points[0].predicted_ns);
  EXPECT_EQ(what_if_table(report).rows(), procs.size());
}

}  // namespace
}  // namespace cilkpp::trace
