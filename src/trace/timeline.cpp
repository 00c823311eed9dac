#include "trace/timeline.hpp"

#include <algorithm>
#include <string>

#include "support/timing.hpp"

namespace cilkpp::trace {

namespace {

struct stack_entry {
  std::uint64_t ped = 0;
  bool syncing = false;
};

}  // namespace

std::uint64_t timeline::total_busy_ns() const {
  std::uint64_t total = 0;
  for (const auto& [ped, f] : frames) total += f.exclusive_ns();
  return total;
}

double timeline::utilization() const {
  const std::uint64_t span = span_ns();
  if (workers == 0 || span == 0) return 0.0;
  return static_cast<double>(total_busy_ns()) /
         (static_cast<double>(workers) * static_cast<double>(span));
}

timeline assemble(std::vector<std::vector<event>> per_worker,
                  std::uint64_t recorded, std::uint64_t dropped) {
  timeline t;
  t.workers = static_cast<unsigned>(per_worker.size());
  t.recorded = recorded;
  t.dropped = dropped;
  t.lanes.resize(t.workers);
  t.steals_by_victim.assign(t.workers, std::vector<std::uint64_t>(t.workers, 0));

  // Trace window: earliest/latest timestamp over all workers.
  bool any = false;
  for (const auto& lane : per_worker) {
    if (lane.empty()) continue;
    if (!any) {
      t.t0 = lane.front().time_ns;
      t.t1 = lane.back().time_ns;
      any = true;
    } else {
      t.t0 = std::min(t.t0, lane.front().time_ns);
      t.t1 = std::max(t.t1, lane.back().time_ns);
    }
  }
  if (!any) return t;

  for (unsigned w = 0; w < t.workers; ++w) {
    const std::vector<event>& evs = per_worker[w];
    worker_lane& lane = t.lanes[w];
    lane.events = evs.size();
    std::vector<stack_entry> stack;
    std::uint64_t prev_t = evs.empty() ? 0 : evs.front().time_ns;
    std::uint64_t last_steal = 0;
    bool seen_steal = false;

    for (const event& e : evs) {
      // 1. Attribute the gap since the previous event to whoever owned the
      //    worker during it.
      const std::uint64_t dt = e.time_ns - prev_t;
      prev_t = e.time_ns;
      if (stack.empty()) {
        lane.idle_ns += dt;
      } else if (stack.back().syncing) {
        lane.scheduling_ns += dt;
      } else {
        lane.busy_ns += dt;
        auto it = t.frames.find(stack.back().ped);
        if (it != t.frames.end()) it->second.strand_ns.back() += dt;
      }

      // 2. Apply the event's transition.
      switch (e.kind) {
        case event_kind::frame_begin: {
          // A plain call is a strand boundary in the caller: the caller's
          // current strand seals here and a new one opens when the callee
          // returns (exclusive time keeps accumulating into the new one).
          if (!stack.empty() && !stack.back().syncing &&
              stack.back().ped == e.aux64 &&
              static_cast<frame_kind>(e.aux16) == frame_kind::called) {
            auto pit = t.frames.find(e.aux64);
            if (pit != t.frames.end()) {
              pit->second.controls.push_back(
                  {strand_control::type::call, e.frame});
              pit->second.strand_ns.push_back(0);
            }
          }
          frame_info& f = t.frames[e.frame];
          if (!f.strand_ns.empty()) ++t.anomalies;  // ped reuse (2nd run?)
          f = frame_info{};
          f.ped = e.frame;
          f.parent = e.aux64;
          f.kind = static_cast<frame_kind>(e.aux16);
          f.depth = e.aux32;
          f.worker = e.worker;
          f.begin_ns = e.time_ns;
          f.strand_ns.push_back(0);
          if (f.kind == frame_kind::root) {
            t.root = e.frame;
            t.has_root = true;
          }
          stack.push_back({e.frame, false});
          break;
        }
        case event_kind::frame_end: {
          auto it = t.frames.find(e.frame);
          if (it != t.frames.end()) {
            it->second.end_ns = e.time_ns;
            it->second.ended = true;
          }
          bool on_stack = false;
          for (const stack_entry& s : stack) on_stack |= (s.ped == e.frame);
          if (!on_stack) {
            ++t.anomalies;
            break;
          }
          while (!stack.empty() && stack.back().ped != e.frame) {
            stack.pop_back();
            ++t.anomalies;
          }
          if (!stack.empty()) stack.pop_back();
          break;
        }
        case event_kind::spawn: {
          if (stack.empty() || stack.back().ped != e.frame ||
              stack.back().syncing) {
            ++t.anomalies;
            break;
          }
          auto it = t.frames.find(e.frame);
          if (it != t.frames.end()) {
            it->second.controls.push_back(
                {strand_control::type::spawn, e.aux64});
            it->second.strand_ns.push_back(0);
          }
          break;
        }
        case event_kind::sync_begin: {
          if (stack.empty() || stack.back().ped != e.frame) {
            ++t.anomalies;
            break;
          }
          stack.back().syncing = true;
          auto it = t.frames.find(e.frame);
          if (it != t.frames.end()) {
            it->second.controls.push_back({strand_control::type::sync, 0});
            it->second.strand_ns.push_back(0);
          }
          break;
        }
        case event_kind::sync_end: {
          if (stack.empty() || stack.back().ped != e.frame ||
              !stack.back().syncing) {
            ++t.anomalies;
            break;
          }
          stack.back().syncing = false;
          break;
        }
        case event_kind::steal: {
          ++lane.steals;
          if (e.aux16 < t.workers) ++t.steals_by_victim[w][e.aux16];
          t.steals.push_back({e.time_ns, e.worker, e.aux16, e.frame, e.aux64});
          if (seen_steal) {
            lane.steal_interval_ns.add(
                static_cast<double>(e.time_ns - last_steal));
          }
          last_steal = e.time_ns;
          seen_steal = true;
          break;
        }
      }
    }

    // Window remainder (before the worker's first event / after its last,
    // plus anything not measured between events) is idle time.
    const std::uint64_t accounted =
        lane.busy_ns + lane.scheduling_ns + lane.idle_ns;
    const std::uint64_t span = t.span_ns();
    lane.idle_ns = accounted >= span ? lane.idle_ns : lane.idle_ns + (span - accounted);
  }

  std::sort(t.steals.begin(), t.steals.end(),
            [](const steal_info& a, const steal_info& b) {
              return a.time_ns < b.time_ns;
            });

  // Merged stream for the exporter: concatenation keeps each worker's order,
  // stable_sort keeps it under equal timestamps.
  std::size_t total_events = 0;
  for (const auto& lane : per_worker) total_events += lane.size();
  t.events.reserve(total_events);
  for (auto& lane : per_worker) {
    t.events.insert(t.events.end(), lane.begin(), lane.end());
  }
  std::stable_sort(t.events.begin(), t.events.end(),
                   [](const event& a, const event& b) {
                     return a.time_ns < b.time_ns;
                   });
  return t;
}

table utilization_table(const timeline& t) {
  table out{"worker", "busy_ms", "sched_ms", "idle_ms", "busy_pct", "steals",
            "events"};
  out.set_title("per-worker utilization over " +
                table::format_cell(ns_to_ms(t.span_ns())) + " ms");
  const double span = static_cast<double>(t.span_ns());
  for (unsigned w = 0; w < t.workers; ++w) {
    const worker_lane& lane = t.lanes[w];
    const double busy_pct =
        span == 0 ? 0.0 : 100.0 * static_cast<double>(lane.busy_ns) / span;
    out.row(w, ns_to_ms(lane.busy_ns), ns_to_ms(lane.scheduling_ns),
            ns_to_ms(lane.idle_ns), busy_pct, lane.steals, lane.events);
  }
  return out;
}

namespace {
/// "w<id>", built by appending: GCC 12's -Wrestrict misfires at -O3 on
/// operator+(const char*, std::string&&).
std::string worker_label(unsigned id) {
  std::string label = "w";
  label += std::to_string(id);
  return label;
}
}  // namespace

table steal_matrix_table(const timeline& t) {
  std::vector<std::string> headers;
  headers.push_back("thief\\victim");
  for (unsigned v = 0; v < t.workers; ++v) {
    headers.push_back(worker_label(v));
  }
  headers.push_back("total");
  table out(std::move(headers));
  out.set_title("steals by victim");
  for (unsigned w = 0; w < t.workers; ++w) {
    std::vector<std::string> row;
    row.push_back(worker_label(w));
    std::uint64_t total = 0;
    for (unsigned v = 0; v < t.workers; ++v) {
      total += t.steals_by_victim[w][v];
      row.push_back(table::format_unsigned(t.steals_by_victim[w][v]));
    }
    row.push_back(table::format_unsigned(total));
    out.add_row(std::move(row));
  }
  return out;
}

table steal_interval_table(const timeline& t) {
  table out{"thief", "steals", "mean_us", "min_us", "max_us", "stddev_us"};
  out.set_title("intervals between successful steals");
  for (unsigned w = 0; w < t.workers; ++w) {
    const accumulator& acc = t.lanes[w].steal_interval_ns;
    if (acc.count() == 0) {
      out.row(w, t.lanes[w].steals, "-", "-", "-", "-");
      continue;
    }
    out.row(w, t.lanes[w].steals, acc.mean() / 1000.0, acc.min() / 1000.0,
            acc.max() / 1000.0, acc.stddev() / 1000.0);
  }
  return out;
}

}  // namespace cilkpp::trace
